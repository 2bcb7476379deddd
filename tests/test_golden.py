"""``gclkit run`` output against a committed golden CSV.

``tests/data/golden_sweep.csv`` holds the five ``gclkit run`` outputs for
cases 1-5 on the 10^3 mesh, N = 2..3, all six methods, without timing,
concatenated in case order.  Any change that moves a value by rounding has
to regenerate the file and list the moved values in CHANGES.md; from the
repository root::

    python tests/test_golden.py

The runs are separate processes with BLAS on one thread: the RBF solve of
cases 4 and 5 rounds differently with more BLAS threads.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "golden_sweep.csv"
SRC = Path(__file__).resolve().parents[1] / "src"
METHODS = "lvi,aevi,avg,trimap,ts-lvi,ts-aevi"
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _run_case(case: str, out: Path) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_BLAS_THREAD)
    subprocess.run(
        [
            sys.executable, "-m", "gclkit.cli", "run", "--case", case, "--n", "2..3",
            "--mesh", "10,10,10", "--methods", METHODS, "--out", str(out),
        ],
        env=env, check=True, timeout=300,
    )
    return out.read_bytes()


def _run_all_cases(out_dir: Path) -> bytes:
    return b"".join(_run_case(case, out_dir / f"case{case}.csv") for case in "12345")


def test_run_writes_golden_csv(tmp_path):
    written = _run_all_cases(tmp_path)
    assert written.decode().splitlines() == GOLDEN.read_bytes().decode().splitlines()
    assert written == GOLDEN.read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_bytes(_run_all_cases(Path(tmp)))
