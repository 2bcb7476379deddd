"""``gclkit run`` output against a committed golden CSV.

``tests/data/golden_sweep.csv`` holds the five ``gclkit run`` outputs for
cases 1-5 on the 10^3 mesh, N = 2..3, all six methods, without timing,
concatenated in case order.  ``tests/data/golden_freestream.csv`` holds one
``gclkit run --freestream on`` output: case 2 on the 4^3 mesh, N = 1..2, all
six methods, so the freestream solve is pinned too.  Any change that moves
a value by rounding has to regenerate the files and list the moved values in
CHANGES.md; from the repository root::

    python tests/test_golden.py

rewrites both files and prints every value that moved against the committed
ones, with its relative move, one line each.  It ends with one summary line
per file and column: how many values moved, the largest absolute and
relative move, and how many values at or below 1e-10 rose and fell.

The runs are separate processes with BLAS on one thread.  The RBF spread of
cases 4 and 5 factors its blocks without BLAS; a test beside the golden one
runs both cases under one and two BLAS threads, on 6^3 and on 10^3, whose
blocks span two of the factor's panels, and requires the same bytes, and
another does the same for the freestream solve on the 10^3 mesh.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "golden_sweep.csv"
GOLDEN_FREESTREAM = Path(__file__).parent / "data" / "golden_freestream.csv"
SRC = Path(__file__).resolve().parents[1] / "src"
METHODS = "lvi,aevi,avg,trimap,ts-lvi,ts-aevi"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_case(
    case: str, out: Path, mesh: str = "10,10,10", blas_threads: int = 1,
    n: str = "2..3", extra: tuple = (), methods: str = METHODS,
) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, str(blas_threads)))
    subprocess.run(
        [
            sys.executable, "-m", "gclkit.cli", "run", "--case", case, "--n", n,
            "--mesh", mesh, "--methods", methods, "--out", str(out), *extra,
        ],
        env=env, check=True, timeout=300,
    )
    return out.read_bytes()


def _run_freestream(out_dir: Path) -> bytes:
    return _run_case(
        "2", out_dir / "freestream.csv", mesh="4,4,4", n="1..2",
        extra=("--freestream", "on"),
    )


def _run_all_cases(out_dir: Path) -> bytes:
    return b"".join(_run_case(case, out_dir / f"case{case}.csv") for case in "12345")


def _rows(text: str) -> dict:
    """Data rows of concatenated run outputs, (case, method, N) -> {column: text}."""
    rows, header = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        cells = line.split(",")
        if cells[0] == "case":
            header = cells
        else:
            rows[tuple(cells[:3])] = dict(zip(header, cells))
    return rows


def moved_values(old: str, new: str) -> list[str]:
    """One line per CSV value that differs between two outputs, with its relative move."""
    old_rows, new_rows = _rows(old), _rows(new)
    lines = []
    for key in list(old_rows) + [k for k in new_rows if k not in old_rows]:
        label = "{} {} N={}".format(*key)
        if key not in new_rows or key not in old_rows:
            lines.append(f"{label}: row {'removed' if key in old_rows else 'added'}")
            continue
        for column, before in old_rows[key].items():
            after = new_rows[key].get(column)
            if after == before:
                continue
            try:
                move = abs(float(after) - float(before)) / abs(float(before))
                lines.append(f"{label} {column}: {before} -> {after} (relative {move:.1e})")
            except (TypeError, ValueError, ZeroDivisionError):
                lines.append(f"{label} {column}: {before} -> {after}")
    return lines


# values at or below this are rounding floors, counted apart in the summary
FLOOR = 1e-10


def move_summary(old: str, new: str) -> list[str]:
    """One line per column with moved values: count, largest moves, floors up and down."""
    old_rows, new_rows = _rows(old), _rows(new)
    moves = {}
    for key in old_rows.keys() & new_rows.keys():
        for column, before in old_rows[key].items():
            after = new_rows[key].get(column)
            try:
                before_value, after_value = float(before), float(after)
            except (TypeError, ValueError):
                continue
            if after != before:
                moves.setdefault(column, []).append((before_value, after_value))
    lines = []
    for column in sorted(moves):
        pairs = moves[column]
        absolute = max(abs(b - a) for a, b in pairs)
        relative = max((abs(b - a) / abs(a) for a, b in pairs if a != 0.0), default=0.0)
        floor = [(a, b) for a, b in pairs if abs(a) <= FLOOR]
        rose = sum(abs(b) > abs(a) for a, b in floor)
        fell = sum(abs(b) < abs(a) for a, b in floor)
        lines.append(
            f"{column}: {len(pairs)} moved, largest {absolute:.1e} absolute and"
            f" {relative:.1e} relative; at or below {FLOOR:g}: {rose} rose, {fell} fell"
        )
    return lines


def test_move_summary_counts_each_column():
    old = "case,method,N,abs_err1,fd1_ref\ncase1,avg,2,1e-12,0.5\ncase1,avg,3,2e-13,1\n"
    new = "case,method,N,abs_err1,fd1_ref\ncase1,avg,2,3e-14,0.5\ncase1,avg,3,4e-13,1.25\n"
    assert move_summary(old, new) == [
        "abs_err1: 2 moved, largest 9.7e-13 absolute and 1.0e+00 relative;"
        " at or below 1e-10: 1 rose, 1 fell",
        "fd1_ref: 1 moved, largest 2.5e-01 absolute and 2.5e-01 relative;"
        " at or below 1e-10: 0 rose, 0 fell",
    ]
    assert move_summary(old, old) == []


def test_moved_values_lists_each_changed_cell():
    old = "# meta\ncase,method,N,fd1_ref,fd2_ref\ncase1,avg,2,0.5,0.25\ncase1,avg,3,1,2\n"
    new = "# other\ncase,method,N,fd1_ref,fd2_ref\ncase1,avg,2,0.5,0.2500001\ncase1,lvi,3,1,2\n"
    assert moved_values(old, new) == [
        "case1 avg N=2 fd2_ref: 0.25 -> 0.2500001 (relative 4.0e-07)",
        "case1 avg N=3: row removed",
        "case1 lvi N=3: row added",
    ]
    assert moved_values(old, old) == []


def test_golden_nlfd_rows_equal_their_ts_twins():
    # NLFD and TS take the derivative through the same matrix
    rows = _rows(GOLDEN.read_text())
    twins = [key for key in rows if key[1].startswith("nlfd-")]
    assert len(twins) == 2 * 2 * 5
    for case, method, n in twins:
        nlfd, ts = rows[case, method, n], rows[case, "ts-" + method[5:], n]
        for column in ("abs_err1", "abs_err2_x", "abs_err2_y", "abs_err2_z"):
            assert nlfd[column] == ts[column], (case, method, n, column)


def test_run_writes_golden_csv(tmp_path):
    written = _run_all_cases(tmp_path)
    assert written.decode().splitlines() == GOLDEN.read_bytes().decode().splitlines()
    assert written == GOLDEN.read_bytes()


def test_freestream_run_writes_golden_csv(tmp_path):
    written = _run_freestream(tmp_path)
    golden = GOLDEN_FREESTREAM.read_bytes()
    assert written.decode().splitlines() == golden.decode().splitlines()
    assert written == golden


@pytest.mark.parametrize(
    "case, mesh",
    [pytest.param("4", "6,6,6", id="4"), pytest.param("5", "6,6,6", id="5"),
     pytest.param("4", "10,10,10", id="10-4"), pytest.param("5", "10,10,10", id="10-5")],
)
def test_rbf_cases_write_same_bytes_under_one_and_two_blas_threads(tmp_path, case, mesh):
    # 6^3's blocks, 19 to 37 points, are one panel of the factor; 10^3's, 61
    # to 91, are two
    one = _run_case(case, tmp_path / "one.csv", mesh=mesh, blas_threads=1)
    two = _run_case(case, tmp_path / "two.csv", mesh=mesh, blas_threads=2)
    assert one == two


def test_freestream_solve_writes_same_bytes_under_one_and_two_blas_threads(tmp_path):
    # the benchmark's problem: its Krylov vectors, 25,000 values, are long
    # enough for a threaded BLAS to split their reductions
    runs = [
        _run_case("4", tmp_path / f"fs{threads}.csv", blas_threads=threads, n="2..2",
                  extra=("--freestream", "on"), methods="avg")
        for threads in (1, 2)
    ]
    assert runs[0] == runs[1]


if __name__ == "__main__":
    summaries = []
    for golden, run in ((GOLDEN, _run_all_cases), (GOLDEN_FREESTREAM, _run_freestream)):
        with tempfile.TemporaryDirectory() as tmp:
            written = run(Path(tmp))
        committed = golden.read_text() if golden.exists() else ""
        for line in moved_values(committed, written.decode()):
            print(f"{golden.name}: {line}")
        summary = move_summary(committed, written.decode())
        summaries.extend(f"{golden.name} {line}" for line in summary)
        golden.write_bytes(written)
    for line in summaries:
        print(line)
