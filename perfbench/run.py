"""Run one gclkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ifmv_sweep --seed 42 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.

``--trace 0`` repeats whole passes of the workload until ``--seconds`` of
timed work are done (at least one pass) and prints the end-to-end metrics:
``setup_s``, ``wall_s`` (median pass), ``peak_rss_mb`` and ``ok_frac``.
``--trace 1`` runs a traced set-up and pass, then an untraced set-up and
pass, and prints the per-layer metrics instead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

BLAS is pinned to one thread; ``GCLKIT_THREADS`` is the workload's only
other thread setting.  Output digests are kept in ``perfbench/.state`` so
every run of the same code and seed must reproduce them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE_DIR = BENCH / ".state"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gclkit; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> list[float]:
    """Time ``import gclkit`` in fresh interpreters (the in-process import
    has already happened by the time set-up is measured)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        )
        out.append(float(probe.stdout))
    return out


def source_digest() -> str:
    """Digest of the package and benchmark sources that produce the outputs."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record(workload: str, seed: int, src_digest: str) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {
            k: os.environ.get(k) for k in ("GCLKIT_THREADS", *BLAS_THREADS)
        },
        "git_commit": commit,
        "source_sha256": src_digest,
    }


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def time_pass(ops, op_times: dict) -> tuple[float, list]:
    """Run every operation once; returns (summed op time, outputs).

    Each operation's time is appended to ``op_times[label]``.
    """
    wall, outputs = 0.0, []
    for op in ops:
        start = time.perf_counter()
        try:
            outputs.append(op.run())
        except Exception:  # a raising operation is a failed one; keep going
            outputs.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
        op_times.setdefault(op.label, []).append(elapsed)
        wall += elapsed
    return wall, outputs


def check_pass(ops, outputs, tally: Tally, known: dict) -> None:
    """Check each output and compare its digest with every earlier run's."""
    for op, output in zip(ops, outputs):
        if isinstance(output, str):
            tally.record(op.label, [f"raised {output}"])
            continue
        try:
            problems = op.check(output)
            value = hashlib.sha256(op.digest(output)).hexdigest()
        except Exception:  # an output that cannot be read is a failed one
            tally.record(op.label, [f"check raised {traceback.format_exc(limit=3)}"])
            continue
        if known.setdefault(op.label, value) != value:
            problems.append("output digest differs from an earlier run")
        tally.record(op.label, problems)


def load_state(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def save_state(path: Path, state: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gclkit" / "__init__.py").is_file():
        print(f"error: gclkit sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, threads = workloads.WORKLOADS[args.workload]
    threads = min(threads, os.cpu_count() or 1)
    os.environ["GCLKIT_THREADS"] = str(threads)

    STATE_DIR.mkdir(exist_ok=True)
    state_path = STATE_DIR / "digests.json"
    state = load_state(state_path)
    src_digest = source_digest()
    key = f"{args.workload} seed={args.seed} src={src_digest[:16]}"
    known = state.setdefault(key, {})

    def timed_setup():
        start = time.perf_counter()
        ops = setup(args.seed, str(STATE_DIR))
        return time.perf_counter() - start, ops

    tally = Tally()
    op_times: dict[str, list[float]] = {}

    def run_pass(ops) -> float:
        wall, outputs = time_pass(ops, op_times)
        check_pass(ops, outputs, tally, known)
        return wall

    if args.trace:
        # the traced set-up and pass come first, so they also bear the cost
        # of the first pass in a fresh process: the overhead is an upper bound
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
        try:
            traced_setup, ops = timed_setup()
            traced_wall, outputs = time_pass(ops, {})
        finally:
            recorder.uninstall()
        check_pass(ops, outputs, tally, known)
        setup_s, ops = timed_setup()
        walls = [run_pass(ops)]
        import_times, setup_times = [], [setup_s]
    else:
        # set-up is repeated and its medians reported; passes repeat until
        # the time budget is spent, and the median pass is reported
        import_times = import_seconds()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            elapsed, ops = timed_setup()
            setup_times.append(elapsed)
        walls = []
        budget_start = time.perf_counter()
        while not walls or time.perf_counter() - budget_start < args.seconds:
            walls.append(run_pass(ops))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    compared = f"{args.workload} src={src_digest[:16]} threads-compared"
    if threads > 1 and not state.get(compared):
        # output must not depend on the worker count: once per session, rerun
        # one pass single-threaded and hold it to the same digests
        os.environ["GCLKIT_THREADS"] = "1"
        _, outputs = time_pass(ops, {})
        os.environ["GCLKIT_THREADS"] = str(threads)
        check_pass(ops, outputs, tally, known)
        state[compared] = True

    if args.trace:
        metrics = tracing.layer_metrics(
            recorder, traced_setup + traced_wall, setup_times[0] + walls[0]
        )
        units = {name: tracing.unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - tally.failed / tally.attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}

    save_state(state_path, state)

    record = machine_record(args.workload, args.seed, src_digest)
    record.update(
        setup_import_s=import_times, setup_rest_s=setup_times, pass_wall_s=walls,
        op_s=op_times,
    )
    print("machine:", json.dumps(record, sort_keys=True))
    for problem in tally.problems:
        print("FAILED", problem)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
