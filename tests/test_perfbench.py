"""The benchmark runner's output, as its reader parses it.

``perfbench/run.py`` must print only the ``machine:`` record, one
``name = value unit`` line per metric and, last, one JSON result line.  Each
run here is one untimed-budget pass (``--seconds 0``) of ``ifmv_sweep``, a
few seconds, of ``fine_mesh``, the one workload whose sweep runs on the pool,
or of ``freestream``, about ten.  A span whose every binding a rename removed reads null
in the benchmark, so the span list is also checked against the package.
"""

import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "ok_frac")


def _reject(constant):
    raise ValueError(f"non-JSON constant {constant} in the result line")


def _check_output(workload: str, trace: int) -> dict:
    """One pass's output, checked line by line; returns its metrics."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("machine: ")
    json.loads(lines[0][len("machine: "):], parse_constant=_reject)
    metric_lines = lines[1:-1]
    assert all(re.fullmatch(r"[\w.]+ = \S+ \S+", line) for line in metric_lines), metric_lines
    result = json.loads(lines[-1], parse_constant=_reject)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert [line.split(" = ")[0] for line in metric_lines] == list(metrics)
    if trace:
        assert [name for name, m in metrics.items() if m["value"] is None] == []
    else:
        assert list(metrics) == list(END_TO_END)
        assert all(math.isfinite(metrics[name]["value"]) for name in END_TO_END)
    return metrics


@pytest.mark.parametrize("trace", [0, 1])
def test_ifmv_sweep_output_is_well_formed(trace):
    metrics = _check_output("ifmv_sweep", trace)
    if trace:
        assert metrics["spectral.transform_s"]["value"] == 0
        # a method table that bound the gcl functions at import would bypass
        # the wrappers installed on the module, and these spans would read 0
        for kind in ("lvi", "aevi", "nlfd", "avg", "trimap"):
            assert metrics[f"gcl.{kind}_s"]["value"] > 0, kind


@pytest.mark.parametrize("trace", [0, 1])
def test_fine_mesh_output_is_well_formed(trace):
    metrics = _check_output("fine_mesh", trace)
    if trace:
        # a point task that bound prepare_point or evaluate_point before the
        # wrappers were installed would bypass them, and these spans read 0
        for kind in ("prepare", "evaluate"):
            assert metrics[f"experiments.{kind}_s"]["value"] > 0, kind


@pytest.mark.parametrize("trace", [0, 1])
def test_freestream_output_is_well_formed(trace):
    metrics = _check_output("freestream", trace)
    if trace:
        assert metrics["flow.iterations"]["value"] == 5  # Newton steps


def test_every_traced_span_keeps_a_binding(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    missing = [
        name
        for name, bindings in tracing.TARGETS.items()
        if not any(attr in vars(owner) for owner, attr in bindings)
    ]
    assert missing == []
