"""Span recorder and the per-layer metrics of a traced benchmark pass.

Tracing wraps public gclkit names from outside the package: each wrapped call
records a span (name, thread, start, end, parent on the same thread), so a
layer's self time is its span minus the spans nested inside it.  Wrappers are
installed only for the traced set-up and pass and removed afterwards; the
untraced passes that give the end-to-end metrics run the unmodified functions.

A name that a later refactor removes is skipped: every metric built only from
missing names is reported as ``None`` and the pass still runs.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from gclkit import cli, experiments, flow, gcl, metrics, motion, rbf, spectral

# span name -> every (owner, attribute) binding that must be wrapped so that
# all call sites see the wrapper.  Names imported with ``from x import y``
# live in the importing module too, so both bindings are listed.
TARGETS = {
    "gcl.lvi": [(gcl, "lvi_increments")],
    "gcl.aevi": [(gcl, "aevi_increments")],
    "gcl.sweep": [(gcl, "sweep_volume")],
    "gcl.sweep_by_direction": [(gcl, "sweep_volume_by_direction")],
    "gcl.split": [(gcl, "extract_linear_and_periodic")],
    "gcl.nlfd": [(gcl, "ifmv_nlfd")],
    "gcl.ts": [(gcl, "ifmv_ts")],
    "gcl.avg": [(gcl, "ifmv_avg")],
    "gcl.trimap": [(gcl, "trimap_field")],
    "gcl.volumes": [
        (gcl, "cell_volumes"),
        (gcl, "exact_volume_rates"),
        (flow, "cell_volumes"),
    ],
    "hexmesh.gate": [(motion, "detect_degenerate")],
    "motion.sample": [(motion, "sample_motion"), (experiments, "sample_motion")],
    "motion.evaluate": [(motion, "evaluate_motion")],
    "rbf.build": [(rbf, "build_system")],
    "rbf.interpolate": [(rbf, "interpolate")],
    "spectral.transform": [
        (spectral.SpectralOperator, "dft"),
        (spectral.SpectralOperator, "idft"),
    ],
    "spectral.differentiate": [(spectral.SpectralOperator, "differentiate")],
    "metrics.err": [
        (metrics, "abs_err_sum_vs_dvoldt"),
        (metrics, "abs_err_ifmv_vs_reference"),
    ],
    "metrics.fd": [(metrics, "fd_reference_errors")],
    "experiments.prepare": [(experiments, "prepare_point")],
    "experiments.evaluate": [(experiments, "evaluate_point")],
    "experiments.run_sweep": [(experiments, "run_sweep")],
    "experiments.worker_count": [(experiments, "worker_count")],
    "flow.init": [(flow.FreestreamProblem, "__init__")],
    "flow.residual": [(flow.FreestreamProblem, "residual_parts")],
    "flow.face_flux": [(flow, "ale_face_flux")],
    "flow.jst": [(flow, "jst_dissipation")],
    "flow.timestep": [(flow.FreestreamProblem, "local_timestep")],
    "flow.march": [(flow.FreestreamProblem, "march")],
    "cli.main": [(cli, "main")],
    "cli.write_csv": [(cli, "write_csv")],
}

MODULES = (
    "gcl", "hexmesh", "motion", "rbf", "spectral", "metrics", "experiments",
    "flow", "cli",
)

# run_sweep's own time on the calling thread is the wait for its pool, not
# work of any layer; it is reported through experiments.pool_idle_s instead.
NOT_LAYER_WORK = {"experiments.run_sweep"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    child_time: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    """Collects spans from every thread; nesting is tracked per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(
                name,
                0.0,
                parent=stack[-1] if stack else None,
                thread=threading.get_ident(),
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration
                self.spans.append(span)
            _annotate(span, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for name, bindings in TARGETS.items():
            present = [(o, a) for o, a in bindings if a in vars(o)]
            if not present:
                self.missing.add(name)
            for owner, attr in present:
                original = vars(owner)[attr]
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def _annotate(span: Span, args, result) -> None:
    """Counts read off a call's arguments or result, kept on its span."""
    if isinstance(result, gcl.IfmvField):
        span.info["face_instants"] = int(result.total.size)
    elif span.name == "rbf.build":
        points, grid, radius = (np.ascontiguousarray(a) for a in args[:3])
        key = hashlib.sha256(points.tobytes() + grid.tobytes() + radius.tobytes())
        span.info["system"] = key.hexdigest()
    elif span.name == "experiments.worker_count":
        span.info["workers"] = int(result)
    elif span.name == "flow.march":
        span.info["iterations"] = int(result.iterations)
    elif span.name == "cli.write_csv" and args[0] is not None:
        span.info["bytes"] = os.path.getsize(args[0])


def layer_metrics(recorder: Recorder, traced_wall: float, untraced_wall: float):
    """Per-layer metrics of one traced set-up and pass, keyed ``module.metric``.

    ``traced_wall`` is the set-up time plus the summed time of the pass's
    operations, all made on the calling thread, and ``untraced_wall`` the
    same without tracing.  A metric whose spans were all missing is ``None``;
    counts and ratios with nothing to count are 0.
    """
    spans = recorder.spans
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def pick(*names):
        if all(n in recorder.missing for n in names):
            return None
        return [s for n in names for s in by_name.get(n, [])]

    def self_s(*names):
        chosen = pick(*names)
        return None if chosen is None else sum(s.self_time for s in chosen)

    def total_s(*names):
        chosen = pick(*names)
        return None if chosen is None else sum(s.duration for s in chosen)

    def calls(*names):
        chosen = pick(*names)
        return None if chosen is None else len(chosen)

    def info_sum(key, *names):
        chosen = pick(*names)
        return None if chosen is None else sum(s.info.get(key, 0) for s in chosen)

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    out = {
        "gcl.lvi_s": self_s("gcl.lvi"),
        "gcl.aevi_s": self_s("gcl.aevi"),
        "gcl.sweep_s": self_s("gcl.sweep"),
        "gcl.sweep_by_direction_s": self_s("gcl.sweep_by_direction"),
        "gcl.split_s": self_s("gcl.split"),
        "gcl.nlfd_s": self_s("gcl.nlfd"),
        "gcl.ts_s": self_s("gcl.ts"),
        "gcl.avg_s": self_s("gcl.avg"),
        "gcl.trimap_s": self_s("gcl.trimap"),
        "gcl.volumes_s": self_s("gcl.volumes"),
        "gcl.face_instants": info_sum(
            "face_instants", "gcl.nlfd", "gcl.ts", "gcl.avg", "gcl.trimap"
        ),
        "hexmesh.gate_s": self_s("hexmesh.gate"),
        "hexmesh.gate_calls": calls("hexmesh.gate"),
        "motion.sample_s": self_s("motion.sample"),
        "motion.evaluate_s": self_s("motion.evaluate"),
        "rbf.build_s": self_s("rbf.build"),
        "rbf.build_calls": calls("rbf.build"),
        "rbf.interpolate_s": self_s("rbf.interpolate"),
        "spectral.transform_s": self_s("spectral.transform"),
        "spectral.differentiate_s": self_s("spectral.differentiate"),
        "spectral.calls": calls("spectral.transform", "spectral.differentiate"),
        "metrics.err_s": self_s("metrics.err"),
        "metrics.fd_s": self_s("metrics.fd"),
        "experiments.prepare_s": self_s("experiments.prepare"),
        "experiments.evaluate_s": self_s("experiments.evaluate"),
        "flow.init_s": self_s("flow.init"),
        "flow.residual_s": self_s("flow.residual"),
        "flow.face_flux_s": self_s("flow.face_flux"),
        "flow.jst_s": self_s("flow.jst"),
        "flow.timestep_s": self_s("flow.timestep"),
        "flow.march_s": self_s("flow.march"),
        "flow.residual_calls": calls("flow.residual"),
        "flow.iterations": info_sum("iterations", "flow.march"),
        "cli.write_csv_s": self_s("cli.write_csv"),
        "cli.csv_bytes": info_sum("bytes", "cli.write_csv"),
    }

    builds = pick("rbf.build")
    out["rbf.build_useful_frac"] = (
        None
        if builds is None
        else ratio(len({s.info["system"] for s in builds}), len(builds))
    )
    march_ms = total_s("flow.march")
    out["flow.ms_per_iteration"] = ratio(
        None if march_ms is None else 1e3 * march_ms, out["flow.iterations"]
    )

    # pool idle: workers x sweep span, minus the time jobs were busy
    sweeps, workers = pick("experiments.run_sweep"), pick("experiments.worker_count")
    busy = total_s("experiments.prepare", "experiments.evaluate")
    if sweeps is None or workers is None or busy is None:
        out["experiments.pool_idle_s"] = None
    else:
        slots = 0.0
        for sweep in sweeps:
            counts = [w.info["workers"] for w in workers if w.parent is sweep]
            slots += sweep.duration * (counts[0] if counts else 1)
        out["experiments.pool_idle_s"] = slots - busy

    main_s, sweeps = total_s("cli.main"), pick("experiments.run_sweep")
    out["cli.overhead_s"] = (
        None
        if main_s is None or sweeps is None
        else main_s - sum(s.duration for s in sweeps if _under(s, "cli.main"))
    )

    work = {m: 0.0 for m in MODULES}
    for span in spans:
        if span.name not in NOT_LAYER_WORK:
            work[span.name.split(".")[0]] += span.self_time
    for module in MODULES:
        out[f"{module}.self_s"] = work[module]

    main_thread = threading.main_thread().ident
    covered = sum(
        s.duration for s in spans if s.parent is None and s.thread == main_thread
    )
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.unattributed_s"] = traced_wall - covered
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "flow.ms_per_iteration":
        return "ms"
    if name.endswith("_frac"):
        return "frac"
    if name == "cli.csv_bytes":
        return "bytes"
    return "count"


def _under(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False
