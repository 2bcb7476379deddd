"""Command-line front end: benchmark sweeps to CSV and a verification suite.

``gclkit run`` evaluates the requested IFMV methods over a harmonic sweep of
one motion case and writes one CSV row per (case, method, N), preceded by a
``#`` metadata block echoing the effective configuration.  ``gclkit verify``
executes the cross-module property suite and prints one pass/fail line per
property.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 degenerate mesh, 4 divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import __version__, experiments, verify
from .experiments import METHOD_ALIASES, ConfigError, FreestreamOptions, MeshConfig
from .flow import FreestreamDivergence, FreestreamState
from .motion import CASE_IDS, DegenerateMeshError, MotionCase

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_DIVERGED = 4

CSV_COLUMNS = (
    "case,method,N,Nts,rel_err_freestream,abs_err1,"
    "abs_err2_x,abs_err2_y,abs_err2_z,fd1_ref,fd2_ref,wall_ms"
)


@dataclass
class RunConfig:
    case: str = "case1"
    methods: list[str] = field(default_factory=lambda: ["lvi", "aevi", "avg", "trimap"])
    n_range: tuple[int, int] = (1, 20)
    mesh: MeshConfig = field(default_factory=MeshConfig)
    amp: tuple[float, ...] | None = None
    alpha0: float | None = None
    radius: float | None = None
    seed: int | None = None
    support_radius: float | None = None
    freestream: bool = False
    cfl: float = 1.5
    max_iters: int = 20000
    timing: bool = False
    out: str | None = None

    def harmonic_range(self) -> list[int]:
        lo, hi = self.n_range
        return list(range(lo, hi + 1))

    def motion_case(self) -> MotionCase:
        overrides = {
            "alpha0": self.alpha0,
            "radius": self.radius,
            "seed": self.seed,
            "support_radius": self.support_radius,
        }
        if self.amp is not None:
            if self.case == "case4":
                overrides["rbf_amplitude"] = self.amp[0]
            else:
                overrides["amplitude"] = self.amp
        return MotionCase.for_case(self.case, **overrides)


def _parse_case(text: str) -> str:
    text = text.strip().lower()
    if text in CASE_IDS:
        return text
    if text.isdigit() and f"case{text}" in CASE_IDS:
        return f"case{text}"
    raise ConfigError(f"unknown case {text!r}; choose from {', '.join(CASE_IDS)}")


def _parse_methods(text: str) -> list[str]:
    methods = [m.strip().lower() for m in text.split(",") if m.strip()]
    if not methods:
        raise ConfigError("at least one method is required")
    bad = [m for m in methods if m not in METHOD_ALIASES]
    if bad:
        raise ConfigError(
            f"unknown methods {bad}; choose from {', '.join(METHOD_ALIASES)}"
        )
    return methods


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..") if ".." in text else [text, text]
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except (ValueError, IndexError) as err:
        raise ConfigError(f"bad harmonic range {text!r}; expected 'a..b'") from err
    if not (1 <= lo <= hi <= 64):
        raise ConfigError(f"harmonic range must satisfy 1 <= a <= b <= 64, got {text}")
    return lo, hi


def _parse_floats(text: str, count: int | None = None) -> tuple[float, ...]:
    vals = tuple(float(v) for v in text.split(","))
    if count is not None and len(vals) != count:
        raise ConfigError(f"expected {count} comma-separated values, got {text!r}")
    return vals


def _parse_ints(text: str, count: int) -> tuple[int, ...]:
    vals = tuple(int(v) for v in text.split(","))
    if len(vals) != count:
        raise ConfigError(f"expected {count} comma-separated integers, got {text!r}")
    return vals


def _parse_onoff(text) -> bool:
    if isinstance(text, bool):
        return text
    val = str(text).strip().lower()
    if val in ("on", "true", "1", "yes"):
        return True
    if val in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"expected on/off, got {text!r}")


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values and CLI flags (flags win)."""
    cfg = RunConfig()
    layers = []
    if args.config:
        try:
            with open(args.config) as handle:
                layers.append(json.load(handle))
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file {args.config}: {err}") from err
    cli_layer = {
        key: getattr(args, key)
        for key in (
            "case", "methods", "n", "mesh", "lengths", "amp", "alpha0", "radius",
            "seed", "support_radius", "freestream", "cfl", "max_iters", "timing",
            "out",
        )
        if getattr(args, key, None) is not None
    }
    layers.append(cli_layer)

    mesh_counts, mesh_lengths = (10, 10, 10), (3.2, 2.8, 2.4)
    for layer in layers:
        if "case" in layer:
            cfg.case = _parse_case(str(layer["case"]))
        if "methods" in layer:
            raw = layer["methods"]
            cfg.methods = _parse_methods(raw if isinstance(raw, str) else ",".join(raw))
        if "n" in layer:
            cfg.n_range = _parse_range(str(layer["n"]))
        if "mesh" in layer:
            mesh_counts = _parse_ints(str(layer["mesh"]), 3)
        if "lengths" in layer:
            mesh_lengths = _parse_floats(str(layer["lengths"]), 3)
        if "amp" in layer:
            amp = layer["amp"]
            cfg.amp = _parse_floats(str(amp)) if not isinstance(amp, (list, tuple)) else tuple(map(float, amp))
            if len(cfg.amp) == 1 and cfg.case != "case4":
                cfg.amp = cfg.amp * 3
        for key in ("alpha0", "radius", "support_radius", "cfl"):
            if key in layer:
                setattr(cfg, key, float(layer[key]))
        if "seed" in layer:
            cfg.seed = int(layer["seed"])
        if "max_iters" in layer:
            cfg.max_iters = int(layer["max_iters"])
        if "freestream" in layer:
            cfg.freestream = _parse_onoff(layer["freestream"])
        if "timing" in layer:
            cfg.timing = bool(layer["timing"])
        if "out" in layer:
            cfg.out = str(layer["out"])
    try:
        cfg.mesh = MeshConfig(*map(int, mesh_counts), *map(float, mesh_lengths))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad mesh configuration: {err}") from err
    return cfg


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, cfg: RunConfig, rows, stream=None) -> None:
    lines = [f"# gclkit {__version__} run"]
    mesh = cfg.mesh
    lines.append(
        f"# case={cfg.case} methods={','.join(cfg.methods)} "
        f"n={cfg.n_range[0]}..{cfg.n_range[1]} "
        f"mesh={mesh.nx},{mesh.ny},{mesh.nz} lengths={mesh.lx},{mesh.ly},{mesh.lz}"
    )
    meta = rows[0].metadata if rows else {}
    lines.append(
        "# motion: " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    )
    lines.append(
        f"# freestream={'on' if cfg.freestream else 'off'} cfl={cfg.cfl} "
        f"max_iters={cfg.max_iters} convergence_drop=1e-12 "
        f"rk_stages=0.25,0.16666666666666666,0.375,0.5,1.0 "
        f"dissipation_blend=1.0,0.56,0.44 kappa2=1 kappa4=0.03125"
    )
    lines.append(CSV_COLUMNS)
    canonical = [METHOD_ALIASES[m] for m in cfg.methods]
    rows = sorted(rows, key=lambda r: (r.n_harmonics, canonical.index(r.method)))
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.case_id,
                    r.method,
                    str(r.n_harmonics),
                    str(r.nts),
                    _fmt(r.rel_err_freestream),
                    _fmt(r.abs_err1),
                    _fmt(r.abs_err2_x),
                    _fmt(r.abs_err2_y),
                    _fmt(r.abs_err2_z),
                    _fmt(r.fd1_ref),
                    _fmt(r.fd2_ref),
                    _fmt(round(r.wall_ms, 3)),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if path is None:
        (stream or sys.stdout).write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = build_run_config(args)
        case = cfg.motion_case()
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    freestream = FreestreamOptions(
        enabled=cfg.freestream,
        state=FreestreamState(),
        cfl=cfg.cfl,
        max_iterations=cfg.max_iters,
    )
    try:
        rows = experiments.run_sweep(
            cfg.mesh,
            case,
            cfg.harmonic_range(),
            [METHOD_ALIASES[m] for m in cfg.methods],
            freestream,
            timing=cfg.timing,
        )
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateMeshError as err:
        print(f"error: degeneracy: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FreestreamDivergence as err:
        print(f"error: divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    try:
        write_csv(cfg.out, cfg, rows)
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_all(mutate_trimap=args.mutate_trimap)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}" + (f"  ({detail})" if detail else ""))
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gclkit",
        description="Face mesh velocity benchmarks on deforming hexahedral meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate methods over a harmonic sweep")
    run.add_argument("--case", help="motion case (1..5, rigid-translation, rigid-rotation)")
    run.add_argument("--methods", help="comma list: lvi,aevi,avg,trimap,ts-lvi,ts-aevi")
    run.add_argument("--n", help="harmonic range a..b (default 1..20)")
    run.add_argument("--mesh", help="cells per axis, e.g. 10,10,10")
    run.add_argument("--lengths", help="box edge lengths, e.g. 3.2,2.8,2.4")
    run.add_argument("--amp", help="motion amplitude(s); case-dependent")
    run.add_argument("--alpha0", type=float, help="rotation amplitude [rad]")
    run.add_argument("--radius", type=float, help="case-3 circle radius")
    run.add_argument("--seed", type=int, help="case-4 random seed")
    run.add_argument("--support-radius", dest="support_radius", type=float,
                     help="RBF support radius")
    run.add_argument("--freestream", help="on/off: run the uniform-flow experiment")
    run.add_argument("--cfl", type=float, help="pseudo-time CFL number")
    run.add_argument("--max-iters", dest="max_iters", type=int,
                     help="pseudo-time iteration cap")
    run.add_argument("--out", help="output CSV path (default: stdout)")
    run.add_argument("--config", help="JSON config file (flags override it)")
    run.add_argument("--timing", action="store_true", default=None,
                     help="record wall-clock per row (breaks byte-determinism)")
    run.set_defaults(handler=cmd_run)

    ver = sub.add_parser("verify", help="run the cross-module property suite")
    ver.add_argument("--mutate-trimap", type=float, default=0.0,
                     help="perturb the trilinear face flux to prove the "
                          "closure property can fail (self-test of the tester)")
    ver.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "freestream", None) is not None:
        try:
            args.freestream = _parse_onoff(args.freestream)
        except ConfigError as err:
            print(f"error: config: {err}", file=sys.stderr)
            return EXIT_CONFIG
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
