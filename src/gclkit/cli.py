"""Command-line front end: benchmark sweeps to CSV.

``gclkit run`` evaluates the requested IFMV methods over a harmonic sweep of
one motion case and writes one CSV row per (case, method, N), preceded by a
``#`` metadata block echoing the effective configuration.

Exit codes: 0 success, 2 configuration error, 3 degenerate mesh, 4 divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from . import __version__, experiments, flow
from .experiments import METHODS, ConfigError, MeshConfig
from .flow import FreestreamDivergence
from .motion import CASE_IDS, DegenerateMeshError, MotionCase, case_parameters

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_DIVERGED = 4

CSV_COLUMNS = (
    "case,method,N,Nts,rel_err_freestream,abs_err1,"
    "abs_err2_x,abs_err2_y,abs_err2_z,fd1_ref,fd2_ref,wall_ms"
)

# Settings a config file or the command line may carry.
CONFIG_KEYS = (
    "case", "methods", "n", "mesh", "lengths", "amp", "alpha0", "radius",
    "seed", "support_radius", "freestream", "timing", "out",
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
    timing: bool = False
    out: str | None = None

    def harmonic_range(self) -> list[int]:
        lo, hi = self.n_range
        return list(range(lo, hi + 1))

    def motion_case(self) -> MotionCase:
        """The case's motion; a motion setting that the case ignores is an error."""
        # one amp value is the same amplitude along x, y and z
        amp = self.amp if self.amp is None or len(self.amp) == 3 else self.amp[0]
        settings = {  # setting -> (the MotionCase parameter it sets, value)
            "amp": ("rbf_amplitude" if self.case == "case4" else "amplitude", amp),
            "alpha0": ("alpha0", self.alpha0),
            "radius": ("radius", self.radius),
            "seed": ("seed", self.seed),
            "support_radius": ("support_radius", self.support_radius),
        }
        used = case_parameters(self.case)
        unused = [k for k, (p, v) in settings.items() if v is not None and p not in used]
        if unused:
            takes = ", ".join(k for k, (p, _) in settings.items() if p in used)
            raise ConfigError(
                f"{self.case} does not use {', '.join(unused)}; it takes {takes}"
            )
        return MotionCase.for_case(self.case, **dict(settings.values()))


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
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ConfigError(
            f"unknown methods {bad}; choose from {', '.join(METHODS)}"
        )
    twice = sorted({m for m in methods if methods.count(m) > 1})
    if twice:
        raise ConfigError(f"methods named more than once: {twice}")
    return methods


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..") if ".." in text else [text, text]
    try:
        lo, hi = map(int, parts)  # ValueError unless exactly two parts
    except ValueError as err:
        raise ConfigError(f"bad harmonic range {text!r}; expected 'a..b'") from err
    if not (1 <= lo <= hi <= 64):
        raise ConfigError(f"harmonic range must satisfy 1 <= a <= b <= 64, got {text!r}")
    return lo, hi


def _number(key: str, value, kind=float):
    try:
        if isinstance(value, bool):  # a JSON true or false is not a number
            raise TypeError("a boolean")
        number = kind(value)
        if kind is int and number != float(value):
            raise ValueError("not an integer")  # int() would truncate 42.7
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    return number


def _parse_list(key: str, value, kind=float, count: int | None = None) -> tuple:
    """A JSON list or a comma-separated string of numbers."""
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    vals = tuple(_number(key, v, kind) for v in items)
    if count is not None and len(vals) != count:
        raise ConfigError(f"{key} expects {count} comma-separated values, got {value!r}")
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
                file_layer = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file {args.config}: {err}") from err
        if not isinstance(file_layer, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(file_layer) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(
                f"unknown config keys {unknown}; choose from {', '.join(CONFIG_KEYS)}"
            )
        layers.append(file_layer)
    cli_layer = {
        key: getattr(args, key)
        for key in CONFIG_KEYS
        if getattr(args, key, None) is not None
    }
    layers.append(cli_layer)

    mesh_counts = (cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.nz)
    mesh_lengths = (cfg.mesh.lx, cfg.mesh.ly, cfg.mesh.lz)
    for layer in layers:
        if "case" in layer:
            cfg.case = _parse_case(str(layer["case"]))
        if "methods" in layer:
            raw = layer["methods"]
            raw = ",".join(map(str, raw)) if isinstance(raw, list) else str(raw)
            cfg.methods = _parse_methods(raw)
        if "n" in layer:
            cfg.n_range = _parse_range(str(layer["n"]))
        if "mesh" in layer:
            mesh_counts = _parse_list("mesh", layer["mesh"], int, 3)
        if "lengths" in layer:
            mesh_lengths = _parse_list("lengths", layer["lengths"], float, 3)
        if "amp" in layer:
            cfg.amp = _parse_list("amp", layer["amp"])
        for key in ("alpha0", "radius", "support_radius"):
            if key in layer:
                setattr(cfg, key, _number(key, layer[key]))
        if "seed" in layer:
            cfg.seed = _number("seed", layer["seed"], int)
        if "freestream" in layer:
            cfg.freestream = _parse_onoff(layer["freestream"])
        if "timing" in layer:
            cfg.timing = _parse_onoff(layer["timing"])
        if "out" in layer:
            if not isinstance(layer["out"], str):
                raise ConfigError(f"out must be a file path, got {layer['out']!r}")
            cfg.out = layer["out"]
    counts = (1,) if cfg.case == "case4" else (1, 3)
    if cfg.amp is not None and len(cfg.amp) not in counts:
        raise ConfigError(
            f"the number of amp values for {cfg.case} must be "
            f"{' or '.join(map(str, counts))}, got {len(cfg.amp)}"
        )
    if min(mesh_counts) < 1 or not all(length > 0.0 for length in mesh_lengths):
        raise ConfigError(f"mesh sizes must be positive, got {mesh_counts} {mesh_lengths}")
    if cfg.seed is not None and cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.support_radius is not None and not cfg.support_radius > 0.0:
        raise ConfigError(f"support radius must be positive, got {cfg.support_radius}")
    cfg.mesh = MeshConfig(*mesh_counts, *mesh_lengths)
    return cfg


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, cfg: RunConfig, rows) -> None:
    """The run's CSV, rows in the order given, to ``path`` or to stdout if None."""
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
        f"# freestream={'on' if cfg.freestream else 'off'} "
        f"precond_dissipation={flow.PRECONDITIONER_DISSIPATION:g} max_iters={flow.NEWTON_MAX} "
        f"convergence_drop={flow.CONVERGENCE_DROP:g} "
        f"krylov_restart={flow.KRYLOV_RESTART} krylov_max={flow.KRYLOV_MAX} "
        f"forcing={flow.FORCING_GAMMA:g},{flow.FORCING_ALPHA:g},{flow.FORCING_MAX:g} "
        f"kappa2={flow.KAPPA2:g} kappa4={flow.KAPPA4:g}"
    )
    lines.append(CSV_COLUMNS)
    for r in rows:
        values = (
            r.case_id, r.method, r.n_harmonics, r.nts, r.rel_err_freestream, r.abs_err1,
            r.abs_err2_x, r.abs_err2_y, r.abs_err2_z, r.fd1_ref, r.fd2_ref, round(r.wall_ms, 3),
        )
        lines.append(",".join(map(_fmt, values)))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = build_run_config(args)
        rows = experiments.run_sweep(
            cfg.mesh,
            cfg.motion_case(),
            cfg.harmonic_range(),
            [METHODS[m][0] for m in cfg.methods],
            cfg.freestream,
            timing=cfg.timing,
        )
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


class _Parser(argparse.ArgumentParser):
    """argparse that raises each usage error as a one-line :class:`ConfigError`."""

    def error(self, message):
        raise ConfigError(" ".join(message.splitlines()))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gclkit",
        description="Face mesh velocity benchmarks on deforming hexahedral meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate methods over a harmonic sweep")
    run.add_argument("--case", help="motion case (1..5, rigid-translation, rigid-rotation)")
    run.add_argument("--methods", help=f"comma list: {','.join(METHODS)}")
    run.add_argument("--n", help="harmonic range a..b (default 1..20)")
    run.add_argument("--mesh", help="cells per axis, e.g. 10,10,10")
    run.add_argument("--lengths", help="box edge lengths, e.g. 3.2,2.8,2.4")
    run.add_argument("--amp", help="motion amplitude(s); case-dependent")
    run.add_argument("--alpha0", help="rotation amplitude [rad]")
    run.add_argument("--radius", help="case-3 circle radius")
    run.add_argument("--seed", help="case-4 random seed")
    run.add_argument("--support-radius", dest="support_radius", help="RBF support radius")
    run.add_argument("--freestream", help="on/off: run the uniform-flow experiment")
    run.add_argument("--out", help="output CSV path (default: stdout)")
    run.add_argument("--config", help="JSON config file (flags override it)")
    run.add_argument("--timing", action="store_true", default=None,
                     help="record wall-clock per row (breaks byte-determinism)")
    run.set_defaults(handler=cmd_run)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
