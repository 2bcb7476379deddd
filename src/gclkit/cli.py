"""Command-line front end: benchmark sweeps to CSV.

``gclkit run`` evaluates the requested IFMV methods over a harmonic sweep of
one motion case and writes one CSV row per (case, method, N), preceded by a
``#`` metadata block echoing the effective configuration.  Each run setting
is one entry of :data:`SETTINGS`, and the motion settings a case takes are
the parameters of its row of :data:`motion.CASES`.

Exit codes: 0 success, 2 configuration error, 3 degenerate mesh, 4 divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple, replace
from functools import partial

from . import __version__, experiments, flow
from .experiments import METHODS, ConfigError, MeshConfig
from .flow import FreestreamDivergence
from .hexmesh import checked_box
from .motion import CASE_IDS, CASES, DegenerateMeshError, MotionCase

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_DIVERGED = 4

CSV_COLUMNS = (  # the CSV's columns in order, each with the ErrorReport attribute it prints
    ("case", "case_id"), ("method", "method"), ("N", "n_harmonics"), ("Nts", "nts"),
    ("rel_err_freestream", "rel_err_freestream"), ("abs_err1", "abs_err1"),
    ("abs_err2_x", "abs_err2_x"), ("abs_err2_y", "abs_err2_y"), ("abs_err2_z", "abs_err2_z"),
    ("fd1_ref", "fd1_ref"), ("fd2_ref", "fd2_ref"), ("wall_ms", "wall_ms"),
)
_MESH = astuple(MeshConfig())  # a run's default cells per axis and lengths


class RunConfig:
    """One attribute per key of :data:`SETTINGS`, at its default until set."""

    def __init__(self):
        for key, (_, default, _) in SETTINGS.items():
            setattr(self, key, default)

    def motion_case(self) -> MotionCase:
        """The case's motion; a motion setting that the case ignores, or a
        value that :meth:`MotionCase.for_case` refuses, is an error."""
        defaults = CASES[self.case].params
        amp = next((p for p in defaults if p.endswith("amplitude")), None)
        settings = {"amp": (amp, self.amp)} | {  # setting -> (the parameter it sets, value)
            k: (k, getattr(self, k)) for k in ("alpha0", "radius", "seed", "support_radius")
        }
        unused = [k for k, (p, v) in settings.items() if v is not None and p not in defaults]
        if unused:
            takes = ", ".join(k for k, (p, _) in settings.items() if p in defaults)
            raise ConfigError(f"{self.case} does not use {', '.join(unused)}; it takes {takes}")
        try:
            return MotionCase.for_case(
                self.case, **{p: v for p, v in settings.values() if p in defaults}
            )
        except ValueError as err:
            raise ConfigError(str(err)) from None


def _parse_case(key: str, value) -> str:
    text = str(value).strip().lower()
    if text in CASE_IDS:
        return text
    if text.isdigit() and f"case{text}" in CASE_IDS:
        return f"case{text}"
    raise ConfigError(f"unknown case {text!r}; choose from {', '.join(CASE_IDS)}")


def _parse_methods(key: str, value) -> list[str]:
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    methods = [m.strip().lower() for m in text.split(",") if m.strip()]
    if not methods:
        raise ConfigError("at least one method is required")
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ConfigError(f"unknown methods {bad}; choose from {', '.join(METHODS)}")
    twice = sorted({m for m in methods if methods.count(m) > 1})
    if twice:
        raise ConfigError(f"methods named more than once: {twice}")
    return methods


def _parse_range(key: str, value) -> tuple[int, int]:
    text = str(value)
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


def _parse_list(key: str, value, kind=float, count: int | None = None):
    """``count`` numbers of a JSON list or comma-separated string, or if None a number or tuple."""
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    vals = tuple(_number(key, v, kind) for v in items)
    if count is None:
        return vals[0] if len(vals) == 1 else vals
    if len(vals) != count:
        raise ConfigError(f"{key} expects {count} comma-separated values, got {value!r}")
    return vals


def _parse_onoff(key: str, value) -> bool:
    if isinstance(value, bool):
        return value
    val = str(value).strip().lower()
    if val in ("on", "true", "1", "yes"):
        return True
    if val in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"expected on/off, got {value!r}")


def _parse_path(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a file path, got {value!r}")
    return value


# The settings a config file or a `gclkit run` flag may carry, in the order
# they are read: setting -> (reader taking the key and value, default, --help
# text).  A motion setting left at None takes its case's default.
SETTINGS = {
    "case": (_parse_case, "case1", f"motion case: {', '.join(CASE_IDS)} (or a case number)"),
    "methods": (
        _parse_methods, ("lvi", "aevi", "avg", "trimap"), f"comma list: {','.join(METHODS)}"
    ),
    "n": (_parse_range, (1, 20), "harmonic range a..b (default 1..20)"),
    "mesh": (partial(_parse_list, kind=int, count=3), _MESH[:3], "cells per axis, e.g. 10,10,10"),
    "lengths": (partial(_parse_list, count=3), _MESH[3:], "box edge lengths, e.g. 3.2,2.8,2.4"),
    "amp": (_parse_list, None, "motion amplitude: one value, or x,y,z for a vector"),
    "alpha0": (_number, None, "rotation amplitude [rad]"),
    "radius": (_number, None, "circle radius of the interior's orbit"),
    "seed": (partial(_number, kind=int), None, "random seed of the boundary directions"),
    "support_radius": (_number, None, "RBF support radius"),
    "freestream": (_parse_onoff, False, "on/off: run the uniform-flow experiment"),
    "timing": (_parse_onoff, False, "record wall-clock per row (breaks byte-determinism)"),
    "out": (_parse_path, None, "output CSV path (default: stdout)"),
}


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values and CLI flags (flags win)."""
    layers = []
    if args.config:
        try:
            with open(args.config) as handle:
                file_layer = json.load(handle)
        except (OSError, ValueError, RecursionError) as err:  # ValueError: JSON or UTF-8
            raise ConfigError(f"cannot read config file {args.config}: {err}") from err
        if not isinstance(file_layer, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(file_layer) - set(SETTINGS))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; choose from {', '.join(SETTINGS)}")
        layers.append(file_layer)
    layers.append({key: getattr(args, key) for key in SETTINGS if getattr(args, key) is not None})
    cfg = RunConfig()
    for layer in layers:
        for key, (read, _, _) in SETTINGS.items():
            if key in layer:
                setattr(cfg, key, read(key, layer[key]))
    try:
        checked_box(cfg.mesh, cfg.lengths)  # before any work
    except ValueError as err:
        raise ConfigError(str(err)) from None
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
    lines.append(
        f"# case={cfg.case} methods={','.join(cfg.methods)} n={cfg.n[0]}..{cfg.n[1]} "
        f"mesh={','.join(map(str, cfg.mesh))} lengths={','.join(map(str, cfg.lengths))}"
    )
    meta = rows[0].metadata if rows else {}
    lines.append("# motion: " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    lines.append(
        f"# freestream={'on' if cfg.freestream else 'off'} "
        f"precond_dissipation={flow.PRECONDITIONER_DISSIPATION:g} max_iters={flow.NEWTON_MAX} "
        f"convergence_drop={flow.CONVERGENCE_DROP:g} "
        f"krylov_restart={flow.KRYLOV_RESTART} krylov_max={flow.KRYLOV_MAX} "
        f"forcing={flow.FORCING_GAMMA:g},{flow.FORCING_ALPHA:g},{flow.FORCING_MAX:g} "
        f"kappa2={flow.KAPPA2:g} kappa4={flow.KAPPA4:g}"
    )
    lines.append(",".join(column for column, _ in CSV_COLUMNS))
    for r in rows:
        r = replace(r, wall_ms=round(r.wall_ms, 3))
        lines.append(",".join(_fmt(getattr(r, attr)) for _, attr in CSV_COLUMNS))
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
            MeshConfig(*cfg.mesh, *cfg.lengths),
            cfg.motion_case(),
            list(range(cfg.n[0], cfg.n[1] + 1)),
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
    for key, (_, _, text) in SETTINGS.items():
        # --timing takes no value
        flag = {"action": "store_true", "default": None} if key == "timing" else {}
        run.add_argument("--" + key.replace("_", "-"), help=text, **flag)
    run.add_argument("--config", help="JSON config file (flags override it)")
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
