"""Command-line front end.

Five subcommands: params, sweep, chsh, region, verify.  Output files are
deterministic byte-for-byte for identical invocations, at any --workers
(sweep, chsh and verify).  Floats are printed as their shortest round-trip
decimal, booleans as true/false, CSV with LF line endings; CSV and JSON
rows are the fields of the result dataclasses, in field order.  Exit codes:
0 success, 1 gate or check failure, 2 usage, infeasible input or an output
file that cannot be written (one error: line on stderr), 3 inconclusive (a
sweep row or CHSH setting had no coincidences, so the gate could not test
it; no tested row failed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analytic import STANDARD_CHSH_ANGLES, ChshAngles, max_visibility
from .errors import DegeneratePoint, InfeasibleParameters, InvalidConfig, SingletLhvError
from .errors import _check_int
from .experiments import chsh_experiment, region_scan, sweep_gate, theta_sweep, verify_suite
from .model import ModelParams, PatternKind, solve_params
from .montecarlo import DEFAULT_CHUNK_SIZE

_MODEL_NAMES = {
    "sin": PatternKind.SYMMETRIZED_SINUSOIDAL,
    "line": PatternKind.SYMMETRIZED_STAIRCASE,
    "unsym": PatternKind.UNSYMMETRIZED_SINUSOIDAL,
}

#: Exit status of a sweep or CHSH run whose gate could not test every row.
EXIT_INCONCLUSIVE = 3


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _render(args, seed, params: ModelParams | None, rows, extra=None) -> str:
    """rows (dicts in field order) as CSV text or as a JSON document, by --format."""
    if args.format == "csv":
        lines = [",".join(rows[0])]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row.values()))
        return "\n".join(lines) + "\n"
    # Every command that takes a pattern samples it in default-size chunks;
    # region takes none and samples nothing.
    meta = {
        "command": args.command,
        "version": __version__,
        "numpy": np.__version__,
        "seed": seed,
        "chunk_size": None if params is None else DEFAULT_CHUNK_SIZE,
        "params": None if params is None else {
            "kind": params.kind.value, "eta": params.eta, "v": params.v,
            "a": params.a, "b": params.b, "c": params.c,
        },
    }
    doc = {"meta": meta, "rows": [
        {k: _jsonable(v) for k, v in row.items()} for row in rows
    ]}
    if extra:
        doc.update({k: _jsonable(v) for k, v in extra.items()})
    return json.dumps(doc, indent=2) + "\n"


def _check_out(path: str) -> None:
    """Fail before any sampling if path cannot be written.

    Nothing is created or truncated, so a run that fails later leaves an
    existing file as it was.
    """
    parent = os.path.dirname(path) or "."
    if os.path.exists(path):
        ok = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        ok = bool(path) and os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)
    if not ok:
        raise InvalidConfig(f"cannot write --out {path!r}")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _solve_from_args(args) -> ModelParams:
    return solve_params(args.eta, args.vis, _MODEL_NAMES[args.model])


def _applicable_bound(eta: float, kind: PatternKind) -> float:
    if eta == 0.0:
        return 1.0
    return max_visibility(eta, kind)


def cmd_params(args) -> int:
    kind = _MODEL_NAMES[args.model]
    print(f"eta = {_fmt(float(args.eta))}")
    print(f"v = {_fmt(float(args.vis))}")
    print(f"model = {args.model}")
    try:
        params = _solve_from_args(args)
    except (InfeasibleParameters, DegeneratePoint) as exc:
        if 0.0 < args.eta <= 1.0:
            print(f"max_visibility = {_fmt(_applicable_bound(args.eta, kind))}")
        print("feasible = false")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"a = {_fmt(params.a)}")
    print(f"b = {_fmt(params.b)}")
    print(f"c = {_fmt(params.c)}")
    print(f"max_visibility = {_fmt(_applicable_bound(params.eta, kind))}")
    print("feasible = true")
    return 0


def cmd_sweep(args) -> int:
    _check_out(args.out)
    params = _solve_from_args(args)
    rows = theta_sweep(
        params, n_steps=args.steps, pairs_per_step=args.pairs, seed=args.seed,
        workers=args.workers,
    )
    gate = sweep_gate(rows, params)
    _write(args.out, _render(args, args.seed, params, [vars(row) for row in rows]))
    if gate.passed:
        verdict, status = "pass at 5 sigma", 0
    elif gate.inconclusive:
        empty = sum(math.isnan(row.corr_mc) for row in rows)
        verdict = f"inconclusive, {empty} of {len(rows)} rows had no coincidences"
        status = EXIT_INCONCLUSIVE
    else:
        verdict, status = "FAIL at 5 sigma", 1
    print(
        f"max |corr_mc - corr| = {_fmt(gate.max_abs_deviation)} "
        f"({verdict}, worst {_fmt(gate.max_sigma)})"
    )
    return status


def _parse_angles(spec: str, degrees: bool) -> ChshAngles:
    parts = spec.split(",")
    if len(parts) != 4:
        raise InvalidConfig(f"--angles needs four comma-separated values, got {spec!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidConfig(f"bad angle in {spec!r}") from exc
    if degrees:
        vals = [math.radians(x) for x in vals]
    return ChshAngles(*vals)


def cmd_chsh(args) -> int:
    params = _solve_from_args(args)
    if args.angles is None:
        angles = STANDARD_CHSH_ANGLES
        if args.degrees:
            raise InvalidConfig("--degrees requires --angles")
    else:
        angles = _parse_angles(args.angles, args.degrees)
    report = chsh_experiment(
        params, angles=angles, pairs_per_setting=args.pairs, seed=args.seed,
        workers=args.workers,
    )
    totals = {
        k: v for k, v in vars(report).items() if k not in ("angles", "settings")
    }
    rows = [{**vars(s), **totals} for s in report.settings]
    sys.stdout.write(_render(args, args.seed, params, rows, extra=totals))
    if math.isnan(report.s_mc):
        return EXIT_INCONCLUSIVE
    return 1 if report.violated_mc else 0


def cmd_region(args) -> int:
    _check_out(args.out)
    verdicts = region_scan(eta_steps=args.eta_steps, v_steps=args.vis_steps)
    rows = [vars(v) for v in verdicts]
    _write(args.out, _render(args, None, None, rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_verify(args) -> int:
    report = verify_suite(pairs_budget=args.pairs, seed=args.seed, workers=args.workers)
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        line = (
            f"{status} {c.name:<{width}} "
            f"deviation={_fmt(c.deviation)} threshold={_fmt(c.threshold)}"
        )
        if c.note:
            line += f" ({c.note})"
        print(line)
    n = len(report.checks)
    if report.passed:
        print(f"all {n} checks passed")
        return 0
    print(f"{report.n_failed} of {n} checks FAILED")
    return 1


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, required=True, help="detector efficiency in [0, 1]")
    p.add_argument("--vis", type=float, required=True, help="visibility in [0, 1]")
    p.add_argument(
        "--model", choices=sorted(_MODEL_NAMES), default="sin",
        help="pattern kind (default: sin)",
    )


def _worker_count(text: str) -> int:
    # InvalidConfig, unlike ValueError, passes through argparse to main's one error: line.
    try:
        value = int(text)
    except ValueError:
        value = text
    return _check_int("--workers", value)


def _add_run_flags(p: argparse.ArgumentParser, pairs_default: int) -> None:
    p.add_argument("--pairs", type=int, default=pairs_default,
                   help=f"pairs per run (default: {pairs_default})")
    p.add_argument("--seed", type=int, default=42, help="master seed (default: 42)")
    p.add_argument("--workers", type=_worker_count, default=None,
                   help="sampling workers: the caller's thread plus N - 1 pool "
                        "threads, dealt the chunks of all runs in turn; results "
                        "do not depend on it (default: serial)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlet-lhv",
        description="Local hidden-variable singlet simulator and analyzer",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="solve and print pattern parameters")
    _add_model_flags(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("sweep", help="Monte Carlo theta sweep vs the closed form")
    _add_model_flags(p)
    p.add_argument("--steps", type=int, default=25, help="theta grid size (default: 25)")
    _add_run_flags(p, 1_000_000)
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("chsh", help="four-setting CHSH run against 4/eta - 2")
    _add_model_flags(p)
    _add_run_flags(p, 1_000_000)
    p.add_argument("--angles", default=None,
                   help="four comma-separated settings a,b,c,d (default: 0,pi/2,pi/4,3pi/4)")
    p.add_argument("--degrees", action="store_true",
                   help="interpret --angles in degrees instead of radians")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("region", help="classify an (eta, v) grid")
    p.add_argument("--eta-steps", type=int, required=True, help="efficiency grid size")
    p.add_argument("--vis-steps", type=int, required=True, help="visibility grid size")
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("verify", help="run the full verification suite")
    _add_run_flags(p, 1_000_000)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SingletLhvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
