"""Command-line interface.

Subcommands
-----------
run          run one study from a JSON config file (plus overrides)
case1        smooth-solution convergence studies (p = 1.5 and p = 3.0,
             uniform refinement) with a rates summary
case2        singular corner load at p = 1.5 under one of three
             refinement strategies
rates        fit log-log slopes from an existing records CSV
export-mesh  write SVG/VTK snapshots of (refined) structured meshes

Bad input (a config value, an option, a malformed file, an output
directory that cannot be created, a load center x0 on a quadrature
point, a problem too large for memory) ends with a one-line error
message and exit code 2.  All numeric output is deterministic for
identical invocations except the wall-clock column of the records CSV,
also where a uniform cold-start study solves its finest level on a
helper thread while the coarser levels run.  Thread count of the
underlying linear algebra follows the usual environment variables
(OMP_NUM_THREADS and friends).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

from .driver import ProblemConfig, run_study
from .estimate import EstimateError, StudyRecord, fit_rate
from .forms import FormsError
from .mesh import MeshError, export_svg, export_vtk, refine_uniform, unit_square_mesh
from .newton import SolverOptions


class ConfigError(ValueError):
    """Configuration problem with the offending field in the message."""


def config_from_dict(raw: dict, source: str = "<config>") -> ProblemConfig:
    """Validate a raw mapping into a ProblemConfig, failing fast per field."""
    known = {f.name for f in dataclass_fields(ProblemConfig)}
    solver_known = {f.name for f in dataclass_fields(SolverOptions)}
    kwargs = {}
    solver_kwargs = {}
    for key, value in raw.items():
        if key == "solver":
            if not isinstance(value, dict):
                raise ConfigError(f"{source}: field 'solver' must be an object")
            for skey, svalue in value.items():
                if skey not in solver_known:
                    raise ConfigError(f"{source}: unknown solver field {skey!r}")
                solver_kwargs[skey] = svalue
        elif key in known:
            kwargs[key] = value
        else:
            raise ConfigError(f"{source}: unknown field {key!r}")
    if isinstance(kwargs.get("x0"), list):
        kwargs["x0"] = tuple(kwargs["x0"])
    try:
        kwargs["solver"] = SolverOptions(**solver_kwargs)
        return ProblemConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _write_rates_summary(path: Path, runs: dict[str, list], window: int):
    summary = {}
    for name, records in runs.items():
        entry = {"levels": len(records), "window": window,
                 "reference_slope": -0.5}
        try:
            entry["slope_error"] = fit_rate(records, "error", window)
            entry["slope_eta"] = fit_rate(records, "eta", window)
            entry["slope_gap"] = abs(entry["slope_error"] - entry["slope_eta"])
        except EstimateError as exc:
            entry["note"] = str(exc)
        entry["newton_totals"] = [r.newton_total for r in records]
        summary[name] = entry
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return summary


def _given(**options) -> dict:
    """The options that were given on the command line."""
    return {key: value for key, value in options.items() if value is not None}


def cmd_run(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{args.config}: malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object")
    raw.update(_given(p_target=args.p, max_levels=args.levels,
                      output_dir=args.out))
    cfg = config_from_dict(raw, source=args.config)
    records = run_study(cfg)
    for rec in records:
        print(rec.csv_row())
    return 0 if len(records) == cfg.max_levels else 1


def cmd_case1(args) -> int:
    out = Path(args.out)
    configs = [config_from_dict(
        {"p_target": p, "sigma": args.sigma, "x0": (-1.0, -1.0),
         "initial_n": args.initial_n, "strategy": "uniform",
         "max_levels": args.levels, "output_dir": str(out / f"case1_p{p:g}")},
        source="case1") for p in args.p]
    out.mkdir(parents=True, exist_ok=True)
    runs = {}
    ok = True
    for cfg in configs:
        p = cfg.p_target
        records = run_study(cfg)
        runs[f"p={p:g}"] = records
        ok = ok and len(records) == cfg.max_levels
        print(f"case1 p={p:g}: {len(records)}/{cfg.max_levels} levels, "
              f"newton totals {[r.newton_total for r in records]}")
    window = min(3, min(len(r) for r in runs.values()) or 1)
    summary = _write_rates_summary(out / "rates_summary.json", runs, window)
    for name, entry in summary.items():
        if "slope_error" in entry:
            print(f"  {name}: slope(error) = {entry['slope_error']:+.3f}, "
                  f"slope(eta) = {entry['slope_eta']:+.3f} "
                  f"(reference -0.5)")
    return 0 if ok else 1


CASE2_DEFAULTS = {
    "uniform": dict(strategy="uniform", initial_n=2, max_levels=6),
    "pre_adapted": dict(strategy="pre_adapted_then_uniform", initial_n=8,
                        max_levels=4),
    "adaptive": dict(strategy="adaptive", initial_n=16, max_levels=13),
}


def cmd_case2(args) -> int:
    out = Path(args.out)
    cfg = config_from_dict({
        "p_target": args.p, "sigma": args.sigma, "x0": (0.0, 0.0),
        "theta": args.theta, **CASE2_DEFAULTS[args.strategy],
        **_given(initial_n=args.initial_n, max_levels=args.steps),
        "output_dir": str(out / f"case2_{args.strategy}")}, source="case2")
    out.mkdir(parents=True, exist_ok=True)
    records = run_study(cfg)
    print(f"case2 {args.strategy}: {len(records)}/{cfg.max_levels} steps, "
          f"newton totals {[r.newton_total for r in records]}")
    window = min(4, len(records))
    summary = _write_rates_summary(out / f"rates_{args.strategy}.json",
                                   {args.strategy: records}, window)
    entry = summary[args.strategy]
    if "slope_error" in entry:
        print(f"  slope(error) = {entry['slope_error']:+.3f}, "
              f"slope(eta) = {entry['slope_eta']:+.3f}, "
              f"gap = {entry['slope_gap']:.3f}")
    return 0 if len(records) == cfg.max_levels else 1


def cmd_rates(args) -> int:
    path = Path(args.csv)
    try:
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        if not lines or lines[0] != StudyRecord.CSV_HEADER:
            raise ValueError("unexpected CSV header")
        records = [StudyRecord.from_csv_row(line) for line in lines[1:]]
        slopes = {quantity: fit_rate(records, quantity, args.window)
                  for quantity in ("error", "eta")}
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for quantity, slope in slopes.items():
        print(f"slope({quantity}) over last {args.window} levels: {slope:+.4f}")
    return 0


def cmd_export_mesh(args) -> int:
    if args.refine < 0:
        raise ConfigError("--refine must be >= 0")
    option = f"--n {args.n}"
    try:
        mesh = unit_square_mesh(args.n)
        option = f"--refine {args.refine}"
        for _ in range(args.refine):
            mesh = refine_uniform(mesh)
    except MeshError as exc:
        raise ConfigError(f"{option}: {exc}") from exc
    except MemoryError as exc:
        raise ConfigError(f"{option}: the mesh does not fit in "
                          "memory") from exc
    path = Path(args.out)
    if args.format == "svg":
        export_svg(mesh, path)
    else:
        export_vtk(mesh, path)
    print(f"wrote {path} ({mesh.n_triangles} triangles)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapminres",
        description="Adaptive residual-minimization solver for the 2D "
                    "p-Laplacian benchmark problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one study from a JSON config")
    run_p.add_argument("--config", required=True, help="path to JSON config")
    run_p.add_argument("--p", type=float, default=None,
                       help="override p_target")
    run_p.add_argument("--levels", type=int, default=None,
                       help="override max_levels")
    run_p.add_argument("--out", default=None, help="override output_dir")
    run_p.set_defaults(func=cmd_run)

    c1 = sub.add_parser("case1", help="smooth-solution uniform studies")
    c1.add_argument("--p", type=float, nargs="+", default=[1.5, 3.0])
    c1.add_argument("--sigma", type=float, default=0.97)
    c1.add_argument("--levels", type=int, default=6)
    c1.add_argument("--initial-n", dest="initial_n", type=int, default=2)
    c1.add_argument("--out", default="out/case1")
    c1.set_defaults(func=cmd_case1)

    c2 = sub.add_parser("case2", help="singular corner-load study")
    c2.add_argument("--strategy", choices=sorted(CASE2_DEFAULTS),
                    default="adaptive")
    c2.add_argument("--p", type=float, default=1.5)
    c2.add_argument("--sigma", type=float, default=0.97)
    c2.add_argument("--theta", type=float, default=0.5)
    c2.add_argument("--steps", type=int, default=None,
                    help="number of refinement steps (strategy default "
                         "otherwise)")
    c2.add_argument("--initial-n", dest="initial_n", type=int, default=None)
    c2.add_argument("--out", default="out/case2")
    c2.set_defaults(func=cmd_case2)

    rt = sub.add_parser("rates", help="fit slopes from a records CSV")
    rt.add_argument("--csv", required=True)
    rt.add_argument("--window", type=int, default=3)
    rt.set_defaults(func=cmd_rates)

    ex = sub.add_parser("export-mesh", help="write a mesh snapshot")
    ex.add_argument("--n", type=int, default=2)
    ex.add_argument("--refine", type=int, default=0)
    ex.add_argument("--format", choices=("svg", "vtk"), default="svg")
    ex.add_argument("--out", required=True)
    ex.set_defaults(func=cmd_export_mesh)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormsError, EstimateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # numpy names the allocation
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
