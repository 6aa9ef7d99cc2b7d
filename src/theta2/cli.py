"""Command-line front end: catalog derivation, verification suites, the
structure pipeline.  Reports are JSON with a fixed schema; exit code 0
means every check passed, 1 a report whose status is "fail", 2 a usage,
internal, derivation or evaluation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import inf
from typing import Iterator

from . import thetaring
from .errors import DerivationError, EvaluationError
from .groebner import FIELDS
from .thetaring import (
    GRADIENT_MODULE_SERIES,
    StructurePipeline,
    all_relations,
    catalog_json,
    bracket_modules,
)

SCHEMA = 1


def _manifest(args: argparse.Namespace, command: str) -> dict:
    return {
        "command": command,
        "seed": args.seed,
        "points": args.points,
        "radius": args.radius,
        "eps": args.eps,
        "coeff_mode": args.coeff_mode,
        "cache_dir": args.cache_dir,
        "jobs": args.jobs,
    }


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


# numerics (and numpy) is imported only by the suites that evaluate theta
# series: a catalog, the kernel suites and the structure run never need it
def _cfg(args) -> numerics.EvalConfig:
    from . import numerics

    return numerics.EvalConfig(radius=args.radius, target_eps=args.eps)


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _point_tables(seed: int, count: int,
                  cfg: numerics.EvalConfig) -> tuple[numerics.PointValues, ...]:
    """The sample points' value tables, which the numeric and brackets
    suites both read: verify all computes them once."""
    from . import numerics

    return tuple(numerics.point_values(Z, cfg) for Z in numerics.sample_siegel(seed, count))


def _suite_numeric(args) -> list[dict]:
    from . import numerics

    cfg = _cfg(args)
    tables = _point_tables(args.seed, args.points, cfg)
    stack = numerics.stack_values(tables)
    checks = []

    groups = [("riemann-quartics", [("", q) for q in thetaring.riemann_ideal()], 1e-9)]
    rels = all_relations()
    for kind in ("RelD", "ExtrA", "ExtrB"):
        groups.append((f"relations-{kind.lower()}",
                       [(str(r.indices), r.element) for r in rels if r.kind == kind],
                       1e-9))
    for name, items, tol in groups:
        worst = 0.0
        for _, e in items:
            worst = max(worst, float(numerics.stacked_residuals(e, stack).max()))
        checks.append({
            "name": name,
            "count": len(items),
            "max_relative_residual": worst,
            "tolerance": tol,
            "status": "pass" if worst < tol else "fail",
        })

    ratios = numerics.dtable_ratios(tables)
    worst_dev = 0.0
    sign_ok = True
    for entry in thetaring.d_table():
        dev = float(max(abs(r - entry.sign) for r in ratios[entry.pair]))
        worst_dev = max(worst_dev, dev)
        if dev > 1e-8:
            sign_ok = False
    checks.append({
        "name": "determinant-table",
        "max_deviation_from_sign": worst_dev,
        "tolerance": 1e-8,
        "orientation": "det(grad_j, grad_i) = sign * pi^2 * product for i < j; "
                       "the (i, j) column order carries the opposite global sign",
        "first_entry_normalization": "pi^2; the reciprocal power sometimes "
                                     "printed with the first entry is a misprint",
        "status": "pass" if sign_ok else "fail",
    })

    # truncation self-consistency at a stricter radius
    cfg_hi = numerics.EvalConfig(radius=cfg.radius + 4, target_eps=cfg.target_eps)
    worst = 0.0
    for table in tables[:3]:
        hi = numerics.theta_values(table.point, cfg_hi)
        for lo_value, hi_value in zip(table.thetas.tolist(), hi.tolist()):
            worst = max(worst, abs(lo_value - hi_value))
    checks.append({
        "name": "radius-self-consistency",
        "max_difference": worst,
        "tolerance": cfg.target_eps,
        "status": "pass" if worst < cfg.target_eps else "fail",
    })
    return checks


def _pipelines(args) -> Iterator[StructurePipeline]:
    """One pipeline per field, made when read: a structure run drops each
    prime's bases after its report.  Dual-mode primes read one exact pass."""
    exact = StructurePipeline(thetaring.UnitWitness()) if args.coeff_mode == "dual" else None
    modes = ("p1", "p2") if exact else (args.coeff_mode,)
    return (StructurePipeline(FIELDS[m], args.cache_dir, exact) for m in modes)


def _fields_agree(reports: list[dict], key: str) -> bool:
    return all(r[key] == reports[0][key] for r in reports)


def _suite_brackets(args) -> list[dict]:
    from . import numerics

    cfg = _cfg(args)
    rep = numerics.second_kind_checks(_point_tables(args.seed, args.points, cfg), cfg)
    # the bracket and triple-bracket identities hold for any values and
    # derivatives: they check the bracket arithmetic, not the theta constants
    checks = [
        {
            "name": "jacobian-ratio-constant",
            "constant": [rep["jacobian_constant"].real, rep["jacobian_constant"].imag],
            "relative_spread": rep["jacobian_rel_spread"],
            "tolerance": 1e-6,
            "convention": rep["derivative_convention"],
            "status": "pass" if rep["jacobian_rel_spread"] < 1e-6 else "fail",
        },
        {
            "name": "bracket-identity",
            "kind": "arithmetic-self-check",
            "max_residual": rep["bracket_max_residual"],
            "tolerance": 1e-7,
            "status": "pass" if rep["bracket_max_residual"] < 1e-7 else "fail",
        },
        {
            "name": "triple-bracket-identity",
            "kind": "arithmetic-self-check",
            "max_residual": rep["triple_max_residual"],
            "tolerance": 1e-7,
            "status": "pass" if rep["triple_max_residual"] < 1e-7 else "fail",
        },
    ]
    wm = bracket_modules()
    plus_dims = wm["plus"]["dimensions"]
    minus_dims = wm["minus"]["dimensions"]
    checks.append({
        "name": "bracket-module-series",
        "plus_series": wm["plus"]["series"].reduced().to_text(),
        "plus_dimensions": plus_dims,
        "minus_series": wm["minus"]["series"].reduced().to_text(),
        "minus_dimensions": minus_dims,
        "status": "pass" if (plus_dims[2] == 6 and minus_dims[5] == 4
                             and minus_dims[6] == 15) else "fail",
    })
    return checks


# None marks a per-field suite: its checks are StructurePipeline.<name>_report()
SUITES = {"numeric": _suite_numeric, "kernel": None, "allrel": None, "brackets": _suite_brackets}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks, pipes = [], []
    for n in names:
        if SUITES[n] is not None:
            checks.extend(SUITES[n](args))
            continue
        pipes = pipes or list(_pipelines(args))
        reports = [getattr(pipe, f"{n}_report")() for pipe in pipes]
        checks.extend(reports)
        if n == "allrel" and len(reports) > 1:
            checks.append({
                "name": "cross-field-agreement",
                "status": "pass" if _fields_agree(reports, "fingerprint") else "fail",
            })
    failed = [c["name"] for c in checks if c["status"] != "pass"]
    report = {
        "schema": SCHEMA,
        "manifest": _manifest(args, f"verify {args.suite}"),
        "checks": checks,
        "status": "fail" if failed else "pass",
        "first_failure": failed[0] if failed else None,
    }
    _emit(report, args.out)
    return 1 if failed else 0


def cmd_catalog(args) -> int:
    data = catalog_json(args.which)
    report = {
        "schema": SCHEMA,
        "manifest": _manifest(args, f"catalog {args.which}"),
        "catalog": args.which,
        "data": data,
        "status": "pass",
    }
    _emit(report, args.out)
    return 0


def cmd_structure(args) -> int:
    reports = [pipe.structure_report() for pipe in _pipelines(args)]
    agreement = _fields_agree(reports, "fingerprints")
    ok = agreement and all(r["status"] == "pass" for r in reports)
    report = {
        "schema": SCHEMA,
        "manifest": _manifest(args, "structure"),
        "expected_series": GRADIENT_MODULE_SERIES.to_text(),
        "expected_coefficients_t1_t8": GRADIENT_MODULE_SERIES.expand(8)[1:],
        "runs": reports,
        "cross_field_agreement": agreement,
        "status": "pass" if ok else "fail",
    }
    _emit(report, args.out)
    if ok:
        return 0
    first = next((r for r in reports if r["status"] != "pass"), {"field": "cross-field"})
    print(f"mismatch in run: {first['field']}", file=sys.stderr)
    return 1


_FLAG_DEFAULTS = {
    "seed": 0,
    "points": 10,
    "radius": 10,
    "eps": 1e-12,
    "coeff_mode": "dual",
    "cache_dir": None,
    "jobs": 1,
    "out": None,
}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < inf:
        raise argparse.ArgumentTypeError(f"must be finite and greater than 0, got {value}")
    return value


def _add_common_flags(ap: argparse.ArgumentParser, suppress: bool) -> None:
    # flags are accepted both before and after the subcommand; the
    # subcommand copy suppresses defaults so it never clobbers earlier values
    d = (lambda k: argparse.SUPPRESS) if suppress else _FLAG_DEFAULTS.get
    ap.add_argument("--seed", type=nonnegative_int, default=d("seed"))
    ap.add_argument("--points", type=positive_int, default=d("points"))
    ap.add_argument("--radius", type=positive_int, default=d("radius"))
    ap.add_argument("--eps", type=positive_float, default=d("eps"))
    ap.add_argument("--coeff-mode", choices=["q", "p1", "p2", "dual"],
                    default=d("coeff_mode"))
    ap.add_argument("--cache-dir", default=d("cache_dir"))
    ap.add_argument("--jobs", type=positive_int, default=d("jobs"))
    ap.add_argument("--out", default=d("out"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="theta2",
        description="derive and certify the genus-2 theta gradient module structure")
    _add_common_flags(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("catalog", parents=[common],
                       help="derive and print one catalog")
    c.add_argument("which", choices=["chars", "riemann", "dtable", "reld",
                                     "extra", "extrb", "sextets"])
    c.set_defaults(func=cmd_catalog)

    v = sub.add_parser("verify", parents=[common],
                       help="run a verification suite")
    v.add_argument("suite", choices=["numeric", "kernel", "allrel", "brackets", "all"])
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("structure", parents=[common],
                       help="full pipeline and series check")
    m.set_defaults(func=cmd_structure)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DerivationError as exc:
        print(f"derivation error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  CI contract: 2 = internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
