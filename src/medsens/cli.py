"""Command-line surface.

Subcommands: estimate | bound | cornfield | sweep | parametric | oracle |
bootstrap.  Shared flags: --scale {rr,rd,both}, --relabel-exposure,
--smoothing, --seed, --format {json,csv}.  The default seed comes from the
MEDSENS_SEED environment variable when set.

Exit codes: 0 success, 2 input error, 3 infeasibility of a requested
solve, 4 internal assertion (a verification battery found a violation;
must never occur).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import bootstrap as bootstrap_mod
from . import bounds, effects, loglinear, oracle, report, tables
from .errors import Infeasible, InternalCheckError, MedsensError, ZeroDenominator


@dataclass(frozen=True)
class SweepGrid:
    """Strictly ascending grids of the two sensitivity parameters."""

    rr_au_values: tuple[float, ...]
    rr_uy_values: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, values in (("rr_au", self.rr_au_values), ("rr_uy", self.rr_uy_values)):
            if not values:
                raise MedsensError(f"{name} grid is empty")
            if any(not math.isfinite(v) or v < 1.0 for v in values):
                raise MedsensError(f"{name} grid values must be finite and >= 1")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise MedsensError(f"{name} grid must be strictly ascending")


def _parse_grid(text: str, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise MedsensError(f"{name} grid must be comma-separated numbers, got {text!r}") from None


def _parse_param(text: str) -> float:
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    return float(text)


def _check_observed(args, flag: str) -> None:
    """The observed effect ``flag`` and its ``flag-ci`` limits, where given.

    Each must be a finite positive real, and the limits must enclose the
    point estimate in ascending order.
    """
    dest = flag[2:].replace("-", "_")
    point, ci = getattr(args, dest), getattr(args, dest + "_ci", None)
    for name, value in ((flag, point), *((f"{flag}-ci", v) for v in ci or ())):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise MedsensError(f"{name} must be a finite positive real, got {value!r}")
    if ci is not None and point is None:
        raise MedsensError(f"{flag}-ci needs {flag}")
    if ci is not None and not ci[0] <= point <= ci[1]:
        raise MedsensError(
            f"{flag}-ci {ci[0]!r} {ci[1]!r} must be ascending limits around {flag} {point!r}"
        )


def _reject_with_records(args, *flags: str) -> None:
    """Refuse observed-effect ``flags`` next to ``--csv``: a records report has no place for them."""
    for flag in flags:
        if args.csv is not None and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise MedsensError(f"{args.command}: {flag} is not used with --csv; give one or the other")


def _default_seed() -> int:
    text = os.environ.get("MEDSENS_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise MedsensError(f"MEDSENS_SEED must be an integer, got {text!r}") from None


def _effect_fields(scale: str) -> tuple[str, ...]:
    if scale == "rr":
        return ("nde_rr", "nie_rr", "te_rr")
    if scale == "rd":
        return ("nde_rd", "nie_rd", "te_rd")
    return ("nde_rr", "nie_rr", "te_rr", "nde_rd", "nie_rd", "te_rd")


def _load_records(args) -> tuple[tables.RecordTable, list[str]]:
    records = tables.read_records_csv(args.csv)
    warnings = []
    if args.relabel_exposure:
        records = tables.swap_exposure_records(records)
        warnings.append("exposure codes relabeled (0 <-> 1)")
    return records, warnings


def _load_model(args) -> tuple[tables.ConditionalModel, str, list[str]]:
    records, warnings = _load_records(args)
    model = tables.estimate_from_records(records, args.smoothing)
    return model, report.digest_file(args.csv), warnings


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _json_only(args) -> None:
    if args.format == "csv":
        raise MedsensError(f"{args.command}: csv output is not available; use --format json")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_estimate(args) -> int:
    model, digest, warnings = _load_model(args)
    fields = _effect_fields(args.scale)
    rows = []
    for eff in effects.observed_effects_all(model):
        rows.append({"c": eff.c, **{f: getattr(eff, f) for f in fields}})
    if args.format == "csv":
        header = ["c", *fields]
        report.write_csv(sys.stdout, header, [map(repr, [r[h] for r in rows]) for h in header])
        return 0
    doc = report.document(
        "estimate",
        {"strata": rows, "smoothing": args.smoothing, "mode": model.mode},
        input_digest=digest,
        warnings=warnings,
    )
    _emit(report.to_json(doc))
    return 0


def _bound_payload_tables(model, spec, scale):
    reports = [bounds.bound_report(model, c, spec) for c in range(model.c_card)]
    fields = _effect_fields(scale)
    rows = []
    for rep in reports:
        row = {
            "c": rep.c,
            "observed": {f: getattr(rep.observed, f) for f in fields},
            "bf": rep.bf,
        }
        if scale in ("rr", "both"):
            row["nde_rr_lower"] = rep.nde_rr_lower
            row["nie_rr_upper"] = rep.nie_rr_upper
            row["cornfield_rr"] = {
                "both_must_exceed": rep.cornfield_rr.both_must_exceed,
                "max_must_exceed": rep.cornfield_rr.max_must_exceed,
            }
        if scale in ("rd", "both"):
            row["nde_rd_lower"] = rep.nde_rd_lower
            row["nie_rd_upper"] = rep.nie_rd_upper
            row["cornfield_rd"] = {
                "both_must_exceed": rep.cornfield_rd.both_must_exceed,
                "max_must_exceed": rep.cornfield_rd.max_must_exceed,
            }
        rows.append(row)
    payload = {"strata": rows, "rr_au": spec.rr_au, "rr_uy": spec.rr_uy}
    if scale in ("rr", "both"):
        payload["envelopes"] = bounds.stratum_envelopes(reports)
    return payload


def _cmd_bound(args) -> int:
    _json_only(args)
    _reject_with_records(args, "--nde-rr", "--nde-rr-ci", "--nie-rr", "--nie-rr-ci")
    _check_observed(args, "--nde-rr")
    _check_observed(args, "--nie-rr")
    spec = bounds.SensitivitySpec(rr_au=args.rr_au, rr_uy=args.rr_uy)
    bf = bounds.bounding_factor(spec)
    if args.csv is not None:
        model, digest, warnings = _load_model(args)
        payload = _bound_payload_tables(model, spec, args.scale)
        doc = report.document("bound", payload, input_digest=digest, warnings=warnings)
        _emit(report.to_json(doc))
        return 0
    if args.nde_rr is None and args.nie_rr is None:
        raise MedsensError("bound needs --csv or at least one of --nde-rr/--nie-rr")
    payload: dict = {"bf": bf, "rr_au": spec.rr_au, "rr_uy": spec.rr_uy}
    params: dict = {"rr_au": spec.rr_au, "rr_uy": spec.rr_uy}
    if args.nde_rr is not None:
        entry = {"point": bounds.adjust_nde_rr(args.nde_rr, bf)}
        if args.nde_rr_ci:
            entry["ci"] = [bounds.adjust_nde_rr(v, bf) for v in args.nde_rr_ci]
        payload["nde_rr_lower"] = entry
        params["nde_rr"] = args.nde_rr
    if args.nie_rr is not None:
        entry = {"point": bounds.adjust_nie_rr(args.nie_rr, bf)}
        if args.nie_rr_ci:
            entry["ci"] = [bounds.adjust_nie_rr(v, bf) for v in args.nie_rr_ci]
        payload["nie_rr_upper"] = entry
        params["nie_rr"] = args.nie_rr
    doc = report.document("bound", payload, input_digest=report.digest_params(params))
    _emit(report.to_json(doc))
    return 0


def _cmd_cornfield(args) -> int:
    _json_only(args)
    _reject_with_records(args, "--nde-rr")
    _check_observed(args, "--nde-rr")
    warnings: list[str] = []
    infeasible = False

    def partner_for(ratio: float) -> float | None:
        nonlocal infeasible
        if args.fixed_param is None:
            return None
        try:
            return bounds.required_partner(args.fixed_param, ratio)
        except Infeasible as exc:
            infeasible = True
            warnings.append(f"required partner for fixed {args.fixed_param}: {exc}")
            return None

    if args.csv is not None:
        model, digest, load_warnings = _load_model(args)
        warnings.extend(load_warnings)
        target = 0.0 if args.target is None else args.target
        rows = []
        for eff in effects.observed_effects_all(model):
            try:
                th = bounds.cornfield_rd(eff.n10, eff.n00, target)
            except ZeroDenominator as exc:
                raise ZeroDenominator(f"stratum c={eff.c}: {exc}") from None
            row = {
                "c": eff.c,
                "target_nde_rd": target,
                "both_must_exceed": th.both_must_exceed,
                "max_must_exceed": th.max_must_exceed,
            }
            partner = partner_for(th.both_must_exceed)
            if args.fixed_param is not None:
                row["required_partner"] = partner
            rows.append(row)
        payload = {"scale": "rd", "strata": rows}
        doc = report.document("cornfield", payload, input_digest=digest, warnings=warnings)
    else:
        if args.nde_rr is None:
            raise MedsensError("cornfield needs --csv (difference scale) or --nde-rr (ratio scale)")
        target = 1.0 if args.target is None else args.target
        th = bounds.cornfield_rr(args.nde_rr, target)
        payload = {
            "scale": "rr",
            "observed_nde_rr": args.nde_rr,
            "target_nde_rr": target,
            "both_must_exceed": th.both_must_exceed,
            "max_must_exceed": th.max_must_exceed,
        }
        partner = partner_for(args.nde_rr / target)
        if args.fixed_param is not None:
            payload["required_partner"] = partner
            payload["fixed_param"] = args.fixed_param
        doc = report.document(
            "cornfield",
            payload,
            input_digest=report.digest_params(payload),
            warnings=warnings,
        )
    _emit(report.to_json(doc))
    return 3 if infeasible else 0


def _spread(items, inner: int, outer: int):
    """``items``, each repeated ``inner`` times, and all of that ``outer`` times."""
    items = chain.from_iterable(map(repeat, items, repeat(inner))) if inner > 1 else items
    return chain.from_iterable(repeat(list(items), outer)) if outer > 1 else items


def _sweep_table(args, grid: SweepGrid) -> tuple[list[str], list[tuple], str | None]:
    """Header, columns ``(values, inner, outer)`` (see :func:`_spread`) and digest of a sweep.

    Rows run rr_au major, then rr_uy, then stratum; each grid value and ``bf`` is one value.
    """
    au, uy = (v.ravel() for v in np.meshgrid(grid.rr_au_values, grid.rr_uy_values, indexing="ij"))
    spec = bounds.SensitivitySpec(rr_au=au, rr_uy=uy)
    bf = bounds.bounding_factor(spec)
    if args.csv is not None:
        model, digest, _ = _load_model(args)
        strata, stratum = model.c_card, [(range(model.c_card), 1, bf.size)]
        reports = [bounds.bound_report(model, c, spec) for c in range(strata)]
        header = ["rr_au", "rr_uy", "bf", "c", "nde_rr_lower", "nie_rr_upper",
                  "nde_rd_lower", "nie_rd_upper"]
        values = [np.stack([getattr(rep, name) for rep in reports], axis=-1) for name in header[4:]]
    elif args.nde_rr is None:
        raise MedsensError("sweep needs --csv or --nde-rr")
    else:
        strata, stratum, digest = 1, [], None
        header = ["rr_au", "rr_uy", "bf", "nde_rr_lower"]
        values = [bounds.adjust_nde_rr(args.nde_rr, bf)]
        if args.nie_rr is not None:
            header.append("nie_rr_upper")
            values.append(bounds.adjust_nie_rr(args.nie_rr, bf))
    cells = [(grid.rr_au_values, len(grid.rr_uy_values) * strata, 1),
             (grid.rr_uy_values, strata, len(grid.rr_au_values)), (bf.tolist(), strata, 1)]
    return header, cells + stratum + [(v.ravel().tolist(), 1, 1) for v in values], digest


def _cmd_sweep(args) -> int:
    _reject_with_records(args, "--nde-rr", "--nie-rr")
    _check_observed(args, "--nde-rr")
    _check_observed(args, "--nie-rr")
    grid = SweepGrid(
        rr_au_values=_parse_grid(args.rr_au_grid, "rr_au"),
        rr_uy_values=_parse_grid(args.rr_uy_grid, "rr_uy"),
    )
    header, columns, digest = _sweep_table(args, grid)
    if args.format == "json":
        rows = list(zip(*(_spread(*column) for column in columns)))
        doc = report.document("sweep", {"header": header, "rows": rows}, input_digest=digest)
        _emit(report.to_json(doc))
    else:
        report.write_csv(sys.stdout, header, [_spread(map(repr, v), i, o) for v, i, o in columns])
    return 0


def _cmd_parametric(args) -> int:
    rows = loglinear.collider_ratio_grid(beta_c=args.beta_c)
    header = ["beta0", "beta1", "beta3", "rr_au", "ratio_to_exp_beta3", "ratio_to_exp_beta1"]
    if args.format == "json":
        doc = report.document(
            "parametric",
            {"rows": rows, "beta_c": args.beta_c},
            input_digest=report.digest_params({"beta_c": args.beta_c}),
        )
        _emit(report.to_json(doc))
    else:
        report.write_csv(sys.stdout, header, [map(repr, [r[h] for r in rows]) for h in header])
    return 0


def _cmd_oracle(args) -> int:
    _json_only(args)
    result = oracle.validity_battery(
        seed=args.seed,
        iterations=args.iterations,
        u_card=args.u_card,
        m_card=args.m_card,
        extreme=args.extreme,
        mode=args.outcome,
        dependent_exposure=args.dependent_exposure,
        ratio_iterations=args.ratio_iterations,
        sharpness_iterations=args.sharpness_iterations,
    )
    doc = report.document(
        "oracle",
        result,
        input_digest=report.digest_params(result["config"]),
        seed=args.seed,
    )
    _emit(report.to_json(doc))
    total_violations = result["bound_validity"]["violations"] + result["ratio_bound_dominance"]["violations"]
    if result["definition_equivalence"] is not None:
        total_violations += result["definition_equivalence"]["violations"]
    return 4 if total_violations else 0


def _cmd_bootstrap(args) -> int:
    _json_only(args)
    records, warnings = _load_records(args)
    spec = None
    if args.rr_au is not None or args.rr_uy is not None:
        if args.rr_au is None or args.rr_uy is None:
            raise MedsensError("bootstrap needs both --rr-au and --rr-uy or neither")
        spec = bounds.SensitivitySpec(rr_au=args.rr_au, rr_uy=args.rr_uy)
    result = bootstrap_mod.run_bootstrap(
        records,
        replicates=args.replicates,
        level=args.level,
        seed=args.seed,
        smoothing=args.smoothing,
        spec=spec,
    )
    strata = []
    for c in sorted(result.intervals):
        stats = {
            name: {"lower": v[0], "point": v[1], "upper": v[2]}
            for name, v in sorted(result.intervals[c].items())
        }
        strata.append({"c": c, "stats": stats})
    payload = {
        "replicates": result.replicates,
        "level": result.level,
        "degenerate_redraws": result.degenerate_redraws,
        "strata": strata,
    }
    doc = report.document(
        "bootstrap",
        payload,
        input_digest=report.digest_file(args.csv),
        seed=args.seed,
        warnings=warnings,
    )
    _emit(report.to_json(doc))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scale", choices=("rr", "rd", "both"), default="both",
                        help="which effect scale to report")
    common.add_argument("--relabel-exposure", action="store_true",
                        help="swap exposure codes 0 and 1 before any computation")
    common.add_argument("--smoothing", type=float, default=0.0,
                        help="add-k smoothing for estimation from records")
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (default: MEDSENS_SEED or 0)")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (default json; sweep/parametric default csv)")

    parser = argparse.ArgumentParser(
        prog="medsens",
        description="Sensitivity bounds for natural direct and indirect effects "
        "under unmeasured mediator-outcome confounding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", parents=[common],
                       help="observed effects per stratum from record data")
    p.add_argument("--csv", required=True, help="records file a,m,y,c[,count]")
    p.set_defaults(func=_cmd_estimate, default_format="json")

    p = sub.add_parser("bound", parents=[common],
                       help="bounding factor and adjusted effect bounds")
    p.add_argument("--csv", help="records file; enables difference-scale bounds")
    p.add_argument("--rr-au", type=_parse_param, required=True,
                   help="exposure-confounder parameter (>= 1, 'inf' allowed)")
    p.add_argument("--rr-uy", type=_parse_param, required=True,
                   help="confounder-outcome parameter (>= 1, 'inf' allowed)")
    p.add_argument("--nde-rr", type=float, help="observed ratio-scale direct effect")
    p.add_argument("--nde-rr-ci", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--nie-rr", type=float, help="observed ratio-scale indirect effect")
    p.add_argument("--nie-rr-ci", type=float, nargs=2, metavar=("LO", "HI"))
    p.set_defaults(func=_cmd_bound, default_format="json")

    p = sub.add_parser("cornfield", parents=[common],
                       help="confounder-strength thresholds to reach a target effect")
    p.add_argument("--csv", help="records file; switches to the difference scale")
    p.add_argument("--nde-rr", type=float, help="observed ratio-scale direct effect")
    p.add_argument("--target", type=float,
                   help="target true effect (default 1 on rr scale, 0 on rd scale)")
    p.add_argument("--fixed-param", type=_parse_param,
                   help="solve for the partner of this fixed sensitivity parameter")
    p.set_defaults(func=_cmd_cornfield, default_format="json")

    p = sub.add_parser("sweep", parents=[common],
                       help="bounds over a grid of sensitivity parameters")
    p.add_argument("--csv", help="records file")
    p.add_argument("--nde-rr", type=float)
    p.add_argument("--nie-rr", type=float)
    p.add_argument("--rr-au-grid", required=True,
                   help="comma-separated strictly ascending values >= 1")
    p.add_argument("--rr-uy-grid", required=True,
                   help="comma-separated strictly ascending values >= 1")
    p.set_defaults(func=_cmd_sweep, default_format="csv")

    p = sub.add_parser("parametric", parents=[common],
                       help="log-linear collider-ratio reference grid, brute-force checked")
    p.add_argument("--beta-c", type=float, default=0.0, help="covariate offset")
    p.set_defaults(func=_cmd_parametric, default_format="csv")

    p = sub.add_parser("oracle", parents=[common],
                       help="verification battery on random synthetic models")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--u-card", type=int, default=2)
    p.add_argument("--m-card", type=int, default=2)
    p.add_argument("--extreme", action="store_true", help="remove the probability floor")
    p.add_argument("--outcome", choices=("probability", "mean"), default="probability")
    p.add_argument("--dependent-exposure", action="store_true",
                   help="sample exposure-confounder dependence; checks unexposed bounds")
    p.add_argument("--ratio-iterations", type=int, default=1000)
    p.add_argument("--sharpness-iterations", type=int, default=50)
    p.set_defaults(func=_cmd_oracle, default_format="json")

    p = sub.add_parser("bootstrap", parents=[common],
                       help="percentile bootstrap intervals over records")
    p.add_argument("--csv", required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--rr-au", type=_parse_param, help="include adjusted bounds")
    p.add_argument("--rr-uy", type=_parse_param)
    p.set_defaults(func=_cmd_bootstrap, default_format="json")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (MedsensError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
