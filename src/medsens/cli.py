"""Command-line surface.

Subcommands: estimate | bound | cornfield | sweep | parametric | oracle |
bootstrap.  Each takes only the flags it reads.  --csv, --relabel-exposure
and --smoothing: all but parametric and oracle; --scale {rr,rd,both}:
estimate, bound; --format {json,csv}: estimate, sweep, parametric; --seed:
oracle, bootstrap, defaulting to the MEDSENS_SEED environment variable.

Exit codes: 0 success, 2 input error, 3 infeasibility of a requested
solve, 4 internal assertion (a verification battery found a violation;
must never occur).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import bootstrap as bootstrap_mod
from . import bounds, loglinear, oracle, report, tables
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
    """Refuse the flags of the input mode not in use, which nothing would read.

    With ``--csv`` these are the observed-effect ``flags``, which a records
    report has no place for; without it, the record flags.  A flag that is
    unset, off or 0 passes.
    """
    records = args.csv is not None
    for flag in flags if records else ("--relabel-exposure", "--smoothing"):
        if getattr(args, flag[2:].replace("-", "_")):
            use = "not used with --csv; give one or the other" if records else "only used with --csv"
            raise MedsensError(f"{args.command}: {flag} is {use}")


def _seed(text: str) -> int:
    """``text``, decimal digits alone, as a seed: numpy's generator takes non-negative integers."""
    if text.strip().isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _default_seed() -> int:
    try:
        return _seed(os.environ.get("MEDSENS_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise MedsensError(f"MEDSENS_SEED {exc}") from None


def _effect_fields(scale: str) -> tuple[str, ...]:
    stats = bounds.EFFECT_STATS
    return {"rr": stats[:3], "rd": stats[3:]}.get(scale, stats)


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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_estimate(args) -> int:
    model, digest, warnings = _load_model(args)
    stats = bounds.bound_report(model.y, model.w)
    columns = {"c": np.arange(model.c_card)}
    columns.update((f, stats[f]) for f in _effect_fields(args.scale))
    if args.format == "csv":
        report.write_csv(sys.stdout, list(columns), list(columns.values()))
        return 0
    rows = [dict(zip(columns, row)) for row in zip(*(v.tolist() for v in columns.values()))]
    doc = report.document(
        "estimate",
        {"strata": rows, "smoothing": args.smoothing, "mode": model.mode},
        input_digest=digest,
        warnings=warnings,
    )
    sys.stdout.write(report.to_json(doc))
    return 0


def _bound_payload_tables(model, spec, scale):
    """Per-stratum bounds and Cornfield thresholds at the null, and the envelopes across strata."""
    stats = bounds.bound_report(model.y, model.w, spec)
    values = {name: v.tolist() for name, v in stats.items()}
    rows = []
    for c in range(model.c_card):
        row = {"c": c, "observed": {f: values[f][c] for f in _effect_fields(scale)},
               "bf": values["bf"]}
        if scale in ("rr", "both"):
            row["nde_rr_lower"] = values["nde_rr_lower"][c]
            row["nie_rr_upper"] = values["nie_rr_upper"][c]
            row["cornfield_rr"] = asdict(bounds.cornfield_rr(values["nde_rr"][c]))
        if scale in ("rd", "both"):
            row["nde_rd_lower"] = values["nde_rd_lower"][c]
            row["nie_rd_upper"] = values["nie_rd_upper"][c]
            th = bounds.cornfield_rd(values["n10"][c], values["n00"][c], 0.0)
            row["cornfield_rd"] = asdict(th)
        rows.append(row)
    payload = {"strata": rows, "rr_au": spec.rr_au, "rr_uy": spec.rr_uy}
    if scale in ("rr", "both"):
        payload["envelopes"] = bounds.stratum_envelopes(stats)
    return payload


def _cmd_bound(args) -> int:
    _reject_with_records(args, "--nde-rr", "--nde-rr-ci", "--nie-rr", "--nie-rr-ci")
    _check_observed(args, "--nde-rr")
    _check_observed(args, "--nie-rr")
    spec = bounds.SensitivitySpec(rr_au=args.rr_au, rr_uy=args.rr_uy)
    bf = bounds.bounding_factor(spec)
    if args.csv is not None:
        model, digest, warnings = _load_model(args)
        payload = _bound_payload_tables(model, spec, args.scale)
        doc = report.document("bound", payload, input_digest=digest, warnings=warnings)
        sys.stdout.write(report.to_json(doc))
        return 0
    if args.nde_rr is None and args.nie_rr is None:
        raise MedsensError("bound needs --csv or at least one of --nde-rr/--nie-rr")
    payload: dict = {"bf": bf, "rr_au": spec.rr_au, "rr_uy": spec.rr_uy}
    params: dict = {"rr_au": spec.rr_au, "rr_uy": spec.rr_uy}
    for name, bound, adjust in (("nde_rr", "nde_rr_lower", bounds.adjust_nde_rr),
                                ("nie_rr", "nie_rr_upper", bounds.adjust_nie_rr)):
        point, ci = getattr(args, name), getattr(args, name + "_ci")
        if point is not None:
            payload[bound] = {"point": adjust(point, bf)}
            if ci:
                payload[bound]["ci"] = [adjust(v, bf) for v in ci]
            params[name] = point
    doc = report.document("bound", payload, input_digest=report.digest_params(params))
    sys.stdout.write(report.to_json(doc))
    return 0


def _cmd_cornfield(args) -> int:
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
        stats = bounds.bound_report(model.y, model.w)
        rows = []
        for c, (n10, n00) in enumerate(zip(stats["n10"].tolist(), stats["n00"].tolist())):
            try:
                th = bounds.cornfield_rd(n10, n00, target)
            except ZeroDenominator as exc:
                raise ZeroDenominator(f"stratum c={c}: {exc}") from None
            row = {"c": c, "target_nde_rd": target, **asdict(th)}
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
        payload = {"scale": "rr", "observed_nde_rr": args.nde_rr, "target_nde_rr": target,
                   **asdict(th)}
        partner = partner_for(th.both_must_exceed)
        if args.fixed_param is not None:
            payload["required_partner"] = partner
            payload["fixed_param"] = args.fixed_param
        doc = report.document(
            "cornfield",
            payload,
            input_digest=report.digest_params(payload),
            warnings=warnings,
        )
    sys.stdout.write(report.to_json(doc))
    return 3 if infeasible else 0


def _sweep_table(args, grid: SweepGrid) -> tuple[list[str], list[np.ndarray], str | None]:
    """Header, columns and digest of a sweep; rows run rr_au major, then rr_uy, then stratum."""
    au_values, uy_values = np.array(grid.rr_au_values), np.array(grid.rr_uy_values)
    au, uy = np.meshgrid(au_values, uy_values, indexing="ij")
    spec = bounds.SensitivitySpec(rr_au=au.reshape(-1, 1), rr_uy=uy.reshape(-1, 1))
    bf = bounds.bounding_factor(spec)
    if args.csv is not None:
        model, digest, _ = _load_model(args)
        strata, stratum = model.c_card, [np.tile(np.arange(model.c_card), bf.size)]
        stats = bounds.bound_report(model.y, model.w, spec)  # (grid point, stratum) in row order
        header = ["rr_au", "rr_uy", "bf", "c", *bounds.BOUND_STATS]
        values = [stats[name] for name in bounds.BOUND_STATS]
    elif args.nde_rr is None:
        raise MedsensError("sweep needs --csv or --nde-rr")
    else:
        strata, stratum, digest = 1, [], None
        header = ["rr_au", "rr_uy", "bf", "nde_rr_lower"]
        values = [bounds.adjust_nde_rr(args.nde_rr, bf)]
        if args.nie_rr is not None:
            header.append("nie_rr_upper")
            values.append(bounds.adjust_nie_rr(args.nie_rr, bf))
    cells = [np.repeat(au_values, uy_values.size * strata),
             np.tile(np.repeat(uy_values, strata), au_values.size), np.repeat(bf, strata)]
    return header, cells + stratum + [v.ravel() for v in values], digest


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
        rows = list(zip(*(column.tolist() for column in columns)))
        doc = report.document("sweep", {"header": header, "rows": rows}, input_digest=digest)
        sys.stdout.write(report.to_json(doc))
    else:
        report.write_csv(sys.stdout, header, columns)
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
        sys.stdout.write(report.to_json(doc))
    else:
        report.write_csv(sys.stdout, header, [np.array([r[h] for r in rows]) for h in header])
    return 0


def _cmd_oracle(args) -> int:
    seed = _default_seed() if args.seed is None else args.seed
    result = oracle.validity_battery(
        seed=seed,
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
        seed=seed,
    )
    sys.stdout.write(report.to_json(doc))
    total_violations = result["bound_validity"]["violations"] + result["ratio_bound_dominance"]["violations"]
    if result["definition_equivalence"] is not None:
        total_violations += result["definition_equivalence"]["violations"]
    return 4 if total_violations else 0


def _cmd_bootstrap(args) -> int:
    seed = _default_seed() if args.seed is None else args.seed
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
        seed=seed,
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
        seed=seed,
        warnings=warnings,
    )
    sys.stdout.write(report.to_json(doc))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medsens",
        description="Sensitivity bounds for natural direct and indirect effects "
        "under unmeasured mediator-outcome confounding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, records=False, scale=False, seed=False, formats=()):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if records:
            p.add_argument("--relabel-exposure", action="store_true",
                           help="swap exposure codes 0 and 1 before any computation")
            p.add_argument("--smoothing", type=float, default=0.0,
                           help="add-k smoothing for estimation from records")
        if scale:
            p.add_argument("--scale", choices=("rr", "rd", "both"), default="both",
                           help="which effect scale to report")
        if seed:
            p.add_argument("--seed", type=_seed, help="random seed >= 0 (default: MEDSENS_SEED or 0)")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0],
                           help=f"output format (default {formats[0]})")
        return p

    p = command("estimate", _cmd_estimate, "observed effects per stratum from record data",
                records=True, scale=True, formats=("json", "csv"))
    p.add_argument("--csv", required=True, help="records file a,m,y,c[,count]")

    p = command("bound", _cmd_bound, "bounding factor and adjusted effect bounds",
                records=True, scale=True)
    p.add_argument("--csv", help="records file; enables difference-scale bounds")
    p.add_argument("--rr-au", type=_parse_param, required=True,
                   help="exposure-confounder parameter (>= 1, 'inf' allowed)")
    p.add_argument("--rr-uy", type=_parse_param, required=True,
                   help="confounder-outcome parameter (>= 1, 'inf' allowed)")
    p.add_argument("--nde-rr", type=float, help="observed ratio-scale direct effect")
    p.add_argument("--nde-rr-ci", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--nie-rr", type=float, help="observed ratio-scale indirect effect")
    p.add_argument("--nie-rr-ci", type=float, nargs=2, metavar=("LO", "HI"))

    p = command("cornfield", _cmd_cornfield,
                "confounder-strength thresholds to reach a target effect", records=True)
    p.add_argument("--csv", help="records file; switches to the difference scale")
    p.add_argument("--nde-rr", type=float, help="observed ratio-scale direct effect")
    p.add_argument("--target", type=float,
                   help="target true effect (default 1 on rr scale, 0 on rd scale)")
    p.add_argument("--fixed-param", type=_parse_param,
                   help="solve for the partner of this fixed sensitivity parameter")

    p = command("sweep", _cmd_sweep, "bounds over a grid of sensitivity parameters",
                records=True, formats=("csv", "json"))
    p.add_argument("--csv", help="records file")
    p.add_argument("--nde-rr", type=float)
    p.add_argument("--nie-rr", type=float)
    p.add_argument("--rr-au-grid", required=True,
                   help="comma-separated strictly ascending values >= 1")
    p.add_argument("--rr-uy-grid", required=True,
                   help="comma-separated strictly ascending values >= 1")

    p = command("parametric", _cmd_parametric,
                "log-linear collider-ratio reference grid, brute-force checked",
                formats=("csv", "json"))
    p.add_argument("--beta-c", type=float, default=0.0, help="covariate offset")

    p = command("oracle", _cmd_oracle, "verification battery on random synthetic models",
                seed=True)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--u-card", type=int, default=2)
    p.add_argument("--m-card", type=int, default=2)
    p.add_argument("--extreme", action="store_true", help="remove the probability floor")
    p.add_argument("--outcome", choices=("probability", "mean"), default="probability")
    p.add_argument("--dependent-exposure", action="store_true",
                   help="sample exposure-confounder dependence; checks unexposed bounds")
    p.add_argument("--ratio-iterations", type=int, default=1000)
    p.add_argument("--sharpness-iterations", type=int, default=50)

    p = command("bootstrap", _cmd_bootstrap, "percentile bootstrap intervals over records",
                records=True, seed=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--rr-au", type=_parse_param, help="include adjusted bounds")
    p.add_argument("--rr-uy", type=_parse_param)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
