"""Command-line surface.

Subcommands: estimate | bound | cornfield | sweep | parametric | oracle |
bootstrap.  Each takes only the flags it reads.  --csv, --relabel-exposure
and --smoothing: all but parametric and oracle; --scale {rr,rd,both}:
estimate, bound with --csv; --format {json,csv}: estimate, sweep,
parametric; --seed: oracle, bootstrap, defaulting to the MEDSENS_SEED
environment variable.

bound, cornfield and sweep read records (--csv) or observed ratio-scale
estimates (--nde-rr; bound and sweep also --nie-rr, bound their -ci
limits), never both; with neither they exit 2.

Exit codes: 0 success, 2 input error, 3 infeasibility of a requested
solve, 4 internal assertion (a verification battery found a violation;
must never occur).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import asdict
from typing import Iterator

import numpy as np

from . import bootstrap as bootstrap_mod
from . import bounds, loglinear, oracle, report, tables
from .errors import Infeasible, InternalCheckError, MedsensError, ZeroDenominator


def _parse_grid(text: str, name: str) -> np.ndarray:
    """The ``name`` grid given as ``text``: finite values >= 1, strictly ascending."""
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise MedsensError(f"{name} grid must be comma-separated numbers, got {text!r}") from None
    if not (np.isfinite(values) & (values >= 1.0)).all():
        raise MedsensError(f"{name} grid values must be finite and >= 1")
    if (np.diff(values) <= 0.0).any():
        raise MedsensError(f"{name} grid must be strictly ascending")
    return values


def _check_observed(args, flag: str) -> np.ndarray | None:
    """The observed effect ``flag`` and its ``flag-ci`` limits, where given, as ``[point, *ci]``.

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
    return None if point is None else np.array([point, *(ci or ())])


def _reject_with_records(args, *flags: str) -> None:
    """Refuse the flags of the input mode not in use, which nothing would read.

    With ``--csv`` these are the observed-effect ``flags``, which a records
    report has no place for; without it, the record flags and ``--scale``.
    A flag that is unset, off or 0 passes.
    """
    records = args.csv is not None
    for flag in flags if records else ("--relabel-exposure", "--smoothing", "--scale"):
        if getattr(args, flag[2:].replace("-", "_"), None):
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


def _inputs(args, *flags: str) -> tuple[dict, int, str | None, list[str]]:
    """Effects, strata, digest and warnings of the records of ``--csv`` or the estimates ``flags``.

    With ``--csv``: the :func:`~medsens.bounds.bound_report` of every
    stratum, their count, the file's digest and the load warnings.  Without
    it: each given estimate as the array ``[point, *ci]`` of its point and
    ``-ci`` limits, so that one :func:`~medsens.bounds.adjust` call bounds
    them all, as one stratum with no digest or warnings.  The flags of the
    mode not in use, each of ``flags`` and its ``-ci`` limits with ``--csv``,
    are refused first.
    """
    _reject_with_records(args, *(f for flag in flags for f in (flag, flag + "-ci")))
    if args.csv is not None:
        model, digest, warnings = _load_model(args)
        return bounds.bound_report(model.y, model.w), model.c_card, digest, warnings
    effects = {flag[2:].replace("-", "_"): v for flag in flags
               if (v := _check_observed(args, flag)) is not None}
    if not effects:
        raise MedsensError(f"{args.command} needs {' or '.join(('--csv', *flags))}")
    return effects, 1, None, []


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_estimate(args) -> int:
    model, digest, warnings = _load_model(args)
    stats = bounds.bound_report(model.y, model.w)
    columns = {"c": np.arange(model.c_card)}
    columns.update((f, stats[f]) for f in _effect_fields(args.scale))
    if args.format == "csv":
        report.write_csv(sys.stdout, list(columns), [list(columns.values())])
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


def _bound_payload_tables(stats, strata, spec, scale):
    """Per-stratum bounds and Cornfield thresholds at the null, and the envelopes across strata."""
    stats = stats | bounds.adjust(stats, spec)
    values = {name: v.tolist() for name, v in stats.items()}
    rows = []
    for c in range(strata):
        row = {"c": c, "observed": {f: values[f][c] for f in _effect_fields(scale)},
               "bf": values["bf"]}
        # at a target of 0, n10 / (0.0 + n00) is nde_rr itself: both scales share these thresholds
        null = asdict(bounds.cornfield_rd(values["n10"][c], values["n00"][c], 0.0))
        if scale != "rd":
            row["nde_rr_lower"] = values["nde_rr_lower"][c]
            row["nie_rr_upper"] = values["nie_rr_upper"][c]
            row["cornfield_rr"] = null
        if scale != "rr":
            row["nde_rd_lower"] = values["nde_rd_lower"][c]
            row["nie_rd_upper"] = values["nie_rd_upper"][c]
            row["cornfield_rd"] = null
        rows.append(row)
    payload = {"strata": rows, "rr_au": spec.rr_au, "rr_uy": spec.rr_uy}
    if scale != "rd":
        payload["envelopes"] = bounds.stratum_envelopes(stats)
    return payload


def _cmd_bound(args) -> int:
    spec = bounds.SensitivitySpec(rr_au=args.rr_au, rr_uy=args.rr_uy)
    effects, strata, digest, warnings = _inputs(args, "--nde-rr", "--nie-rr")
    if args.csv is not None:
        payload = _bound_payload_tables(effects, strata, spec, args.scale)
    else:
        adjusted = bounds.adjust(effects, spec)
        payload = {"bf": adjusted.pop("bf"), "rr_au": spec.rr_au, "rr_uy": spec.rr_uy}
        for name, values in adjusted.items():
            point, *ci = values.tolist()
            payload[name] = {"point": point, "ci": ci} if ci else {"point": point}
        names = ("rr_au", "rr_uy", *(k for name in effects for k in (name, name + "_ci")))
        digest = report.digest_params({k: getattr(args, k) for k in names
                                       if getattr(args, k) is not None})
    doc = report.document("bound", payload, input_digest=digest, warnings=warnings)
    sys.stdout.write(report.to_json(doc))
    return 0


def _cmd_cornfield(args) -> int:
    if args.fixed_param is not None:
        bounds._check_param(args.fixed_param, "--fixed-param")
    effects, strata, digest, warnings = _inputs(args, "--nde-rr")
    if args.csv is not None:
        target = 0.0 if args.target is None else args.target
        rows = []
        for c, (n10, n00) in enumerate(zip(effects["n10"].tolist(), effects["n00"].tolist())):
            try:
                th = bounds.cornfield_rd(n10, n00, target)
            except ZeroDenominator as exc:
                raise ZeroDenominator(f"stratum c={c}: {exc}") from None
            rows.append({"c": c, "target_nde_rd": target, **asdict(th)})
        payload = {"scale": "rd", "strata": rows}
    else:
        target = 1.0 if args.target is None else args.target
        (nde_rr,) = effects["nde_rr"].tolist()
        th = bounds.cornfield_rr(nde_rr, target)
        payload = {"scale": "rr", "observed_nde_rr": nde_rr, "target_nde_rr": target, **asdict(th)}
        if args.fixed_param is not None:
            payload["fixed_param"] = args.fixed_param
        rows = [payload]
    for row in rows if args.fixed_param is not None else ():
        try:
            row["required_partner"] = bounds.required_partner(args.fixed_param,
                                                              row["both_must_exceed"])
        except Infeasible as exc:
            row["required_partner"] = None
            warnings.append(f"required partner for fixed {args.fixed_param}: {exc}")
    doc = report.document("cornfield", payload,
                          input_digest=digest or report.digest_params(payload), warnings=warnings)
    sys.stdout.write(report.to_json(doc))
    return 3 if any(row.get("required_partner", 1.0) is None for row in rows) else 0


def _sweep_table(
    args, au_values: np.ndarray, uy_values: np.ndarray
) -> tuple[list[str], Iterator[list[np.ndarray]], str | None, list[str]]:
    """Header, blocks of columns, digest and warnings of a sweep.

    Rows run rr_au major, then rr_uy, then stratum (records only).  The
    effects are formed once; a block holds the rows of consecutive grid
    points, about ``report.CSV_BLOCK`` of them, and is bounded by one
    :func:`~medsens.bounds.adjust` call when it is drawn.  The first block
    is drawn here, so any error of the model is raised before a row is
    written, and the header follows from the bounds it holds.
    """
    effects, strata, digest, warnings = _inputs(args, "--nde-rr", "--nie-rr")
    size, step = au_values.size * uy_values.size, max(1, report.CSV_BLOCK // strata)

    def block(start: int) -> dict:
        i, j = np.divmod(np.arange(start, min(start + step, size)), uy_values.size)
        au, uy = au_values[i], uy_values[j]
        spec = bounds.SensitivitySpec(rr_au=au[:, None], rr_uy=uy[:, None])
        stats = bounds.adjust(effects, spec)  # (grid point, stratum)
        columns = {"rr_au": au, "rr_uy": uy, "bf": stats.pop("bf")}
        columns = {name: np.repeat(v, strata) for name, v in columns.items()}
        if args.csv is not None:
            columns["c"] = np.tile(np.arange(strata), i.size)
        return columns | {name: v.ravel() for name, v in stats.items()}

    first = block(0)
    rest = (list(block(start).values()) for start in range(step, size, step))
    return list(first), itertools.chain([list(first.values())], rest), digest, warnings


def _cmd_sweep(args) -> int:
    header, blocks, digest, warnings = _sweep_table(
        args, _parse_grid(args.rr_au_grid, "rr_au"), _parse_grid(args.rr_uy_grid, "rr_uy")
    )
    if args.format == "json":
        rows = [row for block in blocks for row in zip(*(column.tolist() for column in block))]
        doc = report.document("sweep", {"header": header, "rows": rows}, input_digest=digest,
                              warnings=warnings)
        sys.stdout.write(report.to_json(doc))
    else:
        report.write_csv(sys.stdout, header, blocks)
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
        report.write_csv(sys.stdout, header, [[np.array([r[h] for r in rows]) for h in header]])
    return 0


def _cmd_oracle(args) -> int:
    seed = _default_seed() if args.seed is None else args.seed
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "seed")}
    result = oracle.validity_battery(seed, **params)
    doc = report.document("oracle", result, input_digest=report.digest_params(result["config"]),
                          seed=seed)
    sys.stdout.write(report.to_json(doc))
    checks = ("bound_validity", "ratio_bound_dominance", "definition_equivalence")
    return 4 if any(result[k] and result[k]["violations"] for k in checks) else 0


def _cmd_bootstrap(args) -> int:
    seed = _default_seed() if args.seed is None else args.seed
    records, warnings = _load_records(args)
    spec = None
    if args.rr_au is not None or args.rr_uy is not None:
        if args.rr_au is None or args.rr_uy is None:
            raise MedsensError("bootstrap needs both --rr-au and --rr-uy or neither")
        spec = bounds.SensitivitySpec(rr_au=args.rr_au, rr_uy=args.rr_uy)
    # an absent --level is None and takes run_bootstrap's default
    params = {name: getattr(args, name) for name in ("replicates", "level", "smoothing")
              if getattr(args, name) is not None}
    result = bootstrap_mod.run_bootstrap(records, seed=seed, spec=spec, **params)
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
            p.add_argument("--scale", choices=("rr", "rd", "both"),
                           help="which effect scale to report (default both)")
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
    p.add_argument("--rr-au", type=float, required=True,
                   help="exposure-confounder parameter (>= 1, 'inf' allowed)")
    p.add_argument("--rr-uy", type=float, required=True,
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
    p.add_argument("--fixed-param", type=float,
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
    p.argument_default = argparse.SUPPRESS  # absent flags take validity_battery's defaults
    p.add_argument("--iterations", type=int)
    p.add_argument("--u-card", type=int)
    p.add_argument("--m-card", type=int)
    p.add_argument("--extreme", action="store_true", help="remove the probability floor")
    p.add_argument("--outcome", dest="mode", choices=("probability", "mean"))
    p.add_argument("--dependent-exposure", action="store_true",
                   help="sample exposure-confounder dependence; checks unexposed bounds")
    p.add_argument("--ratio-iterations", type=int)
    p.add_argument("--sharpness-iterations", type=int)

    p = command("bootstrap", _cmd_bootstrap, "percentile bootstrap intervals over records",
                records=True, seed=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--level", type=float)
    p.add_argument("--rr-au", type=float, help="include adjusted bounds")
    p.add_argument("--rr-uy", type=float)

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
