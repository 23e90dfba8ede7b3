"""Command-line surface.

Subcommands: estimate | bound | cornfield | sweep | parametric | oracle |
bootstrap.  Each takes only the flags it reads, in full.  The flag groups
they share (records, observed estimates, sensitivity parameters, --scale,
--seed and --format) are declared once, by ``command()`` in
:func:`_build_parser`, which says which groups each subcommand takes.

A subcommand that takes both records (--csv) and observed ratio-scale
estimates reads one or the other, never both; with neither it exits 2.

Exit codes: 0 success, 2 input error, 3 infeasibility of a requested
solve, 4 internal assertion (any stage of the ``oracle`` battery's report
counts a violation; must never occur).
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
from .errors import Infeasible, InternalCheckError, MedsensError


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


def _dest(flag: str) -> str:
    """The namespace attribute of ``flag``, as argparse names it."""
    return flag[2:].replace("-", "_")


def _check_observed(args, flag: str) -> np.ndarray | None:
    """The observed effect ``flag`` and its ``flag-ci`` limits, where given, as ``[point, *ci]``.

    Each must be a finite positive real, and the limits must enclose the
    point estimate in ascending order.
    """
    point, ci = getattr(args, _dest(flag)), getattr(args, _dest(flag) + "_ci", None)
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


def _seed(text: str) -> int:
    """``text``, decimal digits alone, as a seed: numpy's generator takes non-negative integers."""
    if text.strip().isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _run_seed(args) -> int:
    """``--seed``, else the MEDSENS_SEED environment variable, else 0."""
    try:
        return _seed(os.environ.get("MEDSENS_SEED", "0")) if args.seed is None else args.seed
    except argparse.ArgumentTypeError as exc:
        raise MedsensError(f"MEDSENS_SEED {exc}") from None


def _of_scale(names, scale: str | None) -> list[str]:
    """The ``names`` that hold ``_rr`` or ``_rd``, for ``scale`` "rr" or "rd"; all for "both"."""
    return [name for name in names if scale in (None, "both") or f"_{scale}" in name]


def _load_records(args) -> tuple[tables.RecordTable, str, list[str]]:
    """The records of ``--csv``, the file's digest and the load warnings; ``--smoothing`` first."""
    tables.check_smoothing(args.smoothing)  # before the read; its overflow rule needs M
    records = tables.read_records_csv(args.csv)
    warnings = []
    if args.relabel_exposure:
        records = tables.swap_exposure_records(records)
        warnings.append("exposure codes relabeled (0 <-> 1)")
    return records, report.digest_file(args.csv), warnings


def _inputs(args) -> tuple[dict, int, str | None, list[str]]:
    """Effects, strata, digest and warnings of the records of ``--csv`` or the estimates given.

    With ``--csv``: the :func:`~medsens.bounds.bound_report` of every
    stratum, their count, the file's digest and the load warnings.  Without
    it: each flag of ``args.estimates`` given, as the array ``[point, *ci]``
    that one :func:`~medsens.bounds.adjust` call bounds, as one stratum with
    no digest or warnings.  First the flags of the mode not in use (with
    ``--csv`` the estimates and their ``-ci`` limits, else the record flags
    and ``--scale``) are refused where set, on or nonzero: nothing reads them.
    """
    records = args.csv is not None
    for flag in [f + ci for f in args.estimates for ci in ("", "-ci")] if records else (
            "--relabel-exposure", "--smoothing", "--scale"):
        if getattr(args, _dest(flag), None):
            use = "not used with --csv; give one or the other" if records else "only used with --csv"
            raise MedsensError(f"{args.command}: {flag} is {use}")
    if records:
        table, digest, warnings = _load_records(args)
        y, w = tables.estimate_from_records(table, args.smoothing)
        return bounds.bound_report(y, w), len(y), digest, warnings
    effects = {_dest(flag): v for flag in args.estimates
               if (v := _check_observed(args, flag)) is not None}
    if not effects:
        raise MedsensError(f"{args.command} needs {' or '.join(('--csv', *args.estimates))}")
    return effects, 1, None, []


def _spec(args) -> bounds.SensitivitySpec | None:
    """The sensitivity parameters ``--rr-au`` and ``--rr-uy``: both, or None for neither."""
    if (args.rr_au is None) != (args.rr_uy is None):
        raise MedsensError(f"{args.command} needs both --rr-au and --rr-uy or neither")
    return None if args.rr_au is None else bounds.SensitivitySpec(args.rr_au, args.rr_uy)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_estimate(args) -> int:
    stats, strata, digest, warnings = _inputs(args)
    columns = {"c": np.arange(strata)}
    columns.update((f, stats[f]) for f in _of_scale(bounds.EFFECT_STATS, args.scale))
    if args.format == "csv":
        report.write_csv(sys.stdout, list(columns), [list(columns.values())])
        return 0
    rows = [dict(zip(columns, row)) for row in zip(*(v.tolist() for v in columns.values()))]
    report.write_json(sys.stdout, args.command,
                      {"strata": rows, "smoothing": args.smoothing, "mode": "probability"},
                      input_digest=digest, warnings=warnings)
    return 0


def _bound_payload_tables(stats, strata, spec, scale):
    """Per-stratum bounds and Cornfield thresholds at the null, and the envelopes across strata."""
    stats = stats | bounds.adjust(stats, spec)
    # at a target of 0, n10 / (0.0 + n00) is nde_rr itself: both scales share these thresholds
    null = asdict(bounds.cornfield_rd(stats["n10"], stats["n00"], 0.0))
    values = {name: v.tolist() for name, v in (stats | null).items()}
    scales = ("rr", "rd") if scale in (None, "both") else (scale,)
    observed, bounded = _of_scale(bounds.EFFECT_STATS, scale), _of_scale(bounds.BOUND_STATS, scale)
    rows = []
    for c in range(strata):
        row = {"c": c, "observed": {f: values[f][c] for f in observed}, "bf": values["bf"]}
        row |= {f: values[f][c] for f in bounded}
        row |= {f"cornfield_{s}": {name: values[name][c] for name in null} for s in scales}
        rows.append(row)
    payload = {"strata": rows, "rr_au": spec.rr_au, "rr_uy": spec.rr_uy}
    if "rr" in scales:
        payload["envelopes"] = bounds.stratum_envelopes(stats)
    return payload


def _cmd_bound(args) -> int:
    spec = _spec(args)
    effects, strata, digest, warnings = _inputs(args)
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
    report.write_json(sys.stdout, args.command, payload, input_digest=digest, warnings=warnings)
    return 0


def _cmd_cornfield(args) -> int:
    if args.fixed_param is not None:
        bounds._check_param(args.fixed_param, "--fixed-param")
    if args.csv is not None and args.target is not None:
        bounds.check_target(args.target)  # before the records are read
    effects, strata, digest, warnings = _inputs(args)
    if args.csv is not None:
        target = 0.0 if args.target is None else args.target
        th = asdict(bounds.cornfield_rd(effects["n10"], effects["n00"], target))
        rows = [{"c": c, "target_nde_rd": target, **dict(zip(th, row))}
                for c, row in enumerate(zip(*(v.tolist() for v in th.values())))]
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
    report.write_json(sys.stdout, args.command, payload,
                      input_digest=digest or report.digest_params(payload), warnings=warnings)
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
    effects, strata, digest, warnings = _inputs(args)
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
        report.write_json(sys.stdout, args.command, {"header": header, "rows": rows},
                          input_digest=digest, warnings=warnings)
    else:
        report.write_csv(sys.stdout, header, blocks)
    return 0


def _cmd_parametric(args) -> int:
    rows = loglinear.collider_ratio_grid(beta_c=args.beta_c)
    if args.format == "json":
        report.write_json(sys.stdout, args.command, {"rows": rows, "beta_c": args.beta_c},
                          input_digest=report.digest_params({"beta_c": args.beta_c}))
    else:
        header = list(rows[0])
        report.write_csv(sys.stdout, header, [[np.array([r[h] for r in rows]) for h in header]])
    return 0


def _cmd_oracle(args) -> int:
    seed = _run_seed(args)
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "seed")}
    result = oracle.validity_battery(seed, **params)
    report.write_json(sys.stdout, args.command, result,
                      input_digest=report.digest_params(result["config"]), seed=seed)
    # config counts nothing, a skipped stage is None, and sharpness_search raises on its own
    return 4 if any(isinstance(s, dict) and s.get("violations") for s in result.values()) else 0


def _cmd_bootstrap(args) -> int:
    seed = _run_seed(args)
    spec = _spec(args)
    bootstrap_mod.check_plan(args.replicates, args.level)
    records, digest, warnings = _load_records(args)
    result = bootstrap_mod.run_bootstrap(records, args.replicates, args.level, seed,
                                         smoothing=args.smoothing, spec=spec)
    strata = [{"c": c, "stats": {k: dict(zip(("lower", "point", "upper"), v)) for k, v in s.items()}}
              for c, s in result.intervals.items()]
    payload = {"replicates": result.replicates, "level": result.level,
               "degenerate_redraws": result.degenerate_redraws, "strata": strata}
    report.write_json(sys.stdout, args.command, payload, input_digest=digest, seed=seed,
                      warnings=warnings)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medsens", allow_abbrev=False,
        description="Sensitivity bounds for natural direct and indirect effects "
        "under unmeasured mediator-outcome confounding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, records=None, estimates=(), ci=False, params=None,
                scale=False, seed=False, formats=()):
        """The subcommand ``name``, taking the shared flag groups asked for and no other.

        ``records`` (``--csv``) and ``params`` (``--rr-au`` and ``--rr-uy``) are
        None to leave out the group, else "required" or "optional".  ``estimates``
        (with ``-ci`` limits where ``ci``) are stored as ``args.estimates`` where
        ``records`` is given, empty for a command with records alone.
        """
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        if records is not None:
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
        if records is not None:
            p.add_argument("--csv", required=records == "required", help="records a,m,y,c[,count]")
        if params is not None:
            p.add_argument("--rr-au", type=float, required=params == "required",
                           help="exposure-confounder parameter (>= 1, 'inf' allowed)")
            p.add_argument("--rr-uy", type=float, required=params == "required",
                           help="confounder-outcome parameter (>= 1, 'inf' allowed)")
        if records is not None:
            p.set_defaults(estimates=estimates)
        for flag in estimates:
            p.add_argument(flag, type=float, help=f"observed {flag[2:5].upper()} on the ratio scale")
            if ci:
                p.add_argument(f"{flag}-ci", type=float, nargs=2, metavar=("LO", "HI"),
                               help=f"confidence limits of {flag}")
        return p

    command("estimate", _cmd_estimate, "observed effects per stratum from record data",
            records="required", scale=True, formats=("json", "csv"))

    command("bound", _cmd_bound, "bounding factor and adjusted effect bounds", records="optional",
            estimates=("--nde-rr", "--nie-rr"), ci=True, params="required", scale=True)

    p = command("cornfield", _cmd_cornfield,
                "confounder-strength thresholds to reach a target effect", records="optional",
                estimates=("--nde-rr",))
    p.add_argument("--target", type=float,
                   help="target true effect (default 1 on rr scale, 0 on rd scale)")
    p.add_argument("--fixed-param", type=float,
                   help="solve for the partner of this fixed sensitivity parameter")

    p = command("sweep", _cmd_sweep, "bounds over a grid of sensitivity parameters",
                records="optional", estimates=("--nde-rr", "--nie-rr"), formats=("csv", "json"))
    for flag in ("--rr-au-grid", "--rr-uy-grid"):
        p.add_argument(flag, required=True, help="comma-separated strictly ascending values >= 1")

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
                records="required", params="optional", seed=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--level", type=float, default=0.95)

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
