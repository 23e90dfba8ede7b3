"""References that several test files share.

Most are a plain, independent route to a quantity the package computes
another way, so a test can compare the two.  The last three are views of the
oracle that only tests use: the collider parameter per mediator level, the
two-point family that attains the scalar ratio bound, and the recipe models
that attain the Cornfield thresholds.
"""

import numpy as np

from medsens.bounds import cornfield_rr, required_partner
from medsens.errors import BadParameter, ZeroDenominator
from medsens.oracle import Scm, _posterior_ratios, _ratio_scm, recipe_scm, verify_bounds
from medsens.tables import ConditionalModel, RecordTable


def stratum_effects(model: ConditionalModel, c: int) -> dict:
    """The sums and six effects of stratum ``c`` alone, by the paper's formulas, in Python floats.

    The reference for :func:`medsens.bounds.bound_report`, with its keys and
    its two zero-denominator messages.  Each sum adds its terms in order of
    m, as numpy adds an axis of fewer than 8 entries, so the values are the
    library's to the bit there.
    """
    (y0, y1), (w0, w1) = model.y[c].tolist(), model.w[c].tolist()
    n10 = n00 = n11 = 0.0
    for m in range(len(w0)):
        n10 += y1[m] * w0[m]
        n00 += y0[m] * w0[m]
        n11 += y1[m] * w1[m]
    if n00 == 0.0:
        raise ZeroDenominator(f"outcome marginal pr(Y=1|a=0) is 0 in stratum c={c}")
    if n10 == 0.0:
        raise ZeroDenominator(f"cross-world outcome term for a=1, mediator under a=0, c={c} is 0")
    nde_rr, nie_rr, nde_rd, nie_rd = n10 / n00, n11 / n10, n10 - n00, n11 - n10
    return {"n10": n10, "n00": n00, "n11": n11, "nde_rr": nde_rr, "nie_rr": nie_rr,
            "te_rr": nde_rr * nie_rr, "nde_rd": nde_rd, "nie_rd": nie_rd, "te_rd": nde_rd + nie_rd}


def plain_bounds(e: dict, bf) -> dict:
    """The four bounds of effects ``e`` at bounding factor ``bf``, by the paper's formulas.

    The reference for :func:`medsens.bounds.adjust`; keys in ``BOUND_STATS`` order.
    """
    return {"nde_rr_lower": e["nde_rr"] / bf, "nie_rr_upper": e["nie_rr"] * bf,
            "nde_rd_lower": e["n10"] / bf - e["n00"], "nie_rd_upper": e["n11"] - e["n10"] / bf}


def worked_model() -> ConditionalModel:
    """The one-stratum worked example: pr(Y=1|a=0) = 0.275 and pr(Y=1|a=1) = 0.7."""
    return ConditionalModel(y=[[[0.2, 0.5], [0.4, 0.8]]], w=[[[0.75, 0.25], [0.25, 0.75]]])


def expand_to_records(model: ConditionalModel, denominator: int) -> RecordTable:
    """Exact inverse of :func:`medsens.tables.estimate_from_records` for rational tables.

    Fills cell counts ``denominator * pr(m|a,c) * pr(y|a,m,c)``; every
    such product must be an integer (within 1e-6), otherwise the model
    cannot be represented by weighted records and :class:`BadParameter`
    is raised.  Only meaningful in probability mode.
    """
    if model.mode != "probability":
        raise BadParameter("only probability-mode models expand to binary-outcome records")
    if denominator < 1:
        raise BadParameter("denominator must be a positive integer")
    raw = denominator * model.w[..., None] * np.stack([1.0 - model.y, model.y], axis=-1)
    counts = np.round(raw)
    bad = np.abs(raw - counts) > 1e-6
    if bad.any():
        c, a, m, y = np.argwhere(bad)[0]
        count = float(raw[c, a, m, y])
        raise BadParameter(f"cell a={a},m={m},y={y},c={c}: {count!r} is not an integer count")
    return RecordTable(counts.astype(np.int64))


def rr_au_posterior_per_mediator(scm: Scm) -> dict[int, float]:
    """Collider parameter per mediator level, posterior form.

    For each m reachable under both arms: max over u of
    pr(u|A=1,m) / pr(u|A=0,m), computed by Bayes' rule.  Works with or
    without exposure-confounder dependence.  For a batch, the keys are the
    levels reachable in some model, with 0 for the models where they are not.
    :func:`medsens.oracle.rr_au_posterior` is the maximum of these.
    """
    per_m, live = _posterior_ratios(scm)
    return {m: per_m[..., m][()] for m in range(scm.m_card) if live[..., m].any()}


def bernoulli_instance(density_ratio: float, weight_spread: float) -> Scm:
    """The two-point family attaining the scalar ratio bound with equality, as a model.

    f1 concentrates on u=1, f0 gives that level mass 1/density_ratio, and
    r spreads by weight_spread; the weighted-mean ratio sum(r f1) / sum(r f0),
    the model's observed NDE_rr, then equals bf(density_ratio, weight_spread),
    so the first check of :func:`medsens.oracle.verify_bounds`, its
    ``nde_rr_lower`` against the true NDE_rr of 1, holds with equality.
    """
    if not (density_ratio >= 1.0 and weight_spread >= 1.0):  # NaN fails too
        raise BadParameter("density_ratio and weight_spread must be at least 1")
    return _ratio_scm(
        f0=(1.0 - 1.0 / density_ratio, 1.0 / density_ratio),
        f1=(0.0, 1.0),
        r=(1.0, weight_spread),
    )


#: posterior masses of the sharpness recipe, approaching 1, at which a threshold is checked
CORNFIELD_MASSES = (1 - 1e-3, 1 - 1e-5, 1 - 1e-7)


def assert_cornfield_thresholds_attained(obs: float, target: float) -> None:
    """The Cornfield thresholds of ``obs`` down to ``target`` are sharp, by the oracle.

    Parameters at the thresholds give bf = obs / target: both at
    ``max_must_exceed``, and 4 with its :func:`required_partner`.  At each,
    the recipe models over ``CORNFIELD_MASSES`` hold every check, have the
    true NDE_rr ``target``, and have an observed NDE_rr that rises toward
    ``obs`` and is within 1e-7 of it at the last mass.  So no threshold can
    be raised: a confounder at it explains ``obs`` down to ``target`` in
    the limit.
    """
    t = cornfield_rr(obs, target).max_must_exceed
    for rr_au, rr_uy in ((t, t), (4.0, required_partner(4.0, obs / target))):
        report = verify_bounds(recipe_scm(rr_au, rr_uy, CORNFIELD_MASSES, target_nde_rr=target))
        assert report.all_hold
        true, observed = report.true["nde_rr"], report.observed["nde_rr"]
        assert np.all(np.abs(true - target) <= 1e-15 * target), (rr_au, rr_uy, true)
        assert np.all(np.diff(observed) > 0.0), (rr_au, rr_uy, observed)
        assert abs(observed[-1] - obs) <= 1e-7 * obs, (rr_au, rr_uy, observed)
