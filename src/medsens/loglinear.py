"""Collider-bias sensitivity parameter under a binary-mediator log-linear model.

Model: a binary mediator with

    pr(M=1 | a, c, u) = exp(beta0 + beta1*a + beta_c + beta3*u),

where u is an unmeasured Bernoulli(1/2) confounder independent of the
covariates and beta_c collapses the covariate contribution to a scalar
offset.  Marginalizing u leaves another log-linear model whose intercept
shifts by the cumulant value K(beta3) = log((1 + e^beta3)/2).

Under this model the exposure-confounder association created by
conditioning on the mediator has a closed form: it is exactly 1 within the
M=1 stratum (ratio-scale effects of a on M=1 do not involve u), and within
M=0 it is a ratio of four survivor terms 1 - e^(linear predictor) evaluated
at the worst-case u, which is u=0 when beta1*beta3 >= 0 and u=1 otherwise.

:func:`rr_au_loglinear` implements the closed form;
:func:`_rr_au_loglinear_bruteforce` builds the same two-point models as an
oracle :class:`~medsens.oracle.Scm` batch and evaluates the defining
posterior ratio through :func:`~medsens.oracle.rr_au_posterior`.  The two
must agree to ~1e-10, which pins down the intercept convention: ``beta0``
is the conditional intercept and the marginal intercept is derived from
it.

:func:`interaction_bound` is model-free: for any positive mediator
probability grids p[..., a, u] it bounds the collider ratio by the worst
ratio-scale interaction of a and u, whatever the prior on u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, Infeasible, InternalCheckError, ZeroProbability
from .oracle import EQUIV_TOL, Scm, rr_au_posterior
from .tables import check_table, first_cell

#: the (beta0, beta1) pairs and beta3 values of the reference grid emitted
#: by the CLI `parametric` subcommand
DEFAULT_INTERCEPT_EXPOSURE_PAIRS = (
    (-2.3, 0.2),
    (-2.0, 0.2),
    (-2.3, 0.4),
    (-2.0, 0.4),
    (-2.3, 0.7),
    (-2.0, 0.7),
)
DEFAULT_CONFOUNDER_COEFFS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def _cumulant_k(t: float) -> float:
    """log((1 + e^t) / 2), evaluated stably for large |t|."""
    if math.isnan(t):
        raise BadParameter(f"t must be a real number, got {t!r}")
    if t > 0:
        return t + math.log1p(math.exp(-t)) - math.log(2.0)
    return math.log1p(math.exp(t)) - math.log(2.0)


@dataclass(frozen=True)
class LogLinearSpec:
    """Coefficients of the conditional log-linear mediator model.

    beta0 is the conditional intercept (given u); the marginal intercept is
    beta0 + K(beta3).  beta_c is the per-stratum covariate offset.
    """

    beta0: float
    beta1: float
    beta3: float
    beta_c: float = 0.0

    def __post_init__(self) -> None:
        for name in ("beta0", "beta1", "beta3", "beta_c"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise BadParameter(f"{name} must be a finite real, got {v!r}")

    def marginal_intercept(self) -> float:
        return self.beta0 + _cumulant_k(self.beta3)


def _checked_exp(lp: float, what: str) -> float:
    """e^lp as a probability; the M=0 formulas need it strictly below 1.

    A positive ``lp`` is refused without forming e^lp, which may overflow.
    """
    p = math.exp(min(lp, 0.0))
    if p >= 1.0:
        raise Infeasible(f"{what}: linear predictor {lp!r} gives a probability >= 1")
    return p


def rr_au_loglinear(spec: LogLinearSpec) -> float:
    """Closed-form collider-bias parameter max{1, ratio within M=0}.

    Within M=0 the ratio compares the conditional effect of the exposure on
    the mediator at the worst-case confounder level against the marginal
    effect; within M=1 the log-linear structure cancels it to 1.
    """
    b0p = spec.marginal_intercept()
    worst_u = 0.0 if spec.beta1 * spec.beta3 >= 0 else 1.0
    lp_base = spec.beta0 + spec.beta_c + spec.beta3 * worst_u
    num = (1.0 - _checked_exp(lp_base + spec.beta1, "conditional model, exposed")) / (
        1.0 - _checked_exp(lp_base, "conditional model, unexposed")
    )
    den = (1.0 - _checked_exp(b0p + spec.beta_c + spec.beta1, "marginal model, exposed")) / (
        1.0 - _checked_exp(b0p + spec.beta_c, "marginal model, unexposed")
    )
    return max(1.0, num / den)


def _rr_au_loglinear_bruteforce(beta0, beta1, beta3, beta_c=0.0):
    """Collider-bias parameter from the defining posterior ratio, one per coefficient entry.

    The coefficients broadcast to one batch of exact two-point models
    (u ~ Bernoulli(1/2), exposure independent of u, pr(M=1|a,u) = e^(linear
    predictor)), whose posterior ratio max pr(u|a=1,m)/pr(u|a=0,m)
    :func:`~medsens.oracle.rr_au_posterior` evaluates.  Serves as the
    independent check of :func:`rr_au_loglinear`.
    """
    b0, b1, b3, bc = (v[..., None, None] for v in np.broadcast_arrays(beta0, beta1, beta3, beta_c))
    lp = b0 + b1 * np.array([[0.0], [1.0]]) + bc + b3 * np.array([0.0, 1.0])  # [..., a, u]
    p = np.exp(np.minimum(lp, 0.0))  # as _checked_exp forms it
    if (p >= 1.0).any():
        _checked_exp(float(lp[p >= 1.0][0]), first_cell("cell a={}, u={}", p >= 1.0))
    half = np.full(lp.shape[:-1], 0.5)
    scm = Scm(u_prior=half, a_given_u=half, m_given=np.stack([1.0 - p, p], axis=-1),
              y_given=np.full((*lp.shape, 2), 0.5))
    return np.maximum(1.0, rr_au_posterior(scm))[()]


def interaction_bound(p) -> float:
    """Worst ratio-scale a-u interaction: an upper bound for the collider ratio.

    ``p[..., a, u]`` = pr(m | a, u) for one fixed mediator level, over a in
    {0, 1} and finite u, with every entry in (0, 1].  The bound is the max
    over u != u' of p[1][u] p[0][u'] / (p[0][u] p[1][u']), one value per
    leading index.  Whatever prior sits on u (with exposure independent of
    u), the posterior-ratio collider parameter for this mediator level never
    exceeds this value.  A single confounder level admits no interaction
    and returns 1.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim < 2 or p.shape[-2] != 2 or p.shape[-1] == 0:
        raise BadParameter("grid needs rows for a=0 and a=1 over a common u range")
    cell = "pr(m|a={},u={})"
    check_table(p, cell)
    if (p == 0.0).any():
        raise ZeroProbability(f"{first_cell(cell, p == 0.0)} must be strictly positive")
    p0, p1 = p[..., 0, :, None], p[..., 1, :, None]
    cross = (p1 * np.swapaxes(p0, -1, -2)) / (p0 * np.swapaxes(p1, -1, -2))  # [..., u, u']
    return cross.max(axis=(-2, -1))[()]


def collider_ratio_grid(beta_c: float = 0.0) -> list[dict[str, float]]:
    """Evaluate the closed form over the reference grid, brute-force checked as one batch.

    Each row carries the raw parameter and its ratios to e^beta3 and
    e^beta1 (both below 1 across the grid: conditioning on the mediator
    attenuates the association relative to either coefficient).  Raises
    :class:`InternalCheckError` if the closed form and the brute force
    disagree beyond ``EQUIV_TOL`` anywhere on the grid.
    """
    specs = [
        LogLinearSpec(beta0=beta0, beta1=beta1, beta3=beta3, beta_c=beta_c)
        for beta0, beta1 in DEFAULT_INTERCEPT_EXPOSURE_PAIRS
        for beta3 in DEFAULT_CONFOUNDER_COEFFS
    ]
    coeffs = np.array([(s.beta0, s.beta1, s.beta3) for s in specs]).reshape(-1, 3)
    brute = _rr_au_loglinear_bruteforce(*coeffs.T, beta_c).tolist()
    rows = []
    for spec, check in zip(specs, brute):
        rr = rr_au_loglinear(spec)
        if abs(rr - check) > EQUIV_TOL * max(1.0, abs(check)):
            raise InternalCheckError(
                f"closed form {rr!r} and brute force {check!r} disagree at "
                f"beta0={spec.beta0}, beta1={spec.beta1}, beta3={spec.beta3}"
            )
        rows.append(
            {
                "beta0": spec.beta0,
                "beta1": spec.beta1,
                "beta3": spec.beta3,
                "rr_au": rr,
                "ratio_to_exp_beta3": rr / math.exp(spec.beta3),
                "ratio_to_exp_beta1": rr / math.exp(spec.beta1),
            }
        )
    return rows
