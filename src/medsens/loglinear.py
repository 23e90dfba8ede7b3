"""Collider-bias sensitivity parameter under a binary-mediator log-linear model.

Model: a binary mediator with

    pr(M=1 | a, c, u) = exp(beta0 + beta1*a + beta_c + beta3*u),

where u is an unmeasured Bernoulli(1/2) confounder independent of the
covariates and beta_c collapses the covariate contribution to a scalar
offset.  Marginalizing u leaves another log-linear model whose intercept
shifts by the cumulant value K(beta3) = log((1 + e^beta3)/2).

Every pr(M=1 | a, c, u) must be below 1: a coefficient set that reaches 1
in any cell is refused with :class:`~medsens.errors.Infeasible`, naming it.
Under this model the exposure-confounder association created by
conditioning on the mediator has a closed form: it is exactly 1 within the
M=1 stratum (ratio-scale effects of a on M=1 do not involve u), and within
M=0 it is a ratio of four survivor terms 1 - e^(linear predictor) evaluated
at the worst-case u, which is u=0 when beta1*beta3 >= 0 and u=1 otherwise.

:func:`rr_au_loglinear` implements the closed form, one value per
coefficient entry; :func:`_rr_au_loglinear_bruteforce` builds the same
two-point models as an oracle :class:`~medsens.oracle.Scm` batch and
evaluates the defining posterior ratio through
:func:`~medsens.oracle.rr_au_posterior`.  The two must agree to ~1e-10,
which pins down the intercept convention: ``beta0`` is the conditional
intercept and the marginal intercept is derived from it.

:func:`interaction_bound` is model-free: for any positive mediator
probability grids p[..., a, u] it bounds the collider ratio by the worst
ratio-scale interaction of a and u, whatever the prior on u.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass

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

#: the exposure a down, the confounder u across: linear predictors broadcast to [..., a, u]
_A, _U = np.array([[0.0], [1.0]]), np.array([0.0, 1.0])
#: libm's e^x elementwise, as Python floats: ``np.exp`` may differ from it in the last bit, by CPU
_exp = np.frompyfunc(math.exp, 1, 1)


def _cumulant_k(t):
    """log((1 + e^t) / 2), elementwise, evaluated stably for large |t|."""
    if np.isnan(t).any():
        raise BadParameter(f"t must be a real number, got {t!r}")
    return np.logaddexp(0.0, t) - math.log(2.0)


@dataclass(frozen=True, eq=False)
class LogLinearSpec:
    """Coefficients of the conditional log-linear mediator model.

    beta0 is the conditional intercept (given u); the marginal intercept is
    beta0 + K(beta3).  beta_c is the per-stratum covariate offset.  Each is
    a float, or an array of values evaluated elementwise, as
    :class:`~medsens.bounds.SensitivitySpec`'s may be; they broadcast together.
    """

    beta0: float
    beta1: float
    beta3: float
    beta_c: float = 0.0

    def __post_init__(self) -> None:
        for name in ("beta0", "beta1", "beta3", "beta_c"):
            v = np.asarray(getattr(self, name), dtype=object)
            bad = [x for x in v.flat if not (isinstance(x, numbers.Real) and math.isfinite(x))]
            if bad:
                raise BadParameter(f"{name} must be a finite real, got {bad[0]!r}")
            # a float32 coefficient would keep the closed forms in single precision
            object.__setattr__(self, name, v.astype(float) if v.ndim else float(v))


def _probabilities(lp: np.ndarray, cell: str) -> np.ndarray:
    """e^lp, the mediator probabilities of the linear predictors ``lp``; each must be below 1.

    The first at or above 1 is refused with :class:`Infeasible`, named
    through the template ``cell`` (see :func:`~medsens.tables.first_cell`).
    A positive predictor is refused without forming e^lp, which may overflow.
    """
    p = _exp(np.minimum(lp, 0.0)).astype(float)
    bad = p >= 1.0
    if bad.any():
        raise Infeasible(f"{first_cell(cell, bad)}: linear predictor {float(lp[bad][0])!r} "
                         "gives a probability >= 1")
    return p


def rr_au_loglinear(spec: LogLinearSpec) -> float:
    """Closed-form collider-bias parameter max{1, ratio within M=0}, one per coefficient entry.

    Within M=0 the ratio compares the conditional effect of the exposure on
    the mediator at the worst-case confounder level against the marginal
    effect; within M=1 the log-linear structure cancels it to 1.
    """
    b0, b1, b3, bc = (np.asarray(v)[..., None, None] for v in astuple(spec))
    p = _probabilities(b0 + bc + b3 * _U + b1 * _A, "cell a={}, u={}")  # [..., a, u]
    s = 1.0 - np.where((b1 * b3 >= 0)[..., 0], p[..., 0], p[..., 1])  # [..., a], at the worst u
    m = 1.0 - _probabilities((b0 + _cumulant_k(b3) + bc + b1 * _A)[..., 0], "marginal model, a={}")
    return np.maximum(1.0, (s[..., 1] / s[..., 0]) / (m[..., 1] / m[..., 0]))[()]


def _rr_au_loglinear_bruteforce(beta0, beta1, beta3, beta_c=0.0):
    """Collider-bias parameter from the defining posterior ratio, one per coefficient entry.

    The coefficients broadcast to one batch of exact two-point models
    (u ~ Bernoulli(1/2), exposure independent of u, pr(M=1|a,u) = e^(linear
    predictor)), whose posterior ratio max pr(u|a=1,m)/pr(u|a=0,m)
    :func:`~medsens.oracle.rr_au_posterior` evaluates.  Serves as the
    independent check of :func:`rr_au_loglinear`.
    """
    b0, b1, b3, bc = (v[..., None, None] for v in np.broadcast_arrays(beta0, beta1, beta3, beta_c))
    p = _probabilities(b0 + b1 * _A + bc + b3 * _U, "cell a={}, u={}")  # [..., a, u]
    scm = Scm(u_given_a=np.full(p.shape, 0.5), m_given=np.stack([1.0 - p, p], axis=-1),
              y_given=np.full((*p.shape, 2), 0.5))
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
    pairs = np.repeat(DEFAULT_INTERCEPT_EXPOSURE_PAIRS, len(DEFAULT_CONFOUNDER_COEFFS), axis=0)
    beta3 = np.tile(DEFAULT_CONFOUNDER_COEFFS, len(DEFAULT_INTERCEPT_EXPOSURE_PAIRS))
    spec = LogLinearSpec(*pairs.T, beta3, beta_c)
    check = _rr_au_loglinear_bruteforce(spec.beta0, spec.beta1, spec.beta3, spec.beta_c)
    rr = rr_au_loglinear(spec)
    bad = np.abs(rr - check) > EQUIV_TOL * np.maximum(1.0, np.abs(check))
    if bad.any():
        i = np.argmax(bad)
        raise InternalCheckError(
            f"closed form {float(rr[i])!r} and brute force {float(check[i])!r} disagree at "
            f"beta0={spec.beta0[i]}, beta1={spec.beta1[i]}, beta3={spec.beta3[i]}"
        )
    columns = {"beta0": spec.beta0, "beta1": spec.beta1, "beta3": spec.beta3, "rr_au": rr,
               "ratio_to_exp_beta3": rr / _exp(spec.beta3),
               "ratio_to_exp_beta1": rr / _exp(spec.beta1)}
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
