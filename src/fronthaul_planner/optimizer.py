"""Exact and closed-form optimization of the fronthaul split.

The symmetric-network objective is maximized over the fiber capacity
coefficient n and the fiber count m_of. A grid search serves as the
independent oracle. Every step evaluates its candidate cells in one
symmetric_terms call and returns the PlanOptimum grid_search picks among
them, so one rule decides throughout: the largest EE, then the smallest n,
then the smallest m_of, NaN cells last.

The planner's steps are exact: optimal_n_closed_form maximizes the
symmetric objective itself on an N_STEP grid over [N_MIN, N_MAX], with no
log-linearization, and optimal_m_of_closed_form compares the endpoints 0
and m alone, since at fixed n the objective is quasi-convex in m_of. Given
the whole n grid, the endpoint step is the joint optimum: grid's pick over
the two endpoint columns, which is grid's pick over every column. The
paper's closed forms are reported next to these steps, not used by them:
capacity_coeff_quadratic, the stationarity condition of a log-linearized
objective written as a quadratic in chi = 2^(-n c_fso), and
fiber_count_intermediates, whose stationary point m_cont of
(kappa1 - kappa2 m)(kappa3 + kappa4 m) minimizes SINR/P where
kappa2 kappa4 > 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .energy import symmetric_terms
from .fronthaul import quantization_noise_var

LN2 = math.log(2.0)

# Bracket and grid step of the capacity coefficient searched by the
# planner's steps and by the quadratic's fallback.
N_MIN, N_MAX, N_STEP = 1.0, 10.0, 0.01
NO_FIBER = "capacity coefficient is immaterial without fiber links"


@dataclass(frozen=True)
class CapacityCoeffIntermediates:
    """Intermediates of the capacity-coefficient closed form.

    lambda1, lambda2 and lambda4 feed the quadratic u1 chi^2 + u2 chi + u3 = 0 in
    chi = 2^(-n c_fso). chi is the selected root (nan when none is valid),
    n_star the resulting coefficient clamped to [1, inf), fallback_used
    marks configurations where no real root landed in (0, 1] and a fine
    one-dimensional grid decided instead.
    """

    lambda1: float
    lambda2: float
    lambda4: float
    u1: float
    u2: float
    u3: float
    chi: float
    n_star: float
    fallback_used: bool


@dataclass(frozen=True)
class FiberCountIntermediates:
    """Intermediates of the fiber-count closed form.

    kappa1 - kappa2 * m_of is the SINR denominator and kappa3 + kappa4 * m_of
    the power-plus-cost denominator; m_cont is the unconstrained stationary
    point (nan when degenerate).
    """

    kappa1: float
    kappa2: float
    kappa3: float
    kappa4: float
    m_cont: float


@dataclass(frozen=True)
class PlanOptimum:
    """Optimization outcome: the best cell and its EE."""

    n_star: float
    m_of_star: int
    ee_star: float


def capacity_coeff_quadratic(m_of, agg):
    """Solve the capacity-coefficient stationarity quadratic for fixed m_of.

    Each real root in (0, 1] maps to n = -log2(chi) / c_fso, clamped to
    [1, inf), and grid_search picks among these n. Without a valid root,
    optimal_n_closed_form decides and fallback_used is set.
    """
    if m_of < 1:
        raise ValueError(NO_FIBER)
    lam2 = agg.l2 + (agg.m - m_of) * agg.alpha_fso
    lam4 = agg.gamma_ep + (agg.m - m_of) * agg.gamma_fso
    lam1 = 2.443 + math.log2(lam2 / agg.l1) + lam4 * agg.c_fso / (agg.gamma_of * m_of)
    scale = agg.gamma_of * agg.alpha_of * m_of
    u1 = scale * (agg.alpha_of * m_of / lam2 - 1.0 / LN2)
    u2 = scale * lam1
    u3 = scale * (lam2 / (agg.alpha_of * m_of)) * math.log2(lam2 / agg.l1)

    roots = []
    if u1 == 0.0:
        if u2 != 0.0:
            roots = [-u3 / u2]
    else:
        disc = u2 * u2 - 4.0 * u1 * u3
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots = [(-u2 + sq) / (2.0 * u1), (-u2 - sq) / (2.0 * u1)]

    chis = [r for r in roots if 0.0 < r <= 1.0]
    if chis:
        ns = [max(1.0, -math.log2(r) / agg.c_fso) for r in chis]
        n_star = _best_cell(ns, m_of, agg).n_star
        chi = chis[ns.index(n_star)]
    else:
        n_star = optimal_n_closed_form(m_of, agg).n_star
        chi = float("nan")
    return CapacityCoeffIntermediates(lam1, lam2, lam4, u1, u2, u3,
                                      chi, n_star, not chis)


def optimal_n_closed_form(m_of, agg):
    """Best fiber capacity coefficient at fixed m_of >= 1, as a PlanOptimum.

    grid_search's pick of the exact symmetric objective over grid's n grid,
    parse_range(N_MIN, N_MAX, N_STEP), evaluated in one call.
    """
    if m_of < 1:
        raise ValueError(NO_FIBER)
    return _best_cell(parse_range(N_MIN, N_MAX, N_STEP), m_of, agg)


def fiber_count_intermediates(n, agg):
    """kappa scalars and the unconstrained stationary fiber count at fixed n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    kappa1 = agg.l2 + agg.m * agg.alpha_fso
    kappa2 = agg.alpha_fso - quantization_noise_var(agg.alpha_of, n * agg.c_fso)
    kappa3 = agg.gamma_ep + agg.m * agg.gamma_fso
    kappa4 = n * agg.gamma_of - agg.gamma_fso
    if kappa2 != 0.0 and kappa4 != 0.0:
        m_cont = (kappa1 * kappa4 - kappa2 * kappa3) / (2.0 * kappa2 * kappa4)
    else:
        m_cont = float("nan")
    return FiberCountIntermediates(kappa1, kappa2, kappa3, kappa4, m_cont)


def optimal_m_of_closed_form(n, agg):
    """Best fiber count at a fixed n >= 1, or over a 1-D array of them, as
    a PlanOptimum.

    grid_search's pick among the cells (n_i, 0) and (n_i, m) in one call,
    ties to the smaller n, then the smaller count. EE, quasi-convex in
    m_of, peaks at no interior count, so over grid's n grid this is grid's
    optimum: N_MIN without fiber, where every n ties.
    """
    n = np.asarray(n, dtype=float)
    if np.any(n < 1):
        raise ValueError("n must be at least 1")
    return _best_cell(n[..., None], [0, agg.m], agg)


def _range_count(lo, hi, step):
    """The length of parse_range(lo, hi, step). Infinite or NaN parts, and
    spans too long for a float count, are rejected."""
    if not (lo <= hi and 0 < step < math.inf and math.isfinite((hi - lo) / step)):
        raise ValueError("range must be finite and satisfy lo <= hi and step > 0")
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def parse_range(lo, hi, step):
    """Inclusive arithmetic range with float-tolerant endpoint."""
    return lo + step * np.arange(_range_count(lo, hi, step))


def grid_cells(agg, n_range):
    """Exhaustive objective evaluation over {0..m} x n_range.

    Returns (n_grid, m_of_grid, ee, sum_rate) with shape
    (len(n_range), m + 1) each. The objective sees n as a column and m_of
    as a row, so its per-n part runs once per n; n_grid and m_of_grid are
    read-only broadcast views of them.
    """
    ns = np.asarray(n_range, dtype=float)[:, None]
    mofs = np.arange(0, agg.m + 1)[None, :]
    ee, sum_rate = symmetric_terms(ns, mofs, agg)
    return (*np.broadcast_arrays(ns, mofs), ee, sum_rate)


def _best_cell(n, m_of, agg):
    """grid_search's pick among the cells (n, m_of), broadcast together."""
    n = np.asarray(n, dtype=float)
    return grid_search(np.broadcast_arrays(n, m_of, symmetric_terms(n, m_of, agg)[0]))


def grid_search(cells):
    """The optimum among evaluated cells, such as grid_cells output.

    The largest EE wins, NaN cells rank last, and ties resolve to the
    smallest n, then the smallest m_of, independent of evaluation order.
    No sort and no copy of the cells: one max over them, then the
    tie-break among the cells at that max only. The sum rate is not read,
    so cells may be (n, m_of, ee) arrays alone, which is how best_of ranks
    optima.
    """
    nn, mm, ee = cells[:3]
    best = np.fmax.reduce(ee, axis=None)  # NaN only when every cell is NaN
    tied = np.unravel_index(np.flatnonzero(ee == best if best == best else np.isnan(ee)),
                            np.shape(ee))
    n_tied, m_tied = nn[tied], mm[tied]
    first = np.flatnonzero(n_tied == n_tied.min())
    idx = first[m_tied[first].argmin()]
    return PlanOptimum(float(n_tied[idx]), int(m_tied[idx]), float(ee[tied][idx]))


def best_of(optima):
    """grid_search's optimum among PlanOptimum records, in any order."""
    return grid_search([np.array(v) for v in
                        zip(*((o.n_star, o.m_of_star, o.ee_star) for o in optima))])

