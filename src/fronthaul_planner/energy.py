"""Power and cost parameters and the symmetric energy-efficiency objective.

Energy efficiency is delivered bits per Joule: bandwidth times sum rate
over total consumed power plus a deployment-cost penalty for the fronthaul
links. In the symmetric (equal-gain) network it collapses to seven
aggregate scalars and a two-variable objective in the fiber capacity
coefficient and the fiber count, which is what the planner optimizes.
"""

from dataclasses import dataclass

import numpy as np

from .fronthaul import quantization_noise_var
from .rate import rate_from_sinr

# Link capacities are carried in bits/s/Hz; bandwidth * capacity is bps and
# the traffic-dependent power is specified per Gbps.
GBPS_PER_BPS = 1e-9


@dataclass(frozen=True)
class PowerCostParams:
    """Power and deployment-cost model of APs and fronthaul links.

    p_circuit and p0 are per-AP constant powers (Watt). p_fh_fso / p_fh_of
    are traffic-dependent link powers in Watt per Gbps; mu_fso / mu_of are
    deployment-cost coefficients in Watt per bps/Hz. FSO links cost less to
    deploy but burn more power per bit than fiber.
    """

    p_circuit: float
    p0: float
    p_fh_fso: float
    p_fh_of: float
    mu_fso: float
    mu_of: float
    b_s: float

    def __post_init__(self):
        vals = (self.p_circuit, self.p0, self.p_fh_fso, self.p_fh_of,
                self.mu_fso, self.mu_of, self.b_s)
        if any(v < 0 for v in vals):
            raise ValueError("power and cost parameters must be nonnegative")
        if self.mu_fso > self.mu_of:
            raise ValueError("mu_fso must not exceed mu_of")
        if self.p_fh_fso < self.p_fh_of:
            raise ValueError("p_fh_fso must be at least p_fh_of")


@dataclass(frozen=True)
class AggregateParams:
    """Scalars of the symmetric-network objective and the network they model.

    l1 is the coherent-gain numerator scale and l2 the interference plus
    receiver-noise floor of the SINR. alpha_fso is the quantization penalty
    of one FSO link; a fiber at coefficient n contributes
    alpha_of / (2^(n c_fso) - 1). gamma_ep collects the link-independent
    power, gamma_fso / gamma_of the per-link power-plus-cost rates. m APs
    serve k users over bandwidth b_s (Hz) with FSO capacity c_fso.

    The power-control-dependent fields l1, l2, alpha_fso, alpha_of and
    gamma_ep may be arrays (aggregate_params with an eta array), and
    symmetric_terms then broadcasts over them.
    """

    l1: float
    l2: float
    alpha_fso: float
    alpha_of: float
    gamma_ep: float
    gamma_fso: float
    gamma_of: float
    m: int
    k: int
    b_s: float
    c_fso: float


def aggregate_params(beta_scalar, sig, pc, m, k, c_fso, *, eta=None):
    """Aggregate scalars for a symmetric network with gain beta_scalar.

    Requires equal power control and equal noise across the network; the
    per-user and per-AP structure then collapses to seven scalars. m and k
    must be the AP and user counts of sig; b_s is taken from pc. An eta
    array in [0, 1] stands in for sig's power control: the fields that
    depend on it become arrays of its shape, each entry the bits of the
    scalar aggregate at that eta. A gain whose aggregates overflow, or
    whose interference-plus-noise floor l2 rounds to 0, is rejected.
    """
    if (m, k) != (sig.m, sig.k):
        raise ValueError("m and k must be the AP and user counts of sig")
    if beta_scalar <= 0:
        raise ValueError("beta_scalar must be positive")
    if c_fso <= 0:
        raise ValueError("c_fso must be positive")
    delta_sq = float(sig.delta_sq[0])
    if not (np.all(sig.eta == sig.eta[0]) and np.all(sig.delta_sq == delta_sq)):
        raise ValueError("aggregate parameters require symmetric eta and delta_sq")
    if eta is None:
        eta = float(sig.eta[0])
    elif not np.all((eta >= 0) & (eta <= 1)):
        raise ValueError("eta must lie in [0, 1]")
    beta = float(beta_scalar)
    try:
        beta_sq = beta ** 2
    except OverflowError:
        beta_sq = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        l1 = m ** 2 * sig.rho_u * eta * beta_sq
        l2 = m * k * sig.rho_u * eta * beta_sq + m * delta_sq * beta
        alpha_of = (k * sig.rho_u * eta * beta + delta_sq) * beta
        alpha_fso = quantization_noise_var(alpha_of, c_fso)
    if not (np.all(np.isfinite([l1, l2, alpha_of, alpha_fso])) and np.all(l2 > 0)):
        raise ValueError(f"gain 'beta_scalar' = {beta:g} is out of scale: "
                         "the symmetric aggregates leave the float range")
    gamma_ep = k * sig.rho_u * eta + m * (pc.p_circuit + pc.p0)
    gamma_fso = c_fso * (pc.b_s * pc.p_fh_fso * GBPS_PER_BPS + pc.mu_fso)
    gamma_of = c_fso * (pc.b_s * pc.p_fh_of * GBPS_PER_BPS + pc.mu_of)
    return AggregateParams(l1, l2, alpha_fso, alpha_of, gamma_ep, gamma_fso,
                           gamma_of, m, k, pc.b_s, c_fso)


def symmetric_terms(n, m_of, agg):
    """Energy efficiency (bits/J) and sum rate (bits/s/Hz) at (n, m_of).

    Vectorized over n and m_of (broadcasting); returns (ee, sum_rate). m_of = 0
    makes both independent of n; n = 0 with m_of > 0 is rejected (a
    zero-capacity fiber has unbounded distortion), and so is any cell whose
    power plus cost is not positive. The checks on n and on m_of, and the
    per-n part 2^(n c_fso) - 1, run on each argument's own shape, so an
    (R, 1) column of n and a (1, C) row of m_of pay them once per row or
    column, not once per cell; every cell has the bits of its scalar call.
    """
    n_arr = np.asarray(n, dtype=float)
    m_arr = np.asarray(m_of, dtype=float)
    if np.any(n_arr < 0):
        raise ValueError("n must be nonnegative")
    if np.any((m_arr < 0) | (m_arr > agg.m)):
        raise ValueError("m_of must lie in [0, m]")
    fiber = m_arr > 0
    cap = n_arr * agg.c_fso
    with np.errstate(over="ignore"):
        # the ufunc on scalars too: a scalar's own power may differ in the
        # last bit from the array loop's
        den = np.power(2.0, cap) - 1.0
    if not np.all(den > 0):
        # n is 0, NaN or too small for 2^C - 1: rejected, as by
        # quantization_noise_var, only where a fiber link exists
        fiber_b, n_b, cap_b = np.broadcast_arrays(fiber, n_arr, cap)
        if np.any(fiber_b & (n_b == 0)):
            raise ValueError("n = 0 with fiber links deployed is out of model")
        quantization_noise_var(0.0, cap_b[fiber_b])
    # no fiber, no fiber term: 0 where m_of = 0, whatever n's den
    with np.errstate(divide="ignore", invalid="ignore"):
        fiber_gain = np.where(fiber, m_arr * agg.alpha_of / den, 0.0)
    sinr = agg.l1 / (agg.l2 + (agg.m - m_arr) * agg.alpha_fso + fiber_gain)
    power = agg.gamma_ep + (agg.m - m_arr) * agg.gamma_fso + n_arr * m_arr * agg.gamma_of
    if np.any(power <= 0):
        raise ValueError("power plus cost must be positive")
    del fiber_gain  # a grid-sized temporary, freed before the rate arrays
    rate = rate_from_sinr(sinr)
    return agg.k * agg.b_s * rate / power, agg.k * rate


def ee_symmetric(n, m_of, agg, m, k, b_s, c_fso):
    """Symmetric-network energy efficiency at (n, m_of), as symmetric_terms.

    m, k, b_s and c_fso restate the aggregate's network and must equal it.
    """
    if (m, k, b_s, c_fso) != (agg.m, agg.k, agg.b_s, agg.c_fso):
        raise ValueError("(m, k, b_s, c_fso) does not match the aggregate's network")
    out = symmetric_terms(n, m_of, agg)[0]
    return out if out.ndim else float(out)
