"""Fronthaul link plans and the quantization noise they impose.

Each AP forwards its received uplink signal to the central unit over either
a free-space optical link (capacity c_fso) or a fiber (capacity
n_coeff * c_fso). Compressing the signal to fit the link adds noise whose
variance follows the Gaussian test channel of rate-distortion theory.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class FronthaulPlan:
    """Per-AP link assignment with capacities in bits/s/Hz.

    is_fiber is a 1-D boolean mask, True where the AP has a fiber link and
    False where it has an FSO link. Fiber links run at n_coeff times the
    FSO capacity; deployed plans require n_coeff >= 1.
    """

    is_fiber: np.ndarray
    c_fso: float
    n_coeff: float = 1.0

    def __post_init__(self):
        mask = np.asarray(self.is_fiber)
        if mask.dtype != bool or mask.ndim != 1:
            raise ValueError("is_fiber must be a 1-D boolean mask")
        object.__setattr__(self, "is_fiber", mask)
        if self.c_fso <= 0:
            raise ValueError("c_fso must be positive")
        if self.m_of > 0 and self.n_coeff < 1.0:
            raise ValueError("n_coeff must be >= 1 when fiber links are deployed")

    @classmethod
    def fso_first(cls, m, m_of, c_fso, n_coeff=1.0):
        """Plan with the first m - m_of APs on FSO and the rest on fiber."""
        if not 0 <= m_of <= m:
            raise ValueError("m_of must lie in [0, m]")
        return cls(np.arange(m) >= m - m_of, float(c_fso), float(n_coeff))

    @property
    def m(self):
        return self.is_fiber.shape[0]

    @property
    def m_of(self):
        return int(np.count_nonzero(self.is_fiber))

    def capacities(self):
        """Per-AP link capacity in bits/s/Hz."""
        return np.where(self.is_fiber, self.n_coeff * self.c_fso, self.c_fso)


@dataclass(frozen=True, eq=False)
class UplinkSignalParams:
    """Transmit power budget and receiver noise.

    rho_u is the maximum user transmit power in Watt, eta the per-user
    power-control coefficients in [0, 1], delta_sq the per-AP noise
    variance in Watt. Zero power or zero noise are allowed as degenerate
    limits for testing.
    """

    rho_u: float
    eta: np.ndarray
    delta_sq: np.ndarray

    def __post_init__(self):
        eta = np.atleast_1d(np.asarray(self.eta, dtype=float))
        delta = np.atleast_1d(np.asarray(self.delta_sq, dtype=float))
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "delta_sq", delta)
        if self.rho_u < 0:
            raise ValueError("rho_u must be nonnegative")
        if np.any(eta < 0) or np.any(eta > 1):
            raise ValueError("eta must lie in [0, 1]")
        if np.any(delta < 0):
            raise ValueError("delta_sq must be nonnegative")

    @classmethod
    def symmetric(cls, rho_u, eta, noise_var, m, k):
        return cls(float(rho_u), np.full(k, float(eta)), np.full(m, float(noise_var)))

    @property
    def k(self):
        return self.eta.shape[0]

    @property
    def m(self):
        return self.delta_sq.shape[0]


def received_signal_power(beta, sig):
    """Average received power E{|y_m|^2} at each AP, in Watt.

    beta is the M x K gain matrix, or a stack of them with leading batch
    axes (the result then has shape (..., M)); users, fading and noise are
    independent, so the power is rho_u * sum_k eta_k beta_mk + delta_sq_m.
    """
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    if beta.shape[-2:] != (sig.m, sig.k):
        raise ValueError(f"beta shape {beta.shape} does not match (M, K) = ({sig.m}, {sig.k})")
    return sig.rho_u * beta @ sig.eta + sig.delta_sq


def quantization_noise_var(signal_power, capacity):
    """Distortion of compressing a signal of the given power to fit a link.

    The forward Gaussian test channel (quantizer noise added to the source)
    gives D = power / (2^C - 1).
    """
    power = np.asarray(signal_power, dtype=float)
    cap = np.asarray(capacity, dtype=float)
    if np.any(power < 0):
        raise ValueError("signal_power must be nonnegative")
    if np.any(cap <= 0):
        raise ValueError("capacity must be positive")
    out = power / (2.0 ** cap - 1.0)
    return out if out.ndim else float(out)


def per_ap_distortions(beta, sig, plan):
    """Quantization noise variance D_m at every AP under the given plan.

    beta may carry leading batch axes (..., M, K); the result is (..., M).
    """
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    if plan.m != beta.shape[-2]:
        raise ValueError("plan does not cover all APs")
    power = received_signal_power(beta, sig)
    return quantization_noise_var(power, plan.capacities())
