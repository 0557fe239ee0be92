"""Fronthaul link plans and the quantization noise they impose.

Each AP forwards its received uplink signal to the central unit over either
a free-space optical link (capacity c_fso) or a fiber (capacity
n_coeff * c_fso). Compressing the signal to fit the link adds noise whose
variance follows the Gaussian test channel of rate-distortion theory.
"""

from dataclasses import dataclass

import numpy as np

FSO = "FSO"
FIBER = "OF"


@dataclass(frozen=True, eq=False)
class FronthaulPlan:
    """Per-AP link assignment with capacities in bits/s/Hz.

    link_types holds one tag per AP ('FSO' or 'OF'). Fiber links run at
    n_coeff times the FSO capacity; deployed plans require n_coeff >= 1.
    """

    link_types: np.ndarray
    c_fso: float
    n_coeff: float = 1.0

    def __post_init__(self):
        types = np.asarray(self.link_types, dtype=object)
        object.__setattr__(self, "link_types", types)
        bad = set(types.tolist()) - {FSO, FIBER}
        if bad:
            raise ValueError(f"unknown link type(s): {sorted(bad)}")
        if self.c_fso <= 0:
            raise ValueError("c_fso must be positive")
        if self.m_of > 0 and self.n_coeff < 1.0:
            raise ValueError("n_coeff must be >= 1 when fiber links are deployed")

    @classmethod
    def fso_first(cls, m, m_of, c_fso, n_coeff=1.0):
        """Plan with the first m - m_of APs on FSO and the rest on fiber."""
        if not 0 <= m_of <= m:
            raise ValueError("m_of must lie in [0, m]")
        types = np.array([FSO] * (m - m_of) + [FIBER] * m_of, dtype=object)
        return cls(types, float(c_fso), float(n_coeff))

    @classmethod
    def all_fso(cls, m, c_fso):
        return cls.fso_first(m, 0, c_fso)

    @property
    def m(self):
        return self.link_types.shape[0]

    @property
    def is_fiber(self):
        return self.link_types == FIBER

    @property
    def m_of(self):
        return int(np.count_nonzero(self.link_types == FIBER))

    @property
    def m_fso(self):
        return self.m - self.m_of

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

    beta is the M x K gain matrix; users, fading and noise are independent,
    so the power is rho_u * sum_k eta_k beta_mk + delta_sq_m.
    """
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    if beta.shape != (sig.m, sig.k):
        raise ValueError(f"beta shape {beta.shape} does not match (M, K) = ({sig.m}, {sig.k})")
    return sig.rho_u * beta @ sig.eta + sig.delta_sq


def quantization_noise_var(signal_power, capacity, test_channel="forward"):
    """Distortion of compressing a signal of the given power to fit a link.

    The forward test channel (quantizer noise added to the source) gives
    D = power / (2^C - 1); the reverse channel gives D = power / 2^C and is
    exposed only for sensitivity studies.
    """
    power = np.asarray(signal_power, dtype=float)
    cap = np.asarray(capacity, dtype=float)
    if np.any(power < 0):
        raise ValueError("signal_power must be nonnegative")
    if np.any(cap <= 0):
        raise ValueError("capacity must be positive")
    if test_channel == "forward":
        out = power / (2.0 ** cap - 1.0)
    elif test_channel == "reverse":
        out = power / 2.0 ** cap
    else:
        raise ValueError("test_channel must be 'forward' or 'reverse'")
    return out if out.ndim else float(out)


def per_ap_distortions(beta, sig, plan, test_channel="forward"):
    """Quantization noise variance D_m at every AP under the given plan."""
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    if plan.m != beta.shape[0]:
        raise ValueError("plan does not cover all APs")
    power = received_signal_power(beta, sig)
    return quantization_noise_var(power, plan.capacities(), test_channel)

