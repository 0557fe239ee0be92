"""Closed-form uplink SINR and rates, with Monte-Carlo validation.

The central unit combines the quantized AP signals with maximum-ratio
weights and decodes each user against the statistical mean of its effective
channel (a use-and-forget style bound). The resulting SINR splits into a
coherent-gain numerator and three variance terms: beamforming uncertainty,
inter-user interference and aggregated receiver plus quantization noise.
Each term has a closed form in the link gains, checked here term by term
against simulation.
"""

from dataclasses import dataclass

import numpy as np

from .seeds import derive_rng


@dataclass(frozen=True, eq=False)
class SinrBreakdown:
    """Term-wise SINR decomposition for one user.

    interference_var holds one entry per interfering user; the entry for
    the user itself is zero so the vector can be summed directly.
    """

    ds_sq: float
    bu_var: float
    interference_var: np.ndarray
    noise_var: float

    def __post_init__(self):
        iv = np.atleast_1d(np.asarray(self.interference_var, dtype=float))
        object.__setattr__(self, "interference_var", iv)
        if self.ds_sq < 0 or self.bu_var < 0 or self.noise_var < 0 or np.any(iv < 0):
            raise ValueError("all SINR terms must be nonnegative")

    @property
    def sinr(self):
        den = self.bu_var + float(np.sum(self.interference_var)) + self.noise_var
        return self.ds_sq / den

    @property
    def rate(self):
        return rate_from_sinr(self.sinr)


@dataclass(frozen=True, eq=False)
class RateResult:
    """Per-user achievable rates in bits/s/Hz."""

    per_user_rate: np.ndarray

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.per_user_rate, dtype=float))
        object.__setattr__(self, "per_user_rate", r)
        if np.any(r < 0):
            raise ValueError("rates must be nonnegative")

    @property
    def sum_rate(self):
        return float(np.sum(self.per_user_rate))


def rate_from_sinr(gamma):
    """Achievable rate log2(1 + gamma) in bits/s/Hz."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma must be nonnegative")
    out = np.log2(1.0 + g)
    return out if out.ndim else float(out)


def sinr_closed_form(beta, sig, distortions, k):
    """Closed-form SINR terms for user k.

    With gains beta (M x K), signal parameters sig and per-AP quantization
    noise D (length M):

      ds_sq            = rho_u eta_k (sum_m beta_mk)^2
      bu_var           = rho_u eta_k sum_m beta_mk^2
      interference[k'] = rho_u eta_k' sum_m beta_mk' beta_mk
      noise_var        = sum_m (delta_sq_m + D_m) beta_mk
    """
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    D = np.atleast_1d(np.asarray(distortions, dtype=float))
    m, n_users = beta.shape
    if not 0 <= k < n_users:
        raise ValueError(f"user index {k} out of range for K = {n_users}")
    if D.shape[0] != m:
        raise ValueError("distortions must have one entry per AP")
    col = beta[:, k]
    ds_sq = sig.rho_u * sig.eta[k] * np.sum(col) ** 2
    bu_var = sig.rho_u * sig.eta[k] * np.sum(col ** 2)
    interference = sig.rho_u * sig.eta * (beta.T @ col)
    interference[k] = 0.0
    noise_var = float(np.sum((sig.delta_sq + D) * col))
    return SinrBreakdown(float(ds_sq), float(bu_var), interference, noise_var)


def per_user_sinrs(beta, sig, distortions):
    """Vector of closed-form SINRs for all K users."""
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    D = np.atleast_1d(np.asarray(distortions, dtype=float))
    num = sig.rho_u * sig.eta * np.sum(beta, axis=0) ** 2
    per_ap = sig.rho_u * (beta @ sig.eta) + sig.delta_sq + D
    den = per_ap @ beta
    return num / den


def achievable_rates(beta, sig, distortions):
    """Per-user rates through the closed-form SINR."""
    return RateResult(rate_from_sinr(per_user_sinrs(beta, sig, distortions)))


def mc_validate_terms(beta, sig, distortions, k, trials, seed,
                      chunk=20000, per_trial_distortion=False):
    """Empirical SINR terms for user k from simulated combining.

    Simulates the combined signal with fresh fast fading, receiver noise
    and Gaussian quantization noise each trial and estimates every term of
    the closed-form decomposition. Deterministic given seed; fading, noise
    and quantization use separate derived streams so results do not depend
    on the chunk size.

    With per_trial_distortion the quantization variance tracks the
    per-realization received power instead of its statistical mean (not the
    default model; kept for sensitivity checks).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    D = np.atleast_1d(np.asarray(distortions, dtype=float))
    m, n_users = beta.shape
    if not 0 <= k < n_users:
        raise ValueError(f"user index {k} out of range for K = {n_users}")
    rng_h = derive_rng(seed, "mc_channel")
    rng_w = derive_rng(seed, "mc_noise")
    rng_q = derive_rng(seed, "mc_quant")

    sqrt_beta = np.sqrt(beta)
    amp = np.sqrt(sig.rho_u * sig.eta)

    n_a = 0
    sum_a = 0.0
    sum_a2 = 0.0
    sum_i2 = np.zeros(n_users)
    sum_v2 = 0.0

    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        parts = rng_h.standard_normal((t, m, n_users, 2))
        g = sqrt_beta * (parts[..., 0] + 1j * parts[..., 1]) / np.sqrt(2.0)
        wparts = rng_w.standard_normal((t, m, 2))
        w = np.sqrt(sig.delta_sq) * (wparts[..., 0] + 1j * wparts[..., 1]) / np.sqrt(2.0)
        qparts = rng_q.standard_normal((t, m, 2))
        if per_trial_distortion:
            inst = sig.rho_u * (np.abs(g) ** 2 @ sig.eta) + sig.delta_sq
            d_var = inst * D / (sig.rho_u * (beta @ sig.eta) + sig.delta_sq)
        else:
            d_var = D
        q = np.sqrt(d_var) * (qparts[..., 0] + 1j * qparts[..., 1]) / np.sqrt(2.0)

        g_k = g[:, :, k]
        a = amp[k] * np.sum(np.abs(g_k) ** 2, axis=1)
        cross = np.einsum("tmj,tm->tj", g, np.conj(g_k))
        i_sq = np.abs(amp[None, :] * cross) ** 2
        v = np.sum((w + q) * np.conj(g_k), axis=1)

        n_a += t
        sum_a += float(np.sum(a))
        sum_a2 += float(np.sum(a ** 2))
        sum_i2 += np.sum(i_sq, axis=0)
        sum_v2 += float(np.sum(np.abs(v) ** 2))
        done += t

    mean_a = sum_a / n_a
    ds_sq = mean_a ** 2
    bu_var = max(0.0, sum_a2 / n_a - ds_sq)
    interference = sum_i2 / n_a
    interference[k] = 0.0
    noise_var = sum_v2 / n_a
    return SinrBreakdown(ds_sq, bu_var, interference, noise_var)
