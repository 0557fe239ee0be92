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

# Memory budget of one Monte-Carlo chunk when no chunk size is given. A
# chunk peaks at up to MC_LINK_BYTES per link (AP-user pair) and trial: 21-32
# measured with tracemalloc at M=20, K=4 and M=100, K=10, mostly the 16 bytes
# of the fading draws; 36 leaves a margin. The default chunk is
# MC_CHUNK_BYTES over MC_LINK_BYTES M K trials.
MC_CHUNK_BYTES = 2 ** 23
MC_LINK_BYTES = 36

# Trials per summation block. Blocks start at multiples of MC_BLOCK in the
# trial index, whatever the chunk size, so every block sum and their sum in
# trial order are the same bits for any chunking.
MC_BLOCK = 256


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
    """Per-user achievable rates in bits/s/Hz.

    per_user_rate has one entry per user on its last axis; leading axes, if
    any, index a stack of drops or splits.
    """

    per_user_rate: np.ndarray

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.per_user_rate, dtype=float))
        object.__setattr__(self, "per_user_rate", r)
        if np.any(r < 0):
            raise ValueError("rates must be nonnegative")

    @property
    def sum_rate(self):
        """Sum over users: a float, or an array over the leading axes."""
        total = np.sum(self.per_user_rate, axis=-1)
        return total if total.ndim else float(total)


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
    """Vector of closed-form SINRs for all K users.

    beta may carry leading batch axes (..., M, K), and distortions (..., M)
    broadcast against them (a leading split axis, say); the result is
    (..., K), each slice equal to the call on that slice alone.
    """
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    D = np.atleast_1d(np.asarray(distortions, dtype=float))
    num = sig.rho_u * sig.eta * np.sum(beta, axis=-2) ** 2
    per_ap = sig.rho_u * (beta @ sig.eta) + sig.delta_sq + D
    den = (per_ap[..., None, :] @ beta)[..., 0, :]
    return num / den


def achievable_rates(beta, sig, distortions):
    """Per-user rates through the closed-form SINR."""
    return RateResult(rate_from_sinr(per_user_sinrs(beta, sig, distortions)))


def _pairs(scale):
    """Repeat scale over the two real components of each complex entry.

    A full (..., 2) factor keeps the in-place products on contiguous inner
    loops; a broadcast length-1 axis would run them two elements at a time.
    """
    return np.repeat(scale[..., None], 2, axis=-1)


def _mc_trial_terms(rngs, t, beta, sig, D, k):
    """The terms of t fresh trials, one column per trial.

    Rows: a = amp_k sum_m |g_mk|^2, a^2, |amp_j cross_j|^2 for each user j,
    and |v|^2. Each (..., 2) block of standard normals is viewed as complex
    and scaled in place, so beside its draws a chunk holds only a few
    arrays of M or K entries per trial, all freed on return.
    """
    rng_h, rng_w, rng_q = rngs
    m, n_users = beta.shape
    parts = rng_h.standard_normal((t, m, n_users, 2))
    parts *= _pairs(np.sqrt(beta / 2.0))
    g = parts.view(np.complex128)[..., 0]
    wq = rng_w.standard_normal((t, m, 2))
    wq *= _pairs(np.sqrt(sig.delta_sq / 2.0))
    q = rng_q.standard_normal((t, m, 2))
    q *= _pairs(np.sqrt(D / 2.0))
    wq += q

    gk_conj = np.conj(g[:, :, k])[:, None, :]
    cross = (gk_conj @ g)[:, 0, :]
    v = (gk_conj @ wq.view(np.complex128))[:, 0, 0]
    terms = np.empty((n_users + 3, t))
    # cross_k = sum_m |g_mk|^2
    terms[0] = np.sqrt(sig.rho_u * sig.eta[k]) * cross[:, k].real
    terms[1] = terms[0] ** 2
    terms[2:-1] = (sig.rho_u * sig.eta * (cross.real ** 2 + cross.imag ** 2)).T
    terms[-1] = v.real ** 2 + v.imag ** 2
    return terms


def mc_validate_terms(beta, sig, distortions, k, trials, seed, chunk=None):
    """Empirical SINR terms for user k from simulated combining.

    Simulates the combined signal with fresh fast fading, receiver noise
    and Gaussian quantization noise each trial and estimates every term of
    the closed-form decomposition. The quantization noise at AP m has
    variance distortions[m] in every trial: the distortion sized from the
    statistical mean of the received power, as in the closed form.
    Deterministic given seed, and exactly independent of the chunk size
    (trials simulated at once): fading, noise and quantization use separate
    derived streams, and the per-trial terms are summed in blocks of
    MC_BLOCK trials aligned on the trial index, the block sums added in
    trial order. By default a chunk takes about MC_CHUNK_BYTES, whatever M
    and K are.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    D = np.atleast_1d(np.asarray(distortions, dtype=float))
    m, n_users = beta.shape
    if not 0 <= k < n_users:
        raise ValueError(f"user index {k} out of range for K = {n_users}")
    if chunk is None:
        chunk = max(1, MC_CHUNK_BYTES // (MC_LINK_BYTES * m * n_users))
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    rngs = (derive_rng(seed, "mc_channel"), derive_rng(seed, "mc_noise"),
            derive_rng(seed, "mc_quant"))

    totals = np.zeros(n_users + 3)
    pending = np.empty((n_users + 3, 0))  # trials of the open block
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        terms = np.concatenate(
            [pending, _mc_trial_terms(rngs, t, beta, sig, D, k)], axis=1)
        full = terms.shape[1] - terms.shape[1] % MC_BLOCK
        blocks = terms[:, :full].reshape(len(terms), -1, MC_BLOCK)
        for block_sum in blocks.sum(axis=2).T:
            totals += block_sum
        pending = terms[:, full:]
        done += t
    totals += pending.sum(axis=1)

    means = totals / trials
    ds_sq = float(means[0]) ** 2
    bu_var = max(0.0, float(means[1]) - ds_sq)
    interference = means[2:-1]
    interference[k] = 0.0
    noise_var = float(means[-1])
    return SinrBreakdown(ds_sq, bu_var, interference, noise_var)
