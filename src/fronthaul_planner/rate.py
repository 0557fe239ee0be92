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

# Memory budget of one Monte-Carlo chunk when no chunk size is given. Per
# trial a chunk peaks at 32 bytes a link (the fading draws, in two buffers),
# 48 an AP (noise and quantization draws, combiner column) and 56 a term row
# (cross terms, term rows and their carried copy): fitted with tracemalloc,
# the default chunk then peaks at 0.66-1.0004 of the budget over M in 1-100,
# K in 1-20.
MC_CHUNK_BYTES = 2 ** 23
MC_LINK_BYTES = 32
MC_AP_BYTES = 48
MC_ROW_BYTES = 56

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
    """Per-user rates (..., K) in bits/s/Hz through the closed-form SINR."""
    return rate_from_sinr(per_user_sinrs(beta, sig, distortions))


def _pairs(scale):
    """Repeat scale over the two real components of each complex entry.

    A full (..., 2) factor keeps the in-place products on contiguous inner
    loops; a broadcast length-1 axis would run them two elements at a time.
    """
    return np.repeat(scale[..., None], 2, axis=-1)


def _mc_trial_terms(parts, noise_rngs, scales, power, k):
    """The terms of t trials, one column per trial.

    parts holds the trials' fading standard normals (t, M, K, 2), scales
    the (..., 2) factors of fading, receiver noise and quantization noise,
    and power is rho_u eta. Rows: a = amp_k sum_m |g_mk|^2, a^2,
    |amp_j cross_j|^2 for each user j, and |v|^2. Each (..., 2) block of
    standard normals is viewed as complex and scaled in place, so beside
    the fading a chunk holds only a few arrays of M or K entries per trial,
    all freed on return.
    """
    rng_w, rng_q = noise_rngs
    h_scale, w_scale, q_scale = scales
    t, m, n_users = parts.shape[:3]
    parts *= h_scale
    g = parts.view(np.complex128)[..., 0]
    wq = rng_w.standard_normal((t, m, 2))
    wq *= w_scale
    q = rng_q.standard_normal((t, m, 2))
    q *= q_scale
    wq += q

    gk_conj = np.conj(g[:, :, k])[:, None, :]
    cross = (gk_conj @ g)[:, 0, :]
    v = (gk_conj @ wq.view(np.complex128))[:, 0, 0]
    terms = np.empty((n_users + 3, t))
    # cross_k = sum_m |g_mk|^2
    terms[0] = np.sqrt(power[k]) * cross[:, k].real
    terms[1] = terms[0] ** 2
    terms[2:-1] = (power * (cross.real ** 2 + cross.imag ** 2)).T
    terms[-1] = v.real ** 2 + v.imag ** 2
    return terms


def mc_validate_terms(beta, sig, distortions, k, trials, seed, chunk=None):
    """Empirical SINR terms for user k from simulated combining.

    Simulates the combined signal with fresh fast fading, receiver noise
    and Gaussian quantization noise each trial and estimates every term of
    the closed-form decomposition. The quantization noise at AP m has
    variance distortions[m] in every trial: the distortion sized from the
    statistical mean of the received power, as in the closed form.
    Deterministic given the seed, which must be an integer, and exactly
    independent of the chunk size (trials simulated at once): fading, noise
    and quantization use separate derived streams, and the per-trial terms
    are summed in blocks of MC_BLOCK trials aligned on the trial index, the
    block sums added in trial order. By default a chunk takes about
    MC_CHUNK_BYTES, whatever M and K are.

    A one-worker executor draws the fading of the next chunk into the other
    of two buffers while this thread draws the noise of the current chunk
    and reduces it. Fills run one at a time in trial order, so the result
    does not depend on the worker; a failed fill raises here, and the
    worker has ended when this returns or raises.
    """
    from concurrent.futures import ThreadPoolExecutor

    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, not {type(seed).__name__}: "
                         "the fading is drawn on another thread, so a shared "
                         "generator would be drawn in a thread-dependent order")
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    D = np.atleast_1d(np.asarray(distortions, dtype=float))
    m, n_users = beta.shape
    if not 0 <= k < n_users:
        raise ValueError(f"user index {k} out of range for K = {n_users}")
    if chunk is None:
        chunk = max(1, MC_CHUNK_BYTES // (MC_LINK_BYTES * m * n_users + MC_AP_BYTES * m
                                          + MC_ROW_BYTES * (n_users + 3)))
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    chunk = min(chunk, trials)
    rng_h = derive_rng(seed, "mc_channel")
    noise_rngs = (derive_rng(seed, "mc_noise"), derive_rng(seed, "mc_quant"))
    scales = (_pairs(np.sqrt(beta / 2.0)), _pairs(np.sqrt(sig.delta_sq / 2.0)),
              _pairs(np.sqrt(D / 2.0)))
    power = sig.rho_u * sig.eta
    fading = np.empty((2, chunk, m, n_users, 2))
    n_chunks = -(-trials // chunk)

    totals = np.zeros(n_users + 3)
    pending = np.empty((n_users + 3, 0))  # trials of the open block
    # The worker runs numpy alone, never a package function, so tracers
    # that wrap those functions see one thread.
    with ThreadPoolExecutor(max_workers=1) as worker:
        def fill(i):
            """Start drawing the fading of chunk i into its buffer."""
            return worker.submit(rng_h.standard_normal,
                                 out=fading[i % 2, :min(chunk, trials - i * chunk)])

        filled = fill(0)
        for i in range(n_chunks):
            parts = filled.result()
            if i + 1 < n_chunks:
                filled = fill(i + 1)
            terms = np.concatenate(
                [pending, _mc_trial_terms(parts, noise_rngs, scales, power, k)], axis=1)
            full = terms.shape[1] - terms.shape[1] % MC_BLOCK
            blocks = terms[:, :full].reshape(len(terms), -1, MC_BLOCK)
            for block_sum in blocks.sum(axis=2).T:
                totals += block_sum
            pending = terms[:, full:]
    totals += pending.sum(axis=1)

    means = totals / trials
    ds_sq = float(means[0]) ** 2
    bu_var = max(0.0, float(means[1]) - ds_sq)
    interference = means[2:-1]
    interference[k] = 0.0
    noise_var = float(means[-1])
    return SinrBreakdown(ds_sq, bu_var, interference, noise_var)
