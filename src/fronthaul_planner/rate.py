"""Closed-form uplink SINR and rates, with Monte-Carlo validation.

The central unit combines the quantized AP signals with maximum-ratio
weights and decodes each user against the statistical mean of its effective
channel (a use-and-forget style bound). The resulting SINR splits into a
coherent-gain numerator and three variance terms: beamforming uncertainty,
inter-user interference and aggregated receiver plus quantization noise.
Each term has a closed form in the link gains, checked here term by term
against simulation. The simulation draws each trial's terms in law: they
depend on user k's fading only through |g_mk|^2 = beta_mk E_m, and given
those, each cross term and the combined noise are independent circular
Gaussians whose squared magnitudes are their variances times standard
exponentials. So a trial draws M + K standard exponentials, and each term
is estimated with those draws, of known mean and variance, as control
variates.
"""

from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .seeds import _jump, derive_rng

# Memory budget of the Monte-Carlo draws when no chunk size is given,
# shared evenly by the MC_WORKERS workers. A worker holds 8 bytes a trial
# for each of its M + K draws and K + 3 rows, and the calling thread each
# block's sums: fitted with tracemalloc as 10 bytes an AP and 20 a term row,
# the default chunk peaks at 0.58-0.92 of the budget over M in 1-100, K in
# 1-20. A share that holds less than two blocks holds one.
MC_CHUNK_BYTES = 2 ** 23
MC_AP_BYTES = 10
MC_ROW_BYTES = 20

# Trials per block. Block b is trials [b MC_BLOCK, (b + 1) MC_BLOCK), drawn
# from index b of the "mc_channel" stream and summed on its own, so every
# block sum, and their sum in block order, are the same bits however the
# blocks are chunked and whichever worker draws them.
MC_BLOCK = 256

# Threads that draw and reduce trial blocks.
MC_WORKERS = 2


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
        return self.ds_sq / den if den else np.inf

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


def _mc_block_sums(draws, rows, weights, out):
    """Sums of a stack of blocks of t trials each into out, a row a block.

    draws (blocks, t, M + K) holds each trial's standard exponentials: E_m
    of each AP, X_j of each user j != k in user order, X_v of the noise.
    weights (M, K + 1) maps E to amp_k c_k, p_j c_j of each user j != k and
    c_K (mc_validate_terms). rows (blocks, K + 3, t) is scratch whose row 0
    holds ones; then come each trial's a^2, a = amp_k c_k
    (amp_k sum_m |g_mk|^2), |amp_j cross_j|^2 = p_j c_j X_j of each user
    j != k and |v|^2 = c_K X_v. A block's sums: its term rows', then its
    draws' and each term row times each draw, from one product of its rows
    and draws. Each block takes its own products, so its bits depend on t,
    not on how many blocks the stack holds.
    """
    m, n_rows = len(weights), rows.shape[1]
    np.matmul(weights.T, draws[..., :m].transpose(0, 2, 1), out=rows[:, 2:])
    np.square(rows[:, 2], out=rows[:, 1])
    rows[:, 3:] *= draws[..., m:].transpose(0, 2, 1)
    np.sum(rows[:, 1:], axis=2, out=out[:, :n_rows - 1])
    np.matmul(rows, draws, out=out[:, n_rows - 1:].reshape(len(rows), n_rows, -1))


class _McWorker:
    """One Monte-Carlo worker: its own generator of the "mc_channel" stream
    and buffers of span trials, reused for every run of blocks it takes."""

    def __init__(self, seed, span, m, n_users):
        self.rng = derive_rng(seed, "mc_channel")
        self.start = self.rng.bit_generator.state
        self.draws = np.empty((span, m + n_users))
        # each block's term rows after a row of ones, a block a slice
        self.rows = np.ones((-(-span // MC_BLOCK), n_users + 3, MC_BLOCK))

    def block_sums(self, start, stop, weights):
        """Sums of the blocks of trials [start, stop), start the first trial
        of a block: one row per block, in block order, holding the sums of
        the term rows, of the draws and of each term row times each draw.

        Each block is drawn from index b of the stream, and each block's
        sums are taken from that block's trials alone.
        """
        n = stop - start
        draws = self.draws[:n]
        for lo in range(0, n, MC_BLOCK):
            _jump(self.rng.bit_generator, self.start, (start + lo) // MC_BLOCK)
            self.rng.standard_exponential(out=draws[lo:lo + MC_BLOCK])
        whole, short = divmod(n, MC_BLOCK)
        n_rows, n_draws = self.rows.shape[1], draws.shape[1]
        sums = np.empty((whole + (short > 0), n_rows - 1 + n_rows * n_draws))
        # the whole blocks, then the short one, each a stack of blocks
        if whole:
            _mc_block_sums(draws[:n - short].reshape(whole, MC_BLOCK, n_draws),
                           self.rows[:whole], weights, sums[:whole])
        if short:
            _mc_block_sums(draws[None, n - short:],
                           self.rows[whole:whole + 1, :, :short], weights, sums[whole:])
        return sums


def mc_validate_terms(beta, sig, distortions, k, trials, seed, chunk=None):
    """Empirical SINR terms for user k from simulated combining.

    Simulates the combined signal with fresh fast fading, receiver noise
    and Gaussian quantization noise each trial and estimates every term of
    the closed-form decomposition. The quantization noise at AP m has
    variance distortions[m] in every trial: the distortion sized from the
    statistical mean of the received power, as in the closed form.

    Each trial is drawn in law. With g_mk = sqrt(beta_mk) z_mk,
    |g_mk|^2 = beta_mk E_m for a standard exponential E_m. Given user k's
    fading, each cross term sum_m conj(g_mk) g_mj (j != k) and the
    combined noise v = sum_m conj(g_mk) (w_m + q_m) are independent
    circular Gaussians of variance c_j = sum_m beta_mk E_m beta_mj and
    c_K = sum_m beta_mk E_m (delta_sq_m + D_m), and the squared magnitude
    of such a Gaussian is its variance times a standard exponential. So a
    trial draws M + K standard exponentials, and every estimated term has
    the distribution it has with the complex fading and noise drawn.

    Trials come in blocks of MC_BLOCK: block b draws its M + K standard
    exponentials a trial, E_1..E_M, then one X per other user in user
    order, then the noise's X, from index b of the "mc_channel" stream of
    the seed (b jumps of the stream's index-0 generator, by seeds._jump),
    so a run of at most MC_BLOCK trials draws what index 0 alone gives. A
    fixed pool of MC_WORKERS threads draws and reduces runs of whole
    blocks, each worker with its own buffers, and this thread adds the
    block sums in block order. The result is therefore deterministic given
    the seed, which must be an integer, and exactly independent of the
    chunk size, the worker count and the scheduling.

    Each term is estimated from its row's mean with the draws as control
    variates: every draw is a standard exponential, of known mean 1 and
    variance 1, so the row mean less the sum over draws of the row's sample
    covariance with the draw times the draw's sample-mean error keeps the
    row's expectation (up to an O(1/trials) bias) and drops the part of the
    row's spread that is linear in the draws. That removes about two
    thirds or more of the variance of each interference and noise term,
    and nearly all of ds_sq's; bu_var, a variance, keeps most of its own.
    With few trials the correction can take a variance term below 0; it is
    then reported as 0.

    chunk sets the trials a worker draws and holds at once: a worker takes
    runs of chunk // MC_BLOCK whole blocks, and one block when
    chunk < MC_BLOCK. By default a worker's chunk takes about
    MC_CHUNK_BYTES / MC_WORKERS, whatever M and K are. A failed draw or
    kernel raises here; blocks not yet started are then cancelled, and no
    worker outlives the call.
    """
    from concurrent.futures import ThreadPoolExecutor
    from queue import SimpleQueue

    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, not {type(seed).__name__}: "
                         "each trial block is drawn from a jumped stream of "
                         "the seed, on any worker")
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    D = np.atleast_1d(np.asarray(distortions, dtype=float))
    m, n_users = beta.shape
    if not 0 <= k < n_users:
        raise ValueError(f"user index {k} out of range for K = {n_users}")
    if chunk is None:
        chunk = max(1, MC_CHUNK_BYTES // MC_WORKERS
                    // (MC_AP_BYTES * m + MC_ROW_BYTES * (n_users + 3)))
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    # a run: span trials of whole blocks (the last run may be shorter)
    span = min(max(1, chunk // MC_BLOCK) * MC_BLOCK, trials)
    # c's columns times their powers: user k, the others in order, the noise
    power = sig.rho_u * sig.eta
    others = np.arange(n_users) != k
    weights = beta[:, k:k + 1] * np.column_stack(
        (np.full(m, np.sqrt(power[k])), beta[:, others] * power[others],
         np.broadcast_to(sig.delta_sq + D, m)))

    idle = SimpleQueue()
    for _ in range(min(MC_WORKERS, -(-trials // span))):
        idle.put(_McWorker(seed, span, m, n_users))

    def run(start):
        # numpy and private functions alone, never a package function:
        # tracers that wrap those functions keep one span stack
        worker = idle.get()
        try:
            return worker.block_sums(start, min(start + span, trials), weights)
        finally:
            idle.put(worker)

    starts = iter(range(0, trials, span))
    rows, n_draws = n_users + 2, m + n_users
    totals = np.zeros(rows + n_draws + rows * n_draws)
    pool = ThreadPoolExecutor(MC_WORKERS)
    try:
        # two runs queued a worker keep the pool busy while this thread
        # adds the oldest run's sums; later runs are not submitted yet
        running = deque(pool.submit(run, start)
                        for start in islice(starts, 2 * MC_WORKERS))
        while running:
            sums = running.popleft().result()
            running.extend(pool.submit(run, start) for start in islice(starts, 1))
            for block_sum in sums:
                totals += block_sum
    finally:
        pool.shutdown(cancel_futures=True)

    means, draw_means, cross = np.split(totals / trials, [rows, rows + n_draws])
    # every draw has mean 1 and variance 1, and the draws are independent:
    # each row's mean less its covariance with each draw times that draw's
    # mean error (draws as control variates) has the row's expectation
    cov = cross.reshape(rows, n_draws) - np.outer(means, draw_means)
    means -= cov @ (draw_means - 1.0)
    ds_sq = float(means[1]) ** 2
    bu_var = max(0.0, float(means[0]) - ds_sq)
    np.maximum(means[2:], 0.0, out=means[2:])
    interference = np.insert(means[2:-1], k, 0.0)
    noise_var = float(means[-1])
    return SinrBreakdown(ds_sq, bu_var, interference, noise_var)
