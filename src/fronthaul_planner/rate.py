"""Closed-form uplink SINR and rates, with Monte-Carlo validation.

The central unit combines the quantized AP signals with maximum-ratio
weights and decodes each user against the statistical mean of its effective
channel (a use-and-forget style bound). The resulting SINR splits into a
coherent-gain numerator and three variance terms: beamforming uncertainty,
inter-user interference and aggregated receiver plus quantization noise.
Each term has a closed form in the link gains, checked here term by term
against simulation. The rate sees receiver noise and quantization
distortion only through their sum, so the simulation draws them as one
circular Gaussian per AP of variance delta_sq + D.
"""

from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .seeds import _jump, derive_rng

# Memory budget of the Monte-Carlo draws when no chunk size is given,
# shared evenly by the MC_WORKERS workers. Per trial a worker peaks at 16
# bytes a link (its fading draws), 32 an AP (its noise column draw and
# combiner column) and 48 a term row (the row, its cross term and their
# squares): fitted with tracemalloc, the default chunk then peaks at
# 0.47-0.99 of the budget over M in 1-100, K in 1-20. It stays below 1
# because a worker draws whole blocks at once when it can, and a share
# that holds less than two blocks holds one.
MC_CHUNK_BYTES = 2 ** 23
MC_LINK_BYTES = 16
MC_AP_BYTES = 32
MC_ROW_BYTES = 48

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


def _mc_trial_terms(parts, scale, power, k, out):
    """The terms of t trials, one column per trial, written into out.

    parts holds the trials' standard normals (t, M, K + 1, 2): the fading
    of each link, then each AP's receiver plus quantization noise in column
    K. scale is their (M, K + 1, 2) factor and power is rho_u eta with a 1
    appended. Rows of out (K + 3, t): a = amp_k sum_m |g_mk|^2, a^2,
    |amp_j cross_j|^2 for each user j, and |v|^2. The normals are viewed
    as complex and scaled in place, and one product conj(g_k) @ [g | w + q]
    gives the cross terms and v, so beside the draws a call holds only a
    few arrays of M or K entries per trial, all freed on return.
    """
    parts *= scale
    g = parts.view(np.complex128)[..., 0]
    cross = (np.conj(g[:, :, k])[:, None, :] @ g)[:, 0, :]
    # cross_k = sum_m |g_mk|^2, cross_K = v
    out[0] = np.sqrt(power[k]) * cross[:, k].real
    out[1] = out[0] ** 2
    out[2:] = (power * (cross.real ** 2 + cross.imag ** 2)).T


class _McWorker:
    """One Monte-Carlo worker: its own generator of the "mc_channel" stream
    and a draw buffer of piece trials, reused for every run of blocks it
    takes."""

    def __init__(self, seed, piece, span, m, n_users):
        self.rng = derive_rng(seed, "mc_channel")
        self.start = self.rng.bit_generator.state
        self.draws = np.empty((piece, m, n_users + 1, 2))
        self.terms = np.empty((n_users + 3, span))

    def block_sums(self, start, stop, kernel_args):
        """Term sums of the blocks of trials [start, stop), start the first
        trial of a block: one row per block, in block order.

        The trials are drawn piece by piece, each block from index b of the
        stream from its first trial on, so a block drawn in several pieces
        continues its stream from one piece to the next.
        """
        piece = len(self.draws)
        for lo in range(start, stop, piece):
            hi = min(lo + piece, stop)
            for b in range(lo // MC_BLOCK, (hi - 1) // MC_BLOCK + 1):
                first = max(lo, b * MC_BLOCK)
                if first == b * MC_BLOCK:
                    _jump(self.rng.bit_generator, self.start, b)
                at = slice(first - lo, min(hi, (b + 1) * MC_BLOCK) - lo)
                self.rng.standard_normal(out=self.draws[at])
            _mc_trial_terms(self.draws[:hi - lo], *kernel_args,
                            out=self.terms[:, lo - start:hi - start])
        n = stop - start
        full = n - n % MC_BLOCK
        terms = self.terms[:, :n]
        sums = list(terms[:, :full].reshape(len(terms), -1, MC_BLOCK).sum(axis=2).T)
        if full < n:
            sums.append(terms[:, full:].sum(axis=1))
        return sums


def mc_validate_terms(beta, sig, distortions, k, trials, seed, chunk=None):
    """Empirical SINR terms for user k from simulated combining.

    Simulates the combined signal with fresh fast fading, receiver noise
    and Gaussian quantization noise each trial and estimates every term of
    the closed-form decomposition. The quantization noise at AP m has
    variance distortions[m] in every trial: the distortion sized from the
    statistical mean of the received power, as in the closed form. Receiver
    noise w and quantization noise q are independent circular Gaussians, so
    w + q is one circular Gaussian of variance delta_sq + D; each AP draws
    it as one more column of its channel, and every estimated term has the
    distribution it has with w and q drawn apart.

    Trials come in blocks of MC_BLOCK: block b draws its (M, K + 1)
    standard normal pairs, fading then noise, from index b of the
    "mc_channel" stream of the seed (b jumps of the stream's index-0
    generator, by seeds._jump), so a run of at most MC_BLOCK trials draws
    what index 0 alone gives. A fixed pool of MC_WORKERS threads draws and
    reduces runs of whole blocks, each worker with its own buffers, and
    this thread adds the block sums in block order. The result is
    therefore deterministic given the seed, which must be an integer, and
    exactly independent of the chunk size, the worker count and the
    scheduling.

    chunk is the most trials a worker draws at once: a worker takes runs of
    chunk // MC_BLOCK whole blocks, or one block in pieces of chunk trials
    when chunk < MC_BLOCK. By default a worker's chunk takes about
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
                    // (MC_LINK_BYTES * m * n_users + MC_AP_BYTES * m
                        + MC_ROW_BYTES * (n_users + 3)))
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    # a run: span trials of whole blocks (the last run may be shorter),
    # drawn in pieces of at most chunk trials
    span = min(max(1, chunk // MC_BLOCK) * MC_BLOCK, trials)
    piece = min(chunk, span)
    variances = np.column_stack((beta, np.broadcast_to(sig.delta_sq + D, m)))
    kernel_args = (_pairs(np.sqrt(variances / 2.0)),
                   np.append(sig.rho_u * sig.eta, 1.0), k)

    idle = SimpleQueue()
    for _ in range(min(MC_WORKERS, -(-trials // span))):
        idle.put(_McWorker(seed, piece, span, m, n_users))

    def run(start):
        # numpy and private functions alone, never a package function:
        # tracers that wrap those functions keep one span stack
        worker = idle.get()
        try:
            return worker.block_sums(start, min(start + span, trials), kernel_args)
        finally:
            idle.put(worker)

    starts = iter(range(0, trials, span))
    totals = np.zeros(n_users + 3)
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

    means = totals / trials
    ds_sq = float(means[0]) ** 2
    bu_var = max(0.0, float(means[1]) - ds_sq)
    interference = means[2:-1]
    interference[k] = 0.0
    noise_var = float(means[-1])
    return SinrBreakdown(ds_sq, bu_var, interference, noise_var)
