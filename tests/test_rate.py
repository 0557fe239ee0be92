"""Tests for the closed-form SINR decomposition and its Monte-Carlo check."""

import functools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fronthaul_planner import rate
from fronthaul_planner.fronthaul import UplinkSignalParams
from fronthaul_planner.rate import (MC_AP_BYTES, MC_BLOCK, MC_CHUNK_BYTES,
                                    MC_LINK_BYTES, MC_ROW_BYTES, MC_WORKERS,
                                    achievable_rates,
                                    mc_validate_terms, per_user_sinrs,
                                    rate_from_sinr, sinr_closed_form)


def test_rate_from_sinr_values():
    assert rate_from_sinr(0.0) == 0.0
    assert rate_from_sinr(1.0) == pytest.approx(1.0)
    assert rate_from_sinr(3.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        rate_from_sinr(-0.5)


def test_pure_array_gain():
    # single user, no noise, no distortion, equal gains: SINR equals M
    m = 16
    sig = UplinkSignalParams(0.1, np.array([1.0]), np.zeros(m))
    beta = np.full((m, 1), 2.5e-12)
    bd = sinr_closed_form(beta, sig, np.zeros(m), 0)
    assert bd.sinr == pytest.approx(m, rel=1e-12)


def test_single_ap_reduction():
    # M = 1 collapses to rho eta_1 beta^2 / ((rho sum eta' beta' + d2 + D) beta)
    rng = np.random.default_rng(0)
    k = 4
    beta = 10.0 ** rng.uniform(-13, -12, size=(1, k))
    eta = rng.uniform(0.1, 1.0, k)
    sig = UplinkSignalParams(0.1, eta, np.array([5e-13]))
    d = np.array([2e-13])
    bd = sinr_closed_form(beta, sig, d, 0)
    expected = (0.1 * eta[0] * beta[0, 0] ** 2
                / ((0.1 * np.dot(eta, beta[0]) + 5e-13 + 2e-13) * beta[0, 0]))
    assert bd.sinr == pytest.approx(expected, rel=1e-12)


def test_breakdown_terms_formulas():
    rng = np.random.default_rng(1)
    m, k = 6, 3
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    eta = rng.uniform(0.1, 1.0, k)
    delta = rng.uniform(1e-13, 5e-13, m)
    dist = rng.uniform(1e-14, 1e-13, m)
    sig = UplinkSignalParams(0.1, eta, delta)
    bd = sinr_closed_form(beta, sig, dist, 1)
    col = beta[:, 1]
    assert bd.ds_sq == pytest.approx(0.1 * eta[1] * col.sum() ** 2, rel=1e-12)
    assert bd.bu_var == pytest.approx(0.1 * eta[1] * (col ** 2).sum(), rel=1e-12)
    assert bd.interference_var[1] == 0.0
    for j in (0, 2):
        assert bd.interference_var[j] == pytest.approx(
            0.1 * eta[j] * np.dot(beta[:, j], col), rel=1e-12)
    assert bd.noise_var == pytest.approx(np.dot(delta + dist, col), rel=1e-12)
    with pytest.raises(ValueError):
        sinr_closed_form(beta, sig, dist, 3)


def test_vectorized_sinrs_match_per_user():
    rng = np.random.default_rng(2)
    m, k = 8, 5
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, rng.uniform(0.1, 1.0, k),
                             rng.uniform(1e-13, 5e-13, m))
    dist = rng.uniform(1e-14, 1e-13, m)
    gammas = per_user_sinrs(beta, sig, dist)
    for j in range(k):
        assert gammas[j] == pytest.approx(
            sinr_closed_form(beta, sig, dist, j).sinr, rel=1e-12)
    rates = achievable_rates(beta, sig, dist)
    assert rates.sum() == pytest.approx(np.sum(np.log2(1 + gammas)), rel=1e-12)


def test_sinr_scale_invariance():
    rng = np.random.default_rng(3)
    m, k = 7, 4
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    eta = rng.uniform(0.1, 1.0, k)
    delta = rng.uniform(1e-13, 5e-13, m)
    dist = rng.uniform(1e-14, 1e-13, m)
    base = per_user_sinrs(beta, UplinkSignalParams(0.1, eta, delta), dist)
    for c in (1e-3, 1e3):
        scaled = per_user_sinrs(c * beta, UplinkSignalParams(0.1, eta, c * delta),
                                c * dist)
        assert np.allclose(scaled, base, rtol=1e-12)


def test_sinr_decreases_with_distortion():
    rng = np.random.default_rng(4)
    m, k = 6, 3
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, rng.uniform(0.1, 1.0, k), np.full(m, 3e-13))
    dist = np.full(m, 1e-13)
    base = per_user_sinrs(beta, sig, dist)
    worse = dist.copy()
    worse[2] *= 3.0
    assert np.all(per_user_sinrs(beta, sig, worse) < base)
    # ideal fronthaul bounds every distorted configuration
    ideal = per_user_sinrs(beta, sig, np.zeros(m))
    assert np.all(ideal > base)


def test_monte_carlo_matches_closed_form_terms():
    rng = np.random.default_rng(6)
    m, k = 10, 3
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, rng.uniform(0.3, 1.0, k), np.full(m, 6.36e-13))
    dist = rng.uniform(5e-14, 5e-13, m)
    closed = sinr_closed_form(beta, sig, dist, 0)
    emp = mc_validate_terms(beta, sig, dist, 0, trials=40_000, seed=123)
    # 40k trials put the estimator sd near 1%; 5% is a 4-5 sigma band
    assert emp.ds_sq == pytest.approx(closed.ds_sq, rel=0.05)
    assert emp.bu_var == pytest.approx(closed.bu_var, rel=0.05)
    assert emp.noise_var == pytest.approx(closed.noise_var, rel=0.05)
    for j in (1, 2):
        assert emp.interference_var[j] == pytest.approx(
            closed.interference_var[j], rel=0.05)
    assert emp.sinr == pytest.approx(closed.sinr, rel=0.05)


def test_monte_carlo_zero_noise_limit():
    m, k = 5, 2
    beta = np.full((m, k), 1e-12)
    sig = UplinkSignalParams(0.1, np.full(k, 0.5), np.zeros(m))
    emp = mc_validate_terms(beta, sig, np.zeros(m), 0, trials=2000, seed=1)
    assert emp.noise_var == 0.0


def test_monte_carlo_deterministic_and_chunk_invariant():
    rng = np.random.default_rng(8)
    m, k = 4, 2
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, np.full(k, 0.5), np.full(m, 3e-13))
    dist = np.full(m, 1e-13)
    a = mc_validate_terms(beta, sig, dist, 0, trials=5000, seed=99, chunk=1000)
    b = mc_validate_terms(beta, sig, dist, 0, trials=5000, seed=99, chunk=1700)
    assert a.ds_sq == b.ds_sq and a.bu_var == b.bu_var
    assert np.array_equal(a.interference_var, b.interference_var)
    assert a.noise_var == b.noise_var


def _small_drop(seed, m, k):
    """Gains, signal parameters and distortions of a small test network."""
    beta = 10.0 ** np.random.default_rng(seed).uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, np.full(k, 0.5), np.full(m, 3e-13))
    return beta, sig, np.full(m, 1e-13)


def _same_bits(a, b):
    return (a.ds_sq == b.ds_sq and a.bu_var == b.bu_var
            and np.array_equal(a.interference_var, b.interference_var)
            and a.noise_var == b.noise_var)


@pytest.mark.parametrize("chunk", [1, 255, 256, 257, 699, 700])
def test_monte_carlo_block_edges(chunk):
    # 700 trials, two whole blocks and a short one: pieces inside a block
    # at 1 and 255, one block a run at 256 and 257, two at 699 and 700;
    # every chunking gives the bits of a single chunk
    beta, sig, dist = _small_drop(12, 6, 3)
    whole = mc_validate_terms(beta, sig, dist, 2, trials=700, seed=5, chunk=700)
    assert _same_bits(
        mc_validate_terms(beta, sig, dist, 2, trials=700, seed=5, chunk=chunk), whole)


def test_monte_carlo_default_chunk_gives_the_explicit_bits():
    m, k = 4, 2
    beta, sig, dist = _small_drop(13, m, k)
    default = MC_CHUNK_BYTES // MC_WORKERS // (MC_LINK_BYTES * m * k + MC_AP_BYTES * m
                                               + MC_ROW_BYTES * (k + 3))
    trials = 2 * default + 300  # two full default chunks and a short one
    a = mc_validate_terms(beta, sig, dist, 1, trials, seed=6)
    assert _same_bits(a, mc_validate_terms(beta, sig, dist, 1, trials, seed=6,
                                           chunk=default))
    assert _same_bits(a, mc_validate_terms(beta, sig, dist, 1, trials, seed=6,
                                           chunk=trials))


def test_monte_carlo_workers_under_thread_switching():
    # more callers than cores, each with its workers, switching threads
    # every microsecond: every call still gives the bits of one chunk
    beta, sig, dist = _small_drop(15, 6, 3)
    whole = mc_validate_terms(beta, sig, dist, 1, trials=2000, seed=9, chunk=2000)
    results = [None] * 4

    def call(j):
        results[j] = mc_validate_terms(beta, sig, dist, 1, trials=2000, seed=9,
                                       chunk=128)

    callers = [threading.Thread(target=call, args=(j,), daemon=True)
               for j in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert all(r is not None and _same_bits(r, whole) for r in results)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk", [100, 256, 600, None])
def test_monte_carlo_worker_count_leaves_the_bits(monkeypatch, workers, chunk):
    beta, sig, dist = _small_drop(16, 5, 3)
    run = functools.partial(mc_validate_terms, beta, sig, dist, 1, trials=3000,
                            seed=4, chunk=chunk)
    two = run()
    monkeypatch.setattr(rate, "MC_WORKERS", workers)
    assert _same_bits(run(), two)


def _call_within(fn, seconds=60):
    """Run fn on its own thread; fail if it hangs.

    Returns what fn raised (or None) and the number of live threads, the
    caller's own included, as fn returned or raised.
    """
    out = []

    def call():
        try:
            fn()
            out.append(None)
        except RuntimeError as exc:
            out.append(str(exc))
        out.append(threading.active_count())

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive(), "mc_validate_terms did not return"
    return tuple(out)


@pytest.mark.parametrize("failing", ["draw", "kernel"])
def test_monte_carlo_failure_in_a_late_block_reaches_the_caller(monkeypatch,
                                                               failing):
    # one block a run, 40 runs, and block 30 fails. At most two runs a
    # worker are queued past the one this thread waits for, so the blocks
    # after them never start, and no worker outlives the call
    beta, sig, dist = _small_drop(14, 4, 2)
    n_blocks, bad = 40, 30
    run = functools.partial(mc_validate_terms, beta, sig, dist, 0,
                            trials=n_blocks * MC_BLOCK, seed=1, chunk=MC_BLOCK)
    before = threading.active_count()
    started = set()
    block_of = {}  # worker thread -> the block it draws
    jump, kernel = rate._jump, rate._mc_trial_terms

    def jumping(bit_generator, state, index):
        started.add(index)
        block_of[threading.get_ident()] = index
        if failing == "draw" and index == bad:
            raise RuntimeError("draw failed")
        return jump(bit_generator, state, index)

    def computing(*args, **kwargs):
        if failing == "kernel" and block_of[threading.get_ident()] == bad:
            raise RuntimeError("kernel failed")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(rate, "_jump", jumping)
    monkeypatch.setattr(rate, "_mc_trial_terms", computing)
    assert _call_within(run) == (f"{failing} failed", before + 1)
    assert bad in started and max(started) < bad + 2 * MC_WORKERS


# (M, K, trials) -> float.hex() of ds_sq, bu_var, each interference entry
# and noise_var for the last user of _pinned_drop(M, K) at seed M + trials.
# Recorded before trial blocks were drawn from jumped streams; a run of at
# most MC_BLOCK trials is block 0 alone and keeps its bits.
MC_BITS = {
    (4, 2, 100): ['0x1.90a05ce540ddfp-78', '0x1.472e62f4fdee6p-79', '0x1.a2db6b78bb7e5p-80',
                  '0x0.0p+0', '0x1.cfb3b8365db86p-79'],
    (4, 2, 256): ['0x1.6d921e2683661p-78', '0x1.621281b3c578ap-79', '0x1.9fb86fc6ff1adp-80',
                  '0x0.0p+0', '0x1.4afb241fcf0cfp-79'],
    (20, 4, 100): ['0x1.e75aa1ebdd404p-75', '0x1.afaa5c67a06d0p-78', '0x1.86b629a026288p-78',
                   '0x1.06fba09e18147p-79', '0x1.9fca07b0f3ffbp-79', '0x0.0p+0',
                   '0x1.9577614bde673p-76'],
    (20, 4, 256): ['0x1.0e2b55217d42dp-74', '0x1.b83fba8e8ecf0p-78', '0x1.c25326985350ap-78',
                   '0x1.134d1c14e0f60p-79', '0x1.8dcaeeb4aab64p-79', '0x0.0p+0',
                   '0x1.a201b1081a7b2p-76'],
    (100, 10, 100): ['0x1.398e13b69e624p-69', '0x1.0c2675c660de0p-74', '0x1.1e63eae3a6b29p-75',
                     '0x1.e883b34d149a1p-76', '0x1.0b84e0c3a20fdp-76', '0x1.09f5db1435264p-76',
                     '0x1.131fa975a504cp-76', '0x1.a7184a1b97171p-75', '0x1.b141bce21332dp-75',
                     '0x1.bcbed71185066p-76', '0x1.200c71ba4d4b1p-75', '0x0.0p+0',
                     '0x1.3051487a23720p-73'],
    (100, 10, 256): ['0x1.3edb7c7c9aa8cp-69', '0x1.c42c641af3cc0p-75', '0x1.3cadf365f5193p-75',
                     '0x1.894fc38cf36cep-76', '0x1.16dccfed19cd8p-76', '0x1.1a57ca66621e1p-76',
                     '0x1.03112b8140017p-76', '0x1.f55bdbb56967ep-75', '0x1.add5415db573ap-75',
                     '0x1.92a144055de46p-76', '0x1.2bf0ce386b339p-75', '0x0.0p+0',
                     '0x1.29e4b7013037dp-73'],
}


def _pinned_drop(m, k):
    rng = np.random.default_rng(1000 * m + k)
    beta = 10.0 ** rng.uniform(-13, -11, size=(m, k))
    sig = UplinkSignalParams(0.1, rng.uniform(0.3, 1.0, k),
                             10.0 ** rng.uniform(-13, -12, m))
    return beta, sig, 10.0 ** rng.uniform(-14, -12, m)


@pytest.mark.parametrize("m, k, trials", sorted(MC_BITS))
def test_monte_carlo_bits_of_the_first_block_are_pinned(m, k, trials):
    beta, sig, dist = _pinned_drop(m, k)
    e = mc_validate_terms(beta, sig, dist, k - 1, trials, seed=m + trials)
    terms = [e.ds_sq, e.bu_var, *e.interference_var, e.noise_var]
    assert [float(v).hex() for v in terms] == MC_BITS[(m, k, trials)]


def test_monte_carlo_rejects_a_generator_seed():
    # each block is drawn from jumped streams of the seed, on whichever
    # worker takes it; one generator would be drawn in a worker-dependent
    # order
    beta, sig, dist = _small_drop(14, 4, 2)
    with pytest.raises(ValueError, match="seed must be an integer, not Generator"):
        mc_validate_terms(beta, sig, dist, 0, trials=100,
                          seed=np.random.default_rng(3))
    assert _same_bits(mc_validate_terms(beta, sig, dist, 0, trials=100, seed=3),
                      mc_validate_terms(beta, sig, dist, 0, trials=100,
                                        seed=np.int64(3)))


def test_monte_carlo_memory_is_bounded():
    # the default chunk follows a memory budget; a fixed 20k-trial chunk
    # peaked near 1 GB at this size
    rng = np.random.default_rng(3)
    m, k = 100, 10
    beta = 10.0 ** rng.uniform(-13, -11, size=(m, k))
    sig = UplinkSignalParams(0.1, np.full(k, 0.5), np.full(m, 6.36e-13))
    tracemalloc.start()
    try:
        mc_validate_terms(beta, sig, np.full(m, 1e-13), 0, 20_000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("m, k", [(1, 1), (2, 1), (4, 2), (20, 4), (100, 10)])
def test_monte_carlo_chunk_holds_its_budget(m, k):
    # at few APs and users the per-AP noise arrays and the term rows
    # outweigh the fading draws; the default chunk must count them too
    rng = np.random.default_rng(4)
    beta = 10.0 ** rng.uniform(-13, -11, size=(m, k))
    sig = UplinkSignalParams(0.1, np.full(k, 0.5), np.full(m, 6.36e-13))
    # the draws alone of all trials at once would take twice the budget
    trials = 2 * MC_CHUNK_BYTES // (16 * m * k + 48 * m)
    tracemalloc.start()
    try:
        mc_validate_terms(beta, sig, np.full(m, 1e-13), 0, trials, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * MC_CHUNK_BYTES


def test_monte_carlo_rejects_empty_chunk():
    beta = np.full((3, 2), 1e-12)
    sig = UplinkSignalParams(0.1, np.full(2, 0.5), np.full(3, 1e-13))
    with pytest.raises(ValueError):
        mc_validate_terms(beta, sig, np.zeros(3), 0, 10, seed=1, chunk=0)


def _plain_mc_terms(beta, sig, D, k, trials, seed):
    """The Monte-Carlo estimate written out plainly, all trials in one chunk.

    Complex fading, noise and quantization from the same three streams,
    each block of MC_BLOCK trials from numpy's own PCG64.jumped, built
    component by component; the reference the kernel is checked against.
    """
    m, n_users = beta.shape

    def draws(tag, shape):
        # block b of a stream: b jumps of its (tag, 0) generator
        first = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(tag, 0)))
        return np.concatenate([
            np.random.Generator(first.jumped(b)).standard_normal(
                (min(MC_BLOCK, trials - start),) + shape)
            for b, start in enumerate(range(0, trials, MC_BLOCK))])

    parts = draws(4, (m, n_users, 2))
    g = np.sqrt(beta) * (parts[..., 0] + 1j * parts[..., 1]) / np.sqrt(2.0)
    wparts = draws(5, (m, 2))
    w = np.sqrt(sig.delta_sq) * (wparts[..., 0] + 1j * wparts[..., 1]) / np.sqrt(2.0)
    qparts = draws(6, (m, 2))
    q = np.sqrt(D) * (qparts[..., 0] + 1j * qparts[..., 1]) / np.sqrt(2.0)

    amp = np.sqrt(sig.rho_u * sig.eta)
    g_k = g[:, :, k]
    a = amp[k] * np.sum(np.abs(g_k) ** 2, axis=1)
    cross = np.einsum("tmj,tm->tj", g, np.conj(g_k))
    v = np.sum((w + q) * np.conj(g_k), axis=1)
    ds_sq = np.mean(a) ** 2
    interference = np.mean(np.abs(amp * cross) ** 2, axis=0)
    interference[k] = 0.0
    return (ds_sq, np.mean(a ** 2) - ds_sq, interference,
            np.mean(np.abs(v) ** 2))


@pytest.mark.parametrize("m, n_users, k", [(4, 2, 0), (10, 3, 2), (20, 4, 1)])
def test_monte_carlo_kernel_matches_the_plain_formula(m, n_users, k):
    # same streams, same draws: only rounding may differ, where a changed
    # draw would move every term by about 1/sqrt(trials)
    rng = np.random.default_rng(10 * m + k)
    beta = 10.0 ** rng.uniform(-13, -11, size=(m, n_users))
    sig = UplinkSignalParams(0.1, rng.uniform(0.3, 1.0, n_users),
                             np.full(m, 6.36e-13))
    dist = rng.uniform(5e-14, 5e-13, m)
    emp = mc_validate_terms(beta, sig, dist, k, trials=3000, seed=m, chunk=700)
    ds_sq, bu_var, interference, noise_var = _plain_mc_terms(
        beta, sig, dist, k, 3000, m)
    assert emp.ds_sq == pytest.approx(ds_sq, rel=1e-12, abs=0)
    assert emp.bu_var == pytest.approx(bu_var, rel=1e-12, abs=0)
    np.testing.assert_allclose(emp.interference_var, interference, rtol=1e-12, atol=0)
    assert emp.noise_var == pytest.approx(noise_var, rel=1e-12, abs=0)
