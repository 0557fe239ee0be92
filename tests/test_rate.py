"""Tests for the closed-form SINR decomposition and its Monte-Carlo check."""

import functools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fronthaul_planner import rate
from fronthaul_planner.fronthaul import UplinkSignalParams
from fronthaul_planner.rate import (MC_AP_BYTES, MC_CHUNK_BYTES, MC_LINK_BYTES,
                                    MC_ROW_BYTES, achievable_rates,
                                    mc_validate_terms, per_user_sinrs,
                                    rate_from_sinr, sinr_closed_form)
from fronthaul_planner.seeds import derive_rng


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
def test_monte_carlo_double_buffer_edges(chunk):
    # 700 trials: three chunks with a short last one at 255-257, two at
    # 699, one at 700; every chunking gives the bits of a single chunk
    beta, sig, dist = _small_drop(12, 6, 3)
    whole = mc_validate_terms(beta, sig, dist, 2, trials=700, seed=5, chunk=700)
    assert _same_bits(
        mc_validate_terms(beta, sig, dist, 2, trials=700, seed=5, chunk=chunk), whole)


def test_monte_carlo_default_chunk_gives_the_explicit_bits():
    m, k = 4, 2
    beta, sig, dist = _small_drop(13, m, k)
    default = MC_CHUNK_BYTES // (MC_LINK_BYTES * m * k + MC_AP_BYTES * m
                                 + MC_ROW_BYTES * (k + 3))
    trials = 2 * default + 300  # two full default chunks and a short one
    a = mc_validate_terms(beta, sig, dist, 1, trials, seed=6)
    assert _same_bits(a, mc_validate_terms(beta, sig, dist, 1, trials, seed=6,
                                           chunk=default))
    assert _same_bits(a, mc_validate_terms(beta, sig, dist, 1, trials, seed=6,
                                           chunk=trials))


def test_monte_carlo_double_buffer_under_thread_switching():
    # more callers than cores, each with its helper, switching threads
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


def test_monte_carlo_helper_thread_ends_with_the_call(monkeypatch):
    beta, sig, dist = _small_drop(14, 4, 2)
    run = functools.partial(mc_validate_terms, beta, sig, dist, 0, trials=1000,
                            seed=1, chunk=300)
    before = threading.active_count()
    during = []
    kernel = rate._mc_trial_terms

    def counting(*args):
        during.append(threading.active_count())
        return kernel(*args)

    monkeypatch.setattr(rate, "_mc_trial_terms", counting)
    # four chunks, seen by the caller and its fading worker
    assert _call_within(run) == (None, before + 1)
    assert during[:2] == [before + 2] * 2 and len(during) == 4

    def failing_on_second_chunk(*args):
        during.append(threading.active_count())
        if len(during) == 2:
            time.sleep(0.05)  # the worker draws the third chunk meanwhile
            raise RuntimeError("kernel failed")
        return kernel(*args)

    during.clear()
    monkeypatch.setattr(rate, "_mc_trial_terms", failing_on_second_chunk)
    assert _call_within(run) == ("kernel failed", before + 1)
    assert during == [before + 2] * 2


@pytest.mark.parametrize("failing_fill", [0, 2])
def test_monte_carlo_failed_fill_reaches_the_caller(monkeypatch, failing_fill):
    beta, sig, dist = _small_drop(14, 4, 2)
    run = functools.partial(mc_validate_terms, beta, sig, dist, 0, trials=1000,
                            seed=1, chunk=300)
    before = threading.active_count()
    fills = []

    class FailingFading:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, out):
            fills.append(out.shape[0])
            if len(fills) > failing_fill:
                raise RuntimeError("fill failed")
            return self.rng.standard_normal(out=out)

    def derive(seed, stream, index=0):
        rng = derive_rng(seed, stream, index)
        return FailingFading(rng) if stream == "mc_channel" else rng

    monkeypatch.setattr(rate, "derive_rng", derive)
    assert _call_within(run) == ("fill failed", before + 1)
    assert fills == [300] * (failing_fill + 1)


def test_monte_carlo_rejects_a_generator_seed():
    # one generator shared by both threads would be drawn in a
    # thread-dependent order
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
    built component by component; the reference the kernel is checked
    against.
    """
    m, n_users = beta.shape
    parts = derive_rng(seed, "mc_channel").standard_normal((trials, m, n_users, 2))
    g = np.sqrt(beta) * (parts[..., 0] + 1j * parts[..., 1]) / np.sqrt(2.0)
    wparts = derive_rng(seed, "mc_noise").standard_normal((trials, m, 2))
    w = np.sqrt(sig.delta_sq) * (wparts[..., 0] + 1j * wparts[..., 1]) / np.sqrt(2.0)
    qparts = derive_rng(seed, "mc_quant").standard_normal((trials, m, 2))
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
