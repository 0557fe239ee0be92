"""Tests for the closed-form SINR decomposition and its Monte-Carlo check."""

import tracemalloc

import numpy as np
import pytest

from fronthaul_planner.fronthaul import UplinkSignalParams
from fronthaul_planner.rate import (RateResult, achievable_rates,
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
    assert rates.sum_rate == pytest.approx(np.sum(np.log2(1 + gammas)), rel=1e-12)


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


def test_rate_result_validation():
    with pytest.raises(ValueError):
        RateResult(np.array([-0.1]))
    r = RateResult(np.array([1.0, 2.5]))
    assert r.sum_rate == pytest.approx(3.5)


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
