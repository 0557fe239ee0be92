"""Tests for link plans, received power and quantization distortion."""

import numpy as np
import pytest

from fronthaul_planner.fronthaul import (FronthaulPlan, UplinkSignalParams,
                                         per_ap_distortions,
                                         quantization_noise_var,
                                         received_signal_power)


def symmetric_sig(rho=0.1, eta=0.5, noise=0.01, m=4, k=3):
    return UplinkSignalParams.symmetric(rho, eta, noise, m, k)


def test_plan_counts_and_capacities():
    plan = FronthaulPlan.fso_first(5, 2, c_fso=2.0, n_coeff=3.0)
    assert plan.m == 5 and plan.m_of == 2
    assert plan.is_fiber.tolist() == [False] * 3 + [True] * 2
    assert np.array_equal(plan.capacities(), [2.0, 2.0, 2.0, 6.0, 6.0])


def test_plan_validation():
    # the mask must be 1-D bool: tag strings, 0/1 ints and 2-D masks raise
    with pytest.raises(ValueError):
        FronthaulPlan(np.array(["FSO", "OF"], dtype=object), 2.0)
    with pytest.raises(ValueError):
        FronthaulPlan(np.array([0, 1]), 2.0)
    with pytest.raises(ValueError):
        FronthaulPlan(np.zeros((2, 2), dtype=bool), 2.0)
    with pytest.raises(ValueError):
        FronthaulPlan.fso_first(4, 2, c_fso=2.0, n_coeff=0.5)
    with pytest.raises(ValueError):
        FronthaulPlan.fso_first(4, 2, c_fso=0.0)
    with pytest.raises(ValueError):
        FronthaulPlan.fso_first(4, 5, c_fso=2.0)
    # sub-unit coefficient is fine when no fiber is deployed
    FronthaulPlan.fso_first(4, 0, c_fso=2.0, n_coeff=0.5)


def test_signal_params_validation():
    with pytest.raises(ValueError):
        UplinkSignalParams(0.1, np.array([1.5]), np.array([0.01]))
    with pytest.raises(ValueError):
        UplinkSignalParams(-0.1, np.array([0.5]), np.array([0.01]))
    with pytest.raises(ValueError):
        UplinkSignalParams(0.1, np.array([0.5]), np.array([-0.01]))


def test_received_power_noise_only():
    sig = UplinkSignalParams(0.0, np.full(3, 0.5), np.array([0.01, 0.02]))
    beta = np.ones((2, 3))
    assert np.array_equal(received_signal_power(beta, sig), [0.01, 0.02])


def test_received_power_single_term():
    sig = UplinkSignalParams(0.1, np.array([1.0]), np.array([0.01]))
    power = received_signal_power(np.array([[1.0]]), sig)
    assert power[0] == pytest.approx(0.11, rel=1e-12)


def test_received_power_dimension_mismatch():
    sig = symmetric_sig(m=4, k=3)
    with pytest.raises(ValueError):
        received_signal_power(np.ones((4, 2)), sig)


def test_received_power_against_monte_carlo():
    rng = np.random.default_rng(7)
    m, k = 5, 4
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, rng.uniform(0.2, 1.0, k), np.full(m, 6.36e-13))
    expected = received_signal_power(beta, sig)
    trials = 100_000
    g = np.sqrt(beta) * (rng.standard_normal((trials, m, k))
                         + 1j * rng.standard_normal((trials, m, k))) / np.sqrt(2)
    q = (rng.standard_normal((trials, k))
         + 1j * rng.standard_normal((trials, k))) / np.sqrt(2)
    w = np.sqrt(sig.delta_sq) * (rng.standard_normal((trials, m))
                                 + 1j * rng.standard_normal((trials, m))) / np.sqrt(2)
    y = np.sqrt(sig.rho_u) * np.einsum("tmk,tk->tm", g, np.sqrt(sig.eta) * q) + w
    empirical = np.mean(np.abs(y) ** 2, axis=0)
    assert np.allclose(empirical, expected, rtol=0.02)


def test_quantization_noise_basic_values():
    assert quantization_noise_var(1.0, 1.0) == pytest.approx(1.0)
    assert quantization_noise_var(3.0, 2.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        quantization_noise_var(1.0, 0.0)
    with pytest.raises(ValueError):
        quantization_noise_var(-1.0, 1.0)


@pytest.mark.parametrize("capacity", [1e-17, [2.0, 1e-17]])
def test_quantization_noise_rejects_capacity_below_resolution(capacity):
    # 2^C - 1 rounds to 0: the law would divide by zero
    with pytest.raises(ValueError, match="1e-17 is too small"):
        quantization_noise_var(1.0, capacity)
    assert quantization_noise_var(1.0, 1e-15) > 0


def test_quantization_noise_decreasing_in_capacity():
    caps = np.linspace(0.5, 30.0, 100)
    d = quantization_noise_var(2.0, caps)
    assert np.all(np.diff(d) < 0)
    assert quantization_noise_var(2.0, 60.0) < 1e-15


def test_rate_distortion_identity():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        s = 10.0 ** rng.uniform(-14, 2)
        c = rng.uniform(0.1, 20.0)
        d = quantization_noise_var(s, c)
        assert abs(np.log2(1.0 + s / d) - c) < 1e-12 * max(1.0, c)


def test_distortions_ideal_fiber_limit():
    sig = symmetric_sig()
    beta = np.full((4, 3), 1e-12)
    plan = FronthaulPlan.fso_first(4, 4, c_fso=2.0, n_coeff=200.0)
    d = per_ap_distortions(beta, sig, plan)
    assert np.all(d < 1e-100)


def test_distortions_equal_capacity_split_invariant():
    sig = symmetric_sig()
    beta = np.full((4, 3), 1e-12)
    d_mixed = per_ap_distortions(beta, sig, FronthaulPlan.fso_first(4, 2, 2.0, 1.0))
    d_fso = per_ap_distortions(beta, sig, FronthaulPlan.fso_first(4, 0, 2.0))
    assert np.allclose(d_mixed, d_fso, rtol=1e-14)


def test_distortions_match_aggregate_penalties():
    # in the symmetric model D_m * beta reproduces the per-link penalties
    from fronthaul_planner.energy import aggregate_params
    from reference import NOISE_W, POWER_COST

    m, k, beta, c, n = 6, 3, 1.1e-12, 2.0, 3.0
    sig = UplinkSignalParams.symmetric(0.1, 0.5, NOISE_W, m, k)
    plan = FronthaulPlan.fso_first(m, 2, c, n)
    d = per_ap_distortions(np.full((m, k), beta), sig, plan)
    agg = aggregate_params(beta, sig, POWER_COST, m, k, c)
    assert np.allclose(d[:4] * beta, agg.alpha_fso, rtol=1e-12)
    assert np.allclose(d[4:] * beta, agg.alpha_of / (2.0 ** (n * c) - 1.0), rtol=1e-12)


def test_distortions_monotone_in_inputs():
    rng = np.random.default_rng(5)
    m, k = 5, 4
    beta = 10.0 ** rng.uniform(-13, -12, size=(m, k))
    sig = UplinkSignalParams(0.1, rng.uniform(0.2, 1.0, k), np.full(m, 1e-13))
    plan = FronthaulPlan.fso_first(m, 2, 2.0, 2.0)
    base = per_ap_distortions(beta, sig, plan)

    bumped = beta.copy()
    bumped[1, 2] *= 1.5
    assert np.all(per_ap_distortions(bumped, sig, plan) >= base)

    hot = UplinkSignalParams(sig.rho_u, sig.eta, sig.delta_sq * 2.0)
    assert np.all(per_ap_distortions(beta, hot, plan) >= base)

    strong = UplinkSignalParams(sig.rho_u * 2.0, sig.eta, sig.delta_sq)
    assert np.all(per_ap_distortions(beta, strong, plan) >= base)

    greedy = UplinkSignalParams(sig.rho_u, np.minimum(1.0, sig.eta * 1.4),
                                sig.delta_sq)
    assert np.all(per_ap_distortions(beta, greedy, plan) >= base)

    plan_wrong = FronthaulPlan.fso_first(m + 1, 2, 2.0, 2.0)
    with pytest.raises(ValueError):
        per_ap_distortions(beta, sig, plan_wrong)
