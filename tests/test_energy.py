"""Tests for power, cost, energy efficiency and the symmetric objective."""

import numpy as np
import pytest

from fronthaul_planner.energy import (AggregateParams, PowerCostParams,
                                      aggregate_params, ee_symmetric,
                                      energy_efficiency, fronthaul_cost,
                                      network_power)
from fronthaul_planner.fronthaul import (FronthaulPlan, UplinkSignalParams,
                                         per_ap_distortions)
from fronthaul_planner.rate import RateResult, achievable_rates

NOISE_W = 6.36241029449455e-13


def default_setup(m=100, k=10, beta=1.1e-12, c_fso=2.0):
    sig = UplinkSignalParams.symmetric(0.1, 0.5, NOISE_W, m, k)
    pc = PowerCostParams()
    agg = aggregate_params(beta, sig, pc, m, k, c_fso)
    return sig, pc, agg


def test_network_power_reference_value():
    # hand evaluation, all-FSO at M = 100, K = 10, C = 2, B_s = 20 MHz:
    # 0.5 + 20 + 100 * (2 * 2e7 / 1e9) * 0.3 + 82.5 = 104.2 W
    sig, pc, _ = default_setup()
    plan = FronthaulPlan.fso_first(100, 0, 2.0)
    assert network_power(sig, pc, plan) == pytest.approx(104.2, rel=1e-12)


def test_network_power_ue_isolation():
    m, k = 10, 4
    sig = UplinkSignalParams.symmetric(0.1, 0.5, NOISE_W, m, k)
    pc = PowerCostParams(p_circuit=0.0, p0=0.0, p_fh_fso=0.0, p_fh_of=0.0,
                         mu_fso=0.0, mu_of=0.0)
    plan = FronthaulPlan.fso_first(m, 0, 2.0)
    assert network_power(sig, pc, plan) == pytest.approx(k * 0.1 * 0.5, rel=1e-12)


def test_network_power_increases_with_n():
    sig, pc, _ = default_setup()
    p2 = network_power(sig, pc, FronthaulPlan.fso_first(100, 30, 2.0, 2.0))
    p4 = network_power(sig, pc, FronthaulPlan.fso_first(100, 30, 2.0, 4.0))
    assert p4 > p2


def test_fronthaul_cost_values():
    pc = PowerCostParams()
    assert fronthaul_cost(FronthaulPlan.fso_first(100, 0, 2.0), pc) == pytest.approx(0.6)
    empty = FronthaulPlan(np.zeros(0, dtype=bool), 2.0)
    assert fronthaul_cost(empty, pc) == 0.0


def test_fronthaul_cost_split_invariant_at_equal_prices():
    pc = PowerCostParams(mu_fso=0.003, mu_of=0.003)
    costs = [fronthaul_cost(FronthaulPlan.fso_first(50, m_of, 2.0, 1.0), pc)
             for m_of in (0, 20, 50)]
    assert costs[0] == pytest.approx(costs[1], rel=1e-12)
    assert costs[0] == pytest.approx(costs[2], rel=1e-12)


def test_energy_efficiency_basic():
    rates = RateResult(np.array([2.0, 1.0]))
    assert energy_efficiency(rates, 50.0, 10.0, 20e6) == pytest.approx(1e6)
    assert energy_efficiency(rates, 110.0, 10.0, 20e6) == pytest.approx(0.5e6)
    assert energy_efficiency(RateResult(np.zeros(2)), 50.0, 10.0, 20e6) == 0.0
    with pytest.raises(ValueError):
        energy_efficiency(rates, 0.0, 0.0, 20e6)


def test_aggregate_reference_values():
    # independent re-derivation at beta = 1.1e-12 with reference parameters
    _, _, agg = default_setup()
    assert agg.l1 == pytest.approx(6.05e-22, rel=1e-12)
    assert agg.l2 == pytest.approx(1.3048651323944e-22, rel=1e-10)
    assert agg.alpha_of == pytest.approx(1.3048651323944e-24, rel=1e-10)
    assert agg.gamma_ep == pytest.approx(103.0, rel=1e-12)
    assert agg.gamma_fso == pytest.approx(0.018, rel=1e-12)
    assert agg.gamma_of == pytest.approx(0.07, rel=1e-12)


def test_aggregate_identities():
    _, _, agg = default_setup()
    assert agg.alpha_fso * (2.0 ** 2.0 - 1.0) == pytest.approx(agg.alpha_of, rel=1e-14)
    # l1 / l2 = M rho eta beta / (K rho eta beta + delta2)
    beta = 1.1e-12
    expected = 100 * 0.05 * beta / (10 * 0.05 * beta + NOISE_W)
    assert agg.l1 / agg.l2 == pytest.approx(expected, rel=1e-12)


def test_aggregate_requires_symmetry():
    sig = UplinkSignalParams(0.1, np.array([0.5, 0.6]), np.full(3, NOISE_W))
    with pytest.raises(ValueError):
        aggregate_params(1e-12, sig, PowerCostParams(), 3, 2, 2.0)


def test_power_cost_validation():
    with pytest.raises(ValueError):
        PowerCostParams(mu_fso=0.05, mu_of=0.03)
    with pytest.raises(ValueError):
        PowerCostParams(p_fh_fso=0.1, p_fh_of=0.2)
    with pytest.raises(ValueError):
        PowerCostParams(p_circuit=-1.0)


def test_ee_symmetric_no_fiber_ignores_n():
    _, _, agg = default_setup()
    vals = [ee_symmetric(n, 0, agg, 100, 10, 20e6, 2.0) for n in (1.0, 3.7, 9.0)]
    assert vals[0] == vals[1] == vals[2]


def test_ee_symmetric_rejects_zero_n_with_fiber():
    _, _, agg = default_setup()
    with pytest.raises(ValueError):
        ee_symmetric(0.0, 10, agg, 100, 10, 20e6, 2.0)
    with pytest.raises(ValueError):
        ee_symmetric(2.0, 150, agg, 100, 10, 20e6, 2.0)
    # n = 0 without fiber is a valid degenerate point
    ee_symmetric(0.0, 0, agg, 100, 10, 20e6, 2.0)


def test_ee_symmetric_vanishes_for_huge_n():
    # rate saturates while power grows linearly in n, so EE decays like 1/n
    _, _, agg = default_setup()
    ref = ee_symmetric(2.0, 100, agg, 100, 10, 20e6, 2.0)
    tail = np.array([ee_symmetric(n, 100, agg, 100, 10, 20e6, 2.0)
                     for n in (50.0, 100.0, 200.0, 400.0)])
    assert np.all(np.diff(tail) < 0)
    assert tail[-1] < 0.05 * ref
    # 1/n decay: doubling n roughly halves EE once the rate has saturated
    assert tail[2] / tail[1] == pytest.approx(0.5, abs=0.1)


def test_ee_symmetric_matches_general_pipeline():
    # symmetric gains through the full pipeline reproduce the aggregate form
    m, k, beta, c, n, m_of = 40, 6, 7.3e-13, 2.0, 2.5, 17
    sig, pc, agg = default_setup(m, k, beta, c)
    plan = FronthaulPlan.fso_first(m, m_of, c, n)
    dist = per_ap_distortions(np.full((m, k), beta), sig, plan)
    rates = achievable_rates(np.full((m, k), beta), sig, dist)
    ee_general = energy_efficiency(rates, network_power(sig, pc, plan),
                                   fronthaul_cost(plan, pc), pc.b_s)
    ee_agg = ee_symmetric(n, m_of, agg, m, k, pc.b_s, c)
    assert abs(ee_general - ee_agg) / ee_agg < 1e-12


def test_ee_symmetric_unimodal_or_monotone_in_n():
    _, _, agg = default_setup()
    ns = 1.0 + 0.1 * np.arange(91)
    for m_of in (25, 48, 100):
        ee = ee_symmetric(ns, m_of, agg, 100, 10, 20e6, 2.0)
        signs = np.sign(np.diff(ee))
        changes = np.count_nonzero(np.diff(signs[signs != 0]) != 0)
        assert changes <= 1


def test_ee_magnitude_in_expected_regime():
    # reference operating point: a few Mbit per Joule at the default gain
    _, _, agg = default_setup()
    ee = ee_symmetric(2.0, 48, agg, 100, 10, 20e6, 2.0)
    assert 2.5e6 < ee < 4.5e6


def test_ee_scaling_in_power_terms():
    _, _, agg = default_setup()
    ee = ee_symmetric(2.0, 40, agg, 100, 10, 20e6, 2.0)
    scaled = AggregateParams(agg.l1, agg.l2, agg.alpha_fso, agg.alpha_of,
                             3.0 * agg.gamma_ep, 3.0 * agg.gamma_fso,
                             3.0 * agg.gamma_of)
    assert ee_symmetric(2.0, 40, scaled, 100, 10, 20e6, 2.0) == pytest.approx(
        ee / 3.0, rel=1e-12)


def test_ee_decreasing_in_endpoint_power():
    _, _, agg = default_setup()
    gammas = np.linspace(agg.gamma_ep, 4.0 * agg.gamma_ep, 8)
    ees = [ee_symmetric(2.0, 40,
                        AggregateParams(agg.l1, agg.l2, agg.alpha_fso,
                                        agg.alpha_of, g, agg.gamma_fso,
                                        agg.gamma_of),
                        100, 10, 20e6, 2.0) for g in gammas]
    assert np.all(np.diff(ees) < 0)
