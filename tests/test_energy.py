"""Tests for power, cost, energy efficiency and the symmetric objective."""

from dataclasses import replace

import numpy as np
import pytest

from fronthaul_planner.energy import aggregate_params, ee_symmetric, symmetric_terms
from fronthaul_planner.fronthaul import (FronthaulPlan, UplinkSignalParams,
                                         per_ap_distortions)
from fronthaul_planner.rate import achievable_rates
from reference import (NOISE_W, POWER_COST, energy_efficiency, fronthaul_cost,
                       network_power)


def default_setup(m=100, k=10, beta=1.1e-12, c_fso=2.0):
    sig = UplinkSignalParams.symmetric(0.1, 0.5, NOISE_W, m, k)
    agg = aggregate_params(beta, sig, POWER_COST, m, k, c_fso)
    return sig, POWER_COST, agg


def test_network_power_reference_value():
    # hand evaluation, all-FSO at M = 100, K = 10, C = 2, B_s = 20 MHz:
    # 0.5 + 20 + 100 * (2 * 2e7 / 1e9) * 0.3 + 82.5 = 104.2 W
    sig, pc, _ = default_setup()
    plan = FronthaulPlan.fso_first(100, 0, 2.0)
    assert network_power(sig, pc, plan) == pytest.approx(104.2, rel=1e-12)


def test_network_power_ue_isolation():
    m, k = 10, 4
    sig = UplinkSignalParams.symmetric(0.1, 0.5, NOISE_W, m, k)
    pc = replace(POWER_COST, p_circuit=0.0, p0=0.0, p_fh_fso=0.0, p_fh_of=0.0,
                 mu_fso=0.0, mu_of=0.0)
    plan = FronthaulPlan.fso_first(m, 0, 2.0)
    assert network_power(sig, pc, plan) == pytest.approx(k * 0.1 * 0.5, rel=1e-12)


def test_network_power_increases_with_n():
    sig, pc, _ = default_setup()
    p2 = network_power(sig, pc, FronthaulPlan.fso_first(100, 30, 2.0, 2.0))
    p4 = network_power(sig, pc, FronthaulPlan.fso_first(100, 30, 2.0, 4.0))
    assert p4 > p2


def test_fronthaul_cost_values():
    pc = POWER_COST
    assert fronthaul_cost(FronthaulPlan.fso_first(100, 0, 2.0), pc) == pytest.approx(0.6)
    empty = FronthaulPlan(np.zeros(0, dtype=bool), 2.0)
    assert fronthaul_cost(empty, pc) == 0.0


def test_fronthaul_cost_split_invariant_at_equal_prices():
    pc = replace(POWER_COST, mu_fso=0.003, mu_of=0.003)
    costs = [fronthaul_cost(FronthaulPlan.fso_first(50, m_of, 2.0, 1.0), pc)
             for m_of in (0, 20, 50)]
    assert costs[0] == pytest.approx(costs[1], rel=1e-12)
    assert costs[0] == pytest.approx(costs[2], rel=1e-12)


def test_energy_efficiency_basic():
    assert energy_efficiency(3.0, 50.0, 10.0, 20e6) == pytest.approx(1e6)
    assert energy_efficiency(3.0, 110.0, 10.0, 20e6) == pytest.approx(0.5e6)
    assert energy_efficiency(0.0, 50.0, 10.0, 20e6) == 0.0
    with pytest.raises(ValueError):
        energy_efficiency(3.0, 0.0, 0.0, 20e6)


def test_aggregate_reference_values():
    # independent re-derivation at beta = 1.1e-12 with reference parameters;
    # abs=0: approx's default absolute band, 1e-12, would pass any value of
    # l1, l2 or alpha_of, all near 1e-22 to 1e-24
    _, _, agg = default_setup()
    assert agg.l1 == pytest.approx(6.05e-22, rel=1e-12, abs=0)
    assert agg.l2 == pytest.approx(1.3048651323944e-22, rel=1e-10, abs=0)
    assert agg.alpha_of == pytest.approx(1.3048651323944e-24, rel=1e-10, abs=0)
    assert agg.gamma_ep == pytest.approx(103.0, rel=1e-12)
    assert agg.gamma_fso == pytest.approx(0.018, rel=1e-12)
    assert agg.gamma_of == pytest.approx(0.07, rel=1e-12)


def test_aggregate_identities():
    _, _, agg = default_setup()
    assert agg.alpha_fso * (2.0 ** 2.0 - 1.0) == pytest.approx(agg.alpha_of, rel=1e-14,
                                                            abs=0)
    # l1 / l2 = M rho eta beta / (K rho eta beta + delta2)
    beta = 1.1e-12
    expected = 100 * 0.05 * beta / (10 * 0.05 * beta + NOISE_W)
    assert agg.l1 / agg.l2 == pytest.approx(expected, rel=1e-12)


def test_aggregate_requires_symmetry():
    sig = UplinkSignalParams(0.1, np.array([0.5, 0.6]), np.full(3, NOISE_W))
    with pytest.raises(ValueError):
        aggregate_params(1e-12, sig, POWER_COST, 3, 2, 2.0)


def test_aggregate_over_an_eta_array_holds_each_scalar_aggregate():
    # each entry of an eta-array field has the bits of the scalar aggregate
    # at that eta, and the objective broadcasts over the array
    etas = np.linspace(0.0, 1.0, 7)
    sig, pc, _ = default_setup()
    agg = aggregate_params(1.1e-12, sig, pc, 100, 10, 2.0, eta=etas[:, None])
    ns, mofs = np.array([1.0, 2.0, 8.0]), np.array([0, 48, 100])
    ee, rate = symmetric_terms(ns, mofs, agg)
    assert ee.shape == rate.shape == (7, 3)
    for i, eta in enumerate(etas):
        one = aggregate_params(1.1e-12, replace(sig, eta=np.full(10, eta)), pc,
                               100, 10, 2.0)
        for name in ("l1", "l2", "alpha_fso", "alpha_of", "gamma_ep"):
            assert getattr(agg, name)[i, 0] == getattr(one, name)
        for got, want in zip((ee[i], rate[i]), symmetric_terms(ns, mofs, one)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("eta", [-0.1, 1.5, np.nan])
def test_aggregate_rejects_eta_outside_the_unit_interval(eta):
    sig, pc, _ = default_setup()
    with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\]"):
        aggregate_params(1.1e-12, sig, pc, 100, 10, 2.0, eta=np.array([0.5, eta]))


@pytest.mark.parametrize("beta", [1e200, 1e-320, np.nan])
@pytest.mark.parametrize("eta", [None, np.array([0.0, 0.5])])
def test_aggregate_rejects_a_gain_out_of_scale(beta, eta):
    # overflowing aggregates (0 * inf at eta = 0 included), a noise floor l2
    # that rounds to 0, and NaN: rejected without a warning
    sig, pc, _ = default_setup()
    with pytest.raises(ValueError, match="'beta_scalar' = .* is out of scale"):
        aggregate_params(beta, sig, pc, 100, 10, 2.0, eta=eta)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_aggregate_rejects_a_gain_or_fso_capacity_not_positive(value):
    # rejected at the argument check, not later with the out-of-scale message
    sig, pc, _ = default_setup()
    with pytest.raises(ValueError, match="beta_scalar must be positive"):
        aggregate_params(value * 1.1e-12, sig, pc, 100, 10, 2.0)
    with pytest.raises(ValueError, match="c_fso must be positive"):
        aggregate_params(1.1e-12, sig, pc, 100, 10, value * 2.0)


@pytest.mark.parametrize("m, k", [(50, 10), (100, 5)])
def test_aggregate_rejects_network_other_than_sig(m, k):
    sig = UplinkSignalParams.symmetric(0.1, 0.5, NOISE_W, 100, 10)
    with pytest.raises(ValueError, match="AP and user counts"):
        aggregate_params(1.1e-12, sig, POWER_COST, m, k, 2.0)


@pytest.mark.parametrize("network", [(60, 10, 20e6, 2.0), (100, 9, 20e6, 2.0),
                                     (100, 10, 10e6, 2.0), (100, 10, 20e6, 3.0)])
def test_ee_symmetric_rejects_network_other_than_aggregate(network):
    _, _, agg = default_setup()
    with pytest.raises(ValueError, match="aggregate's network"):
        ee_symmetric(2.0, 48, agg, *network)


def test_power_cost_validation():
    with pytest.raises(ValueError):
        replace(POWER_COST, mu_fso=0.05, mu_of=0.03)
    with pytest.raises(ValueError):
        replace(POWER_COST, p_fh_fso=0.1, p_fh_of=0.2)
    with pytest.raises(ValueError):
        replace(POWER_COST, p_circuit=-1.0)


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


def test_symmetric_terms_rejects_cells_without_power():
    # no UE, circuit or link power and free FSO links: an all-FSO cell
    # consumes nothing, while fiber still costs mu_of
    sig = UplinkSignalParams.symmetric(0.1, 0.0, NOISE_W, 100, 10)
    pc = replace(POWER_COST, p_circuit=0.0, p0=0.0, p_fh_fso=0.0, p_fh_of=0.0,
                 mu_fso=0.0)
    agg = aggregate_params(1.1e-12, sig, pc, 100, 10, 2.0)
    assert symmetric_terms(2.0, 48, agg)[0] == 0.0
    with pytest.raises(ValueError, match="power plus cost must be positive"):
        symmetric_terms(2.0, 0, agg)
    with pytest.raises(ValueError, match="power plus cost must be positive"):
        symmetric_terms(2.0, np.arange(101), agg)


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
    ee_general = energy_efficiency(float(np.sum(rates)),
                                   network_power(sig, pc, plan),
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
    scaled = replace(agg, gamma_ep=3.0 * agg.gamma_ep,
                     gamma_fso=3.0 * agg.gamma_fso, gamma_of=3.0 * agg.gamma_of)
    assert ee_symmetric(2.0, 40, scaled, 100, 10, 20e6, 2.0) == pytest.approx(
        ee / 3.0, rel=1e-12)


def test_ee_decreasing_in_endpoint_power():
    _, _, agg = default_setup()
    gammas = np.linspace(agg.gamma_ep, 4.0 * agg.gamma_ep, 8)
    ees = [ee_symmetric(2.0, 40, replace(agg, gamma_ep=g), 100, 10, 20e6, 2.0)
           for g in gammas]
    assert np.all(np.diff(ees) < 0)
