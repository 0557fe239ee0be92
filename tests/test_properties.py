"""Property tests for the claims the planner's optima and studies rest on.

Configurations for the optima are drawn from the neighbourhood family of
the acceptance check A6: every power, cost and signal parameter within
+-30% of the reference set, 50-150 APs, 5-20 users, FSO capacity 1-4
bits/s/Hz and a symmetric gain between 3e-13 and 3e-12.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fronthaul_planner.energy import (PowerCostParams, aggregate_params,
                                      ee_symmetric)
from fronthaul_planner.fronthaul import (UplinkSignalParams,
                                         received_signal_power)
from fronthaul_planner.optimizer import optimal_n_closed_form
from fronthaul_planner.rate import MC_BLOCK, mc_validate_terms, per_user_sinrs

NOISE_W = 6.36241029449455e-13
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def neighbourhood(draw):
    """(agg, m, k, c_fso, b_s) near the reference configuration."""
    p = lambda: draw(st.floats(0.7, 1.3))
    m = draw(st.integers(50, 150))
    k = draw(st.integers(5, 20))
    c = draw(st.sampled_from([1.0, 2.0, 3.0, 4.0]))
    beta = 10.0 ** draw(st.floats(np.log10(3e-13), np.log10(3e-12)))
    sig = UplinkSignalParams.symmetric(0.1 * p(), 0.5 * p(), NOISE_W, m, k)
    pfh_of = 0.25 * p()
    pc = PowerCostParams(0.2 * p(), 0.825 * p(), max(pfh_of, 0.3 * p()),
                         pfh_of, 0.003 * p(), 0.03 * p(), 20e6 * p())
    return aggregate_params(beta, sig, pc, m, k, c), m, k, c, pc.b_s


@SETTINGS
@given(neighbourhood(), st.floats(1.0, 10.0))
def test_best_fiber_count_is_an_endpoint(setup, n):
    # at fixed n the objective is a convex function of m_of over a positive
    # affine one, hence quasi-convex: no interior split beats both endpoints
    # (up to rounding, which can tie an interior point on a flat objective).
    # This is why A1's interior target (2, 48) is out of this model's reach.
    agg, m, k, c, b_s = setup
    ee = ee_symmetric(n, np.arange(m + 1), agg, m, k, b_s, c)
    assert max(ee[0], ee[m]) >= ee.max() * (1.0 - 1e-12)


@SETTINGS
@given(neighbourhood(), st.data())
def test_n_step_beats_the_fine_grid(setup, data):
    # the n-step's promise: at fixed m_of, no coefficient of the 0.01 grid
    # over [1, 10] does better
    agg, m, k, c, b_s = setup
    m_of = data.draw(st.integers(1, m))
    n = optimal_n_closed_form(m_of, agg, m, c)
    assert 1.0 <= n <= 10.0
    grid = ee_symmetric(1.0 + 0.01 * np.arange(901), m_of, agg, m, k, b_s, c)
    assert ee_symmetric(n, m_of, agg, m, k, b_s, c) >= grid.max() * (1.0 - 1e-12)


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 40),
       st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_closed_forms_on_a_stack_equal_each_slice(s, b, m, k, seed):
    # the rate CDF evaluates an (S, B, M) distortion stack against a
    # (B, M, K) gain stack in one call; each slice must be bit for bit the
    # 2-D call on that slice alone
    rng = np.random.default_rng(seed)
    beta = 10.0 ** rng.uniform(-16, -9, size=(b, m, k))
    sig = UplinkSignalParams(rng.uniform(0.01, 1.0), rng.uniform(0.0, 1.0, k),
                             10.0 ** rng.uniform(-14, -12, m))
    dist = 10.0 ** rng.uniform(-15, -11, size=(s, b, m))
    power = received_signal_power(beta, sig)
    sinrs = per_user_sinrs(beta, sig, dist)
    assert power.shape == (b, m) and sinrs.shape == (s, b, k)
    for j in range(b):
        assert np.array_equal(power[j], received_signal_power(beta[j], sig))
        for i in range(s):
            assert np.array_equal(sinrs[i, j],
                                  per_user_sinrs(beta[j], sig, dist[i, j]))


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_monte_carlo_terms_do_not_depend_on_the_chunk(m, n_users, seed, data):
    # every chunking of the same trials must give the same bits: the
    # estimates sum fixed blocks of the trial index, in trial order
    trials = data.draw(st.integers(1, 4 * MC_BLOCK))
    k = data.draw(st.integers(0, n_users - 1))
    chunks = data.draw(st.lists(st.integers(1, trials), min_size=2, max_size=2))
    rng = np.random.default_rng(seed)
    beta = 10.0 ** rng.uniform(-13, -11, size=(m, n_users))
    sig = UplinkSignalParams(0.1, rng.uniform(0.1, 1.0, n_users),
                             10.0 ** rng.uniform(-13, -12, m))
    dist = 10.0 ** rng.uniform(-14, -12, m)
    a, b = (mc_validate_terms(beta, sig, dist, k, trials, seed, chunk=c)
            for c in chunks)
    assert (a.ds_sq, a.bu_var, a.noise_var) == (b.ds_sq, b.bu_var, b.noise_var)
    assert np.array_equal(a.interference_var, b.interference_var)
