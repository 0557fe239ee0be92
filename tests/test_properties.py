"""Property tests for the claims the planner's optima and studies rest on.

Configurations for the optima are drawn from the neighbourhood family of
the acceptance check A6: every power, cost and signal parameter within
+-30% of the reference set, 50-150 APs, 5-20 users, FSO capacity 1-4
bits/s/Hz and a symmetric gain between 3e-13 and 3e-12.
"""

import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fronthaul_planner import experiments
from fronthaul_planner.channel import DropBlocks, ShadowingModel, db_to_linear
from fronthaul_planner.config import SystemConfig
from fronthaul_planner.energy import (PowerCostParams, aggregate_params,
                                      symmetric_terms)
from fronthaul_planner.experiments import (BLOCK_ROWS, SURFACE_COST_SETS,
                                           SURFACE_N, symmetric_setup,
                                           write_table)
from fronthaul_planner.fronthaul import (UplinkSignalParams,
                                         quantization_noise_var,
                                         received_signal_power)
from fronthaul_planner.optimizer import (N_MAX, N_MIN, N_STEP,
                                         fiber_count_intermediates, grid_cells,
                                         grid_search, optimal_m_of_closed_form,
                                         optimal_n_closed_form, parse_range)
from fronthaul_planner.rate import MC_BLOCK, mc_validate_terms, per_user_sinrs
from fronthaul_planner.seeds import STREAMS, derive_rng
from reference import (NOISE_W, PATH_LOSS, SHADOWING, argmax_n_step,
                       distances, loop_m_of_step)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def neighbourhood(draw):
    """Aggregate parameters of a network near the reference configuration."""
    p = lambda: draw(st.floats(0.7, 1.3))
    m = draw(st.integers(50, 150))
    k = draw(st.integers(5, 20))
    c = draw(st.sampled_from([1.0, 2.0, 3.0, 4.0]))
    beta = 10.0 ** draw(st.floats(np.log10(3e-13), np.log10(3e-12)))
    sig = UplinkSignalParams.symmetric(0.1 * p(), 0.5 * p(), NOISE_W, m, k)
    pfh_of = 0.25 * p()
    pc = PowerCostParams(0.2 * p(), 0.825 * p(), max(pfh_of, 0.3 * p()),
                         pfh_of, 0.003 * p(), 0.03 * p(), 20e6 * p())
    return aggregate_params(beta, sig, pc, m, k, c)


@SETTINGS
@given(neighbourhood(), st.floats(1.0, 10.0))
def test_best_fiber_count_is_an_endpoint(agg, n):
    # at fixed n the objective is a convex function of m_of over a positive
    # affine one, hence quasi-convex: no interior split beats both endpoints
    # (up to rounding, which can tie an interior point on a flat objective).
    # This is why A1's interior target (2, 48) is out of this model's reach.
    ee = symmetric_terms(n, np.arange(agg.m + 1), agg)[0]
    assert max(ee[0], ee[agg.m]) >= ee.max() * (1.0 - 1e-12)


@SETTINGS
@given(neighbourhood(), st.floats(1.0, 10.0), st.floats(0.0, 1.0))
def test_paper_fiber_count_point_minimizes_sinr_over_power(agg, n, share):
    # the paper's fiber-count form: kappa1 - kappa2 m is the SINR
    # denominator and kappa3 + kappa4 m the power plus cost of the symmetric
    # objective, and m_cont the stationary point of their product. Where
    # kappa2 kappa4 > 0 the product is a downward parabola, so m_cont
    # maximizes it and minimizes SINR/P. This is why the planner's
    # fiber-count step compares the endpoints alone.
    kap = fiber_count_intermediates(n, agg)
    m = share * agg.m
    den = (agg.l2 + (agg.m - m) * agg.alpha_fso
           + quantization_noise_var(m * agg.alpha_of, n * agg.c_fso))
    power = agg.gamma_ep + (agg.m - m) * agg.gamma_fso + n * m * agg.gamma_of
    assert kap.kappa1 - kap.kappa2 * m == pytest.approx(den, rel=1e-12)
    assert kap.kappa3 + kap.kappa4 * m == pytest.approx(power, rel=1e-12)
    ee = agg.k * agg.b_s * np.log2(1.0 + agg.l1 / den) / power
    assert symmetric_terms(n, m, agg)[0] == pytest.approx(ee, rel=1e-12)

    curv = kap.kappa2 * kap.kappa4
    if curv == 0.0:
        assert np.isnan(kap.m_cont)
        return
    product = lambda x: (kap.kappa1 - kap.kappa2 * x) * (kap.kappa3 + kap.kappa4 * x)
    at, far = product(kap.m_cont), product(kap.m_cont + agg.m)
    # exactly, product(m_cont) - product(m_cont + h) = kappa2 kappa4 h^2
    assert at - far == pytest.approx(curv * agg.m ** 2, rel=1e-6,
                                     abs=1e-12 * max(abs(at), abs(far)))
    if curv > 0 and 0.0 <= kap.m_cont <= agg.m:
        sinr_over_p = lambda x: agg.l1 / product(x)
        assert sinr_over_p(kap.m_cont) <= min(sinr_over_p(0.0),
                                              sinr_over_p(agg.m))


@SETTINGS
@given(neighbourhood(), st.data())
def test_n_step_beats_the_fine_grid(agg, data):
    # the n-step's promise: at fixed m_of, no coefficient of the 0.01 grid
    # over [1, 10] does better
    m_of = data.draw(st.integers(1, agg.m))
    n = optimal_n_closed_form(m_of, agg).n_star
    assert 1.0 <= n <= 10.0
    grid = symmetric_terms(1.0 + 0.01 * np.arange(901), m_of, agg)[0]
    assert symmetric_terms(n, m_of, agg)[0] >= grid.max() * (1.0 - 1e-12)


# The network of the 'np.arange n-step' optimize pin: from the start
# (2, 50) the former alternating loop's n-step, on an np.arange grid,
# picked 2.000000000000001, which scores below 2.0, and stopped at once.
STOPS_AT_BEST_SEEN = symmetric_setup(replace(
    SystemConfig(), beta_scalar=9.9e-13, mu_fso=0.0031, eta=0.11,
    p_fh_of_w_per_gbps=0.051), 0)[1]


@SETTINGS
@given(neighbourhood(), st.floats(1.0, 10.0), st.floats(0.0, 1.0))
@example(STOPS_AT_BEST_SEEN, 2.0, 0.5)
def test_optimizer_keeps_the_former_cells_and_bits(agg, n, share):
    # each step's PlanOptimum against the former argmax and comparison
    # steps with their cell evaluated again: the same bits
    m_of = round(share * agg.m)
    bits = lambda o: (o.n_star.hex(), o.m_of_star, o.ee_star.hex())
    ee = lambda n, m_of: float(symmetric_terms(n, m_of, agg)[0]).hex()
    if m_of:
        old_n = argmax_n_step(m_of, agg)
        assert bits(optimal_n_closed_form(m_of, agg)) == (old_n.hex(), m_of,
                                                          ee(old_n, m_of))
    old_m = loop_m_of_step(n, agg)
    assert bits(optimal_m_of_closed_form(n, agg)) == (n.hex(), old_m, ee(n, old_m))


# A one-AP network whose best cell, grid's (1.45, 1), is only 0.5% above
# all-FSO's EE.
ONE_AP = symmetric_setup(replace(
    SystemConfig(), m=1, k=9, c_fso=3.8, p_fh_fso_w_per_gbps=0.67,
    p_fh_of_w_per_gbps=0.12, mu_of=0.022), 0)[1]

# The reference network under each cost set of the surface study.
SURFACE_AGGS = [symmetric_setup(replace(SystemConfig(), mu_of=mu_of, mu_fso=mu_fso), 0)[1]
                for mu_of, mu_fso in SURFACE_COST_SETS]
OPTIMIZE_N = (N_MIN, N_MAX, N_STEP)


@SETTINGS
@given(neighbourhood(), st.sampled_from([OPTIMIZE_N, SURFACE_N]))
@example(STOPS_AT_BEST_SEEN, OPTIMIZE_N)
@example(ONE_AP, OPTIMIZE_N)
@example(SURFACE_AGGS[0], SURFACE_N)
@example(SURFACE_AGGS[1], SURFACE_N)
@example(SURFACE_AGGS[2], SURFACE_N)
def test_optimize_reports_a_cell_of_the_grid_of_grid(agg, n_range):
    # the endpoint step over an n grid reads the m_of = 0 and m columns
    # alone, the only counts that can win, so optimize (on grid's 0.01
    # grid) and the surface's argmaxes (on SURFACE_N) report grid's optimum
    # bit for bit: N_MIN without fiber, where every n ties and grid_search
    # picks the smallest
    ns = parse_range(*n_range)
    opt = optimal_m_of_closed_form(ns, agg)
    best = grid_search(grid_cells(agg, ns))
    bits = lambda o: (o.n_star.hex(), o.m_of_star, o.ee_star.hex())
    assert bits(opt) == bits(best)
    if agg is ONE_AP:
        assert (best.n_star, best.m_of_star) == (1.45, 1)
    if agg is STOPS_AT_BEST_SEEN:
        # on an np.arange grid, n = 2.000000000000001 stopped the former
        # loop 3.3% below this optimum
        assert (best.n_star, best.m_of_star) == (2.1, 100)


@SETTINGS
@given(neighbourhood(), st.data())
def test_symmetric_terms_on_a_stack_equal_each_pair(agg, data):
    # the trade-off evaluates all compared splits in one vector call; each
    # element must be bit for bit the scalar call on its pair alone
    pairs = data.draw(st.lists(
        st.tuples(st.floats(1.0, 10.0), st.one_of(st.just(0), st.integers(0, agg.m))),
        min_size=1, max_size=8))
    ns, mofs = (np.array(v) for v in zip(*pairs))
    ee, sum_rate = symmetric_terms(ns, mofs, agg)
    for i, (n, m_of) in enumerate(pairs):
        assert (ee[i], sum_rate[i]) == symmetric_terms(n, m_of, agg)


@SETTINGS
@given(st.one_of(neighbourhood(), st.just(ONE_AP)), st.data())
def test_symmetric_terms_on_a_column_and_a_row_equal_each_cell(agg, data):
    # grid_cells passes n as an (R, 1) column and m_of as a (1, C) row, so
    # the objective's per-n part runs once per row: each cell must have the
    # bits of its scalar call, also where 2^(n c_fso) overflows to inf, and
    # n = 0 or an n whose 2^(n c_fso) - 1 rounds to 0 is rejected only
    # where a fiber link exists, with the message of the scalar rejection
    ns = np.array(data.draw(st.lists(st.one_of(
        st.floats(1.0, 10.0), st.floats(1100.0, 1e300), st.sampled_from([0.0, 1e-300])),
        min_size=1, max_size=5)))
    mofs = np.array(data.draw(st.lists(st.integers(0, agg.m), min_size=1, max_size=5)))
    column, row = ns[:, None], mofs[None, :]
    zero, tiny = ((column == n) & (row > 0) for n in (0.0, 1e-300))
    if zero.any() or tiny.any():
        message = ("n = 0 with fiber links deployed is out of model" if zero.any() else
                   f"capacity {1e-300 * agg.c_fso:g} is too small: 2^C - 1 rounds to 0")
        i, j = np.argwhere(zero if zero.any() else tiny)[0]
        for args in ((column, row), (ns[i], mofs[j])):
            with pytest.raises(ValueError, match=re.escape(message)):
                symmetric_terms(*args, agg)
    else:
        ee, sum_rate = symmetric_terms(column, row, agg)
        assert ee.shape == sum_rate.shape == (len(ns), len(mofs))
        for (i, j), n in np.ndenumerate(np.broadcast_to(column, ee.shape)):
            one = [float(t).hex() for t in symmetric_terms(n, mofs[j], agg)]
            assert [ee[i, j].hex(), sum_rate[i, j].hex()] == one
            if mofs[j] == 0:  # n is immaterial without fiber links
                assert one == [float(t).hex() for t in symmetric_terms(1.0, 0, agg)]
    # each rejection of a bad n, m_of or cell keeps its message, on the
    # drawn n that a fiber link can take
    ns = np.append(ns[ns >= 1.0], 2.0)
    column = ns[:, None]
    free = replace(agg, gamma_ep=0.0, gamma_fso=0.0)  # all-FSO cells cost nothing
    for args, message in [
            ((np.append(ns, -1.0)[:, None], row, agg), "n must be nonnegative"),
            ((column, np.append(mofs, -1)[None, :], agg), "m_of must lie in [0, m]"),
            ((column, np.append(mofs, agg.m + 1)[None, :], agg), "m_of must lie in [0, m]"),
            ((np.append(ns, 0.0)[:, None], np.append(mofs, 1)[None, :], agg),
             "n = 0 with fiber links deployed is out of model"),
            ((column, np.append(mofs, 0)[None, :], free), "power plus cost must be positive")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            symmetric_terms(*args)


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


def _plain_gains(ap, ue, pl, sh, seed):
    """The drop gains composed term by term: norm, nested where, two powers."""
    m, k = ap.shape[-2], ue.shape[-2]
    diff = ap[..., :, None, :] - ue[..., None, :, :]
    d = np.linalg.norm(diff, axis=-1)
    L = pl.fixed_loss_db
    mid_const = 15.0 * np.log10(pl.d1)
    far = -L - 35.0 * np.log10(d)
    mid = -L - mid_const - 20.0 * np.log10(d)
    flat = -L - mid_const - 20.0 * np.log10(pl.d0)
    pl_db = np.where(d > pl.d1, far, np.where(d > pl.d0, mid, flat))
    # each drop's normals follow its 2m + 2k uniform coordinates
    draws = [derive_rng(seed, "drop", j) for j in range(len(ap))]
    for rng in draws:
        rng.uniform(size=2 * (m + k))
    a = np.stack([rng.standard_normal(m) for rng in draws])
    b = np.stack([rng.standard_normal(k) for rng in draws])
    z = np.sqrt(sh.theta) * a[:, :, None] + np.sqrt(1.0 - sh.theta) * b[:, None, :]
    return 10.0 ** (pl_db / 10.0) * 10.0 ** (sh.sigma_sh_db * z / 10.0)


@SETTINGS
@given(st.integers(1, 30), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 4), st.floats(1.0, 5000.0), st.floats(0.5, 100.0),
       st.floats(1.01, 50.0), st.floats(0.0, 1.0), st.floats(0.0, 16.0))
def test_gain_kernel_matches_the_plain_formula(m, k, seed, drops, area, d0,
                                               ratio, theta, sigma):
    # the one-log10, one-power kernel against the plain composition on the
    # same drops and draws; the kernel's distances against np.hypot
    pl = replace(PATH_LOSS, d0=d0, d1=d0 * ratio)
    sh = ShadowingModel(sigma, theta)
    (ap, ue), fading = DropBlocks(m, k, area, pl, sh, drops, seed).draw(0, drops)
    d = distances(ap, ue)
    dx, dy = np.moveaxis(ap[:, :, None, :] - ue[:, None, :, :], -1, 0)
    assert np.all(np.abs(d - np.hypot(dx, dy)) <= np.spacing(np.hypot(dx, dy)))
    np.testing.assert_allclose(fading.beta, _plain_gains(ap, ue, pl, sh, seed),
                               rtol=1e-13, atol=0.0)


@SETTINGS
@given(st.floats(-3000.0, 3000.0))
@example(-3076.0)
@example(3082.0)
def test_db_to_linear_matches_the_power_of_ten(x):
    # exp(x ln10 / 10) against 10^(x / 10) wherever the latter is a normal
    # float. Each side rounds an exponent of size |x| ln10 / 10, so the gap
    # grows with |x|: 1e-13 up to 1000 dB (the kernel test's bound), in
    # proportion beyond (1.6e-13 near -3000 dB over 10^7 draws)
    plain = 10.0 ** (x / 10.0)
    fresh = db_to_linear(np.array([x]))
    if np.finfo(float).tiny <= plain < np.inf:
        assert fresh[0] == pytest.approx(plain, rel=1e-13 * max(1.0, abs(x) / 1000.0),
                                         abs=0.0)
    # in place, the same bits as fresh
    y = np.array([x])
    assert db_to_linear(y, out=y) is y
    assert y.tobytes() == fresh.tobytes()


@SETTINGS
@given(st.integers(0, 2 ** 130),
       st.one_of(st.integers(0, 300), st.integers(2 ** 64 - 2, 2 ** 64 + 1)))
@example(0, 0)
@example(2 ** 64 - 1, 1)
@example(2 ** 96 + 1, 2 ** 64 + 1)
def test_stream_index_is_jumps_of_index_zero(seed, index):
    # index i of every stream is numpy's PCG64.jumped(i) of its index 0
    for stream, tag in STREAMS.items():
        base = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(tag, 0)))
        assert (derive_rng(seed, stream, index).bit_generator.state
                == base.jumped(index).state)


@SETTINGS
@given(st.integers(0, 2 ** 130))
def test_stream_index_zero_keeps_its_generator(seed):
    # index 0 is the generator keyed (tag, 0), as before streams were jumped
    for stream, tag in STREAMS.items():
        old = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, 0)))
        rng = derive_rng(seed, stream)
        assert rng.bit_generator.state == old.bit_generator.state
        assert np.array_equal(rng.random(3), old.random(3))


@pytest.mark.parametrize("seed, stream, index, error", [
    (-1, "drop", 0, "non-negative"), (0, "drop", -1, "non-negative"),
    (0, "nope", 0, "unknown seed stream")])
def test_derive_rng_rejects_bad_arguments(seed, stream, index, error):
    with pytest.raises(ValueError, match=error):
        derive_rng(seed, stream, index)


def test_drop_blocks_reject_a_negative_drop_index():
    # PCG64.advance takes a negative delta without an error; drop blocks
    # jump by the same rule as derive_rng, which rejects it
    assert np.random.PCG64(1).advance(-5) is not None
    blocks = DropBlocks(2, 2, 100.0, PATH_LOSS, SHADOWING, 2, 0)
    with pytest.raises(ValueError, match="non-negative"):
        blocks.draw(-1, 1)


def _row_loop_csv(columns):
    """The plain CSV writer that write_table must match byte for byte."""
    row = ",".join("%.9g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    return "".join(row % cells for cells in zip(*(c.tolist() for c in columns))).encode()


# where '%.9g' changes notation or exponent width, each with its neighbours
_EDGES = [v for edge in (1e-5, 1e-4, 1e9, 1e16, 1e100)
          for v in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf))]
_FLOATS = st.one_of(
    st.floats(),
    st.floats(-1e12, 1e12),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-280, 1e280]
                    + _EDGES + [-v for v in _EDGES]),
    # ties and near-ties of the ninth significant digit
    st.builds(lambda k, j, d: (k + 0.5 + d) * 10.0 ** j,
              st.integers(10 ** 8, 10 ** 9 - 1), st.integers(-30, 30),
              st.sampled_from([0.0, 1e-7, -1e-7, 1e-5, -1e-5])),
)
_INTS = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                  st.integers(-10 ** 9 - 2, -10 ** 9 + 2),
                  st.integers(10 ** 9 - 2, 10 ** 9 + 2),
                  st.integers(-1000, 1000))
# equal values of other types or signs print differently
_OBJECTS = st.one_of(st.sampled_from([0, 0.0, -0.0, False, 1, 1.0, True]),
                     st.integers(), st.floats(), st.none(), st.text(max_size=5),
                     st.tuples(st.integers()))
_KINDS = {
    "float": (_FLOATS, np.float64),
    "float32": (st.floats(width=32), np.float32),
    "int": (_INTS, np.int64),
    # narrow and unsigned widths, and their extremes
    "int8": (st.integers(-128, 127), np.int8),
    "uint64": (st.one_of(st.integers(0, 3), st.integers(2 ** 64 - 3, 2 ** 64 - 1)),
               np.uint64),
    "bool": (st.booleans(), bool),
    "str": (st.text(max_size=8), None),
    "object": (_OBJECTS, object),
}


@st.composite
def csv_columns(draw, rows):
    """A column of rows values: runs of a few drawn values, repeated in turn."""
    values, dtype = _KINDS[draw(st.sampled_from(sorted(_KINDS)))]
    pool = draw(st.lists(values, min_size=1, max_size=30))
    if dtype is object:
        array = np.empty(len(pool), object)
        for i, value in enumerate(pool):
            array[i] = value
    else:
        array = np.array(pool, dtype)
    runs = draw(st.lists(st.one_of(st.just(1), st.integers(1, 300)),
                         min_size=len(pool), max_size=len(pool)))
    return np.resize(np.repeat(array, runs), rows)


def _write(path, columns, cuts=()):
    # the table goes to write_table as column blocks cut at the sorted cuts
    names = [f"c{i}" for i in range(len(columns))]
    edges = [0, *cuts, len(columns[0])]
    write_table(path, ["scenario=x"], names,
                ([c[a:b] for c in columns] for a, b in zip(edges, edges[1:])))
    head = ("# scenario=x\n" + ",".join(names) + "\n").encode()
    return path.read_bytes()[len(head):]


@SETTINGS
@given(st.one_of(st.lists(_FLOATS, min_size=1, max_size=300).map(np.array),
                 st.lists(_INTS, min_size=1, max_size=300).map(np.array)))
@example(np.array([0.0, -0.0, -0.0, 0.0, np.nan, -np.nan, 1e9, 999999999.5]))
def test_numbers_print_as_the_row_loop_prints_them(tmp_path_factory, values):
    # every float and integer the numpy kernel decides, and every one it
    # leaves to Python (zeros, non-finite values, extreme magnitudes,
    # near-ties, integers from 1e9 on); without the threshold that sends a
    # few values to Python, the kernel sees the short inputs too
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    assert _write(path, [values]) == _row_loop_csv([values])
    with mock.patch.object(experiments, "_FEW_VALUES", 0):
        assert _write(path, [values]) == _row_loop_csv([values])


def _every_text_class():
    """Values of every '%.9g' text class, both signs: one to nine significant
    digits at each decimal exponent from -300 to 300, and at each exponent
    the neighbours of a carry (9.999999995e+XX rounds up to 1e+(XX+1)) and
    of a tie in the ninth digit, a float or two either side."""
    values = [float(f"1.{'23456789'[:d - 1]}e{e}") for e in range(-300, 301)
              for d in range(1, 10)]
    for e in range(-300, 301):
        for edge in (f"9.999999995e{e}", f"1.234567885e{e}", f"5.000000005e{e}"):
            edge = float(edge)
            below, above = (np.nextafter(edge, to) for to in (0.0, np.inf))
            values += [edge, below, above, np.nextafter(below, 0.0),
                       np.nextafter(above, np.inf)]
    values = np.array(values)
    return np.concatenate((values, -values))


def test_every_text_class_prints_as_the_row_loop(tmp_path):
    # one table of three float columns, rendered a piece at a time in one
    # _float_text call for all three: the first holds the classes in runs,
    # the second in the reverse order, both ending in a comma, and the last
    # shuffled, ending the row; each column takes its own common layout
    values = _every_text_class()
    assert len(np.unique(np.floor(np.log10(np.abs(values))))) >= 601
    shuffled = np.random.default_rng(30).permutation(values)
    columns = [values, values[::-1].copy(), shuffled]
    assert _write(tmp_path / "t.csv", columns) == _row_loop_csv(columns)


@pytest.mark.parametrize("column", [
    np.resize(np.array([-128, 127, 0, 5], np.int8), 600),
    np.resize(np.array([-100, 100, 0], np.int8), 600),
    np.resize(np.arange(101), 4096),
    np.resize(np.array([2 ** 64 - 1, 2 ** 64 - 2], np.uint64), 9),
    np.array([-2 ** 63, 2 ** 63 - 1, 0]),
], ids=["int8-extremes", "int8-wrap", "grid-fiber-counts", "uint64-top", "int64-extremes"])
def test_integer_columns_print_as_the_row_loop(tmp_path, column):
    # extremes of narrow, unsigned and 64-bit widths, and the grid's fiber
    # counts passed as a plain column
    assert _write(tmp_path / "t.csv", [column]) == _row_loop_csv([column])


def test_reused_work_arrays_carry_no_bytes_between_pieces(tmp_path):
    # pieces alternate wide and narrow text, so a narrow piece renders in the
    # leading part of arrays a wider one filled; a second, narrower table
    # follows in the same process
    rng = np.random.default_rng(11)
    mantissas = rng.integers(10 ** 8, 10 ** 9, 1200) / 1e8
    wide = (-mantissas * 10.0 ** -rng.integers(100, 300, 1200),
            rng.integers(-10 ** 8, -10 ** 7, 1200))
    narrow = (rng.integers(1, 9, 1000) / 4, rng.integers(0, 10, 1000))
    # nan, 1e300 and near-ties go to Python and widen the float column
    fallback = (rng.integers(1, 99, 1200) / 8, rng.integers(0, 10 ** 6, 1200))
    fallback[0][::3] = np.nan
    fallback[0][1::3] = 1e300
    fallback[0][2::30] = (123456789 + 0.5 + 1e-7) * 10.0 ** -20
    short = (np.array([0.5, 2.0, 1e-5, 3.0, 1e-5, 0.25, 7.0]),
             np.arange(7))
    pieces = [wide, narrow, fallback, short]
    columns = [np.concatenate(c) for c in zip(*pieces)]
    cuts = np.cumsum([len(p[0]) for p in pieces])[:-1].tolist()
    assert _write(tmp_path / "a.csv", columns, cuts) == _row_loop_csv(columns)
    columns = [np.concatenate(c) for c in zip(narrow, short)]
    assert _write(tmp_path / "b.csv", columns, [1000]) == _row_loop_csv(columns)


# value strategies of the coded-column tests, and their dtypes
_CODED_KINDS = {"float": (_FLOATS, np.float64), "int": (_INTS, np.int64),
                "str": (st.text(max_size=8), None)}


@SETTINGS
@given(st.data())
def test_coded_columns_match_the_row_loop(tmp_path_factory, data):
    # plain and coded columns of float, int and str values, streamed in up
    # to four blocks with a short last piece; each coded column keeps one
    # values object over the blocks up to a drawn one, then takes a new one
    rows = data.draw(st.sampled_from([1, 70, BLOCK_ROWS + 3, 2 * BLOCK_ROWS + 17]))
    edges = [0, *data.draw(st.lists(st.integers(0, rows), max_size=3).map(sorted)),
             rows]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    blocks = [[] for _ in edges[1:]]
    columns = []
    for kind in data.draw(st.lists(st.sampled_from(sorted(_CODED_KINDS)),
                                   min_size=1, max_size=4)):
        values, dtype = _CODED_KINDS[kind]
        pools = [np.array(data.draw(st.lists(values, min_size=1, max_size=100)), dtype)
                 for _ in range(2)]
        if not data.draw(st.booleans()):
            column = np.resize(pools[0], rows)
            for block, a, b in zip(blocks, edges, edges[1:]):
                block.append(column[a:b])
            columns.append(column)
            continue
        switch = data.draw(st.integers(0, len(blocks)))
        cells = []
        for i, (block, a, b) in enumerate(zip(blocks, edges, edges[1:])):
            pool = pools[i >= switch]
            index = rng.integers(0, len(pool), b - a)
            block.append((pool, index))
            cells.append(pool[index])
        columns.append(np.concatenate(cells))
    names = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_table(path, [], names, blocks)
    assert path.read_bytes() == (",".join(names) + "\n").encode() + _row_loop_csv(columns)


def test_coded_values_render_once_while_blocks_pass_them(tmp_path):
    # three blocks share one values object and a fourth brings a new one:
    # the values render twice, whatever the blocks' lengths
    values, new = np.array([0.5, 1e-7, 3.0]), np.array([2.5, 4.0])
    blocks = [((values, np.arange(n) % 3),) for n in (5, BLOCK_ROWS + 1, 2)]
    blocks.append(((new, np.array([1, 0, 1])),))
    with mock.patch.object(experiments, "_cell_texts", wraps=experiments._cell_texts) as text:
        write_table(tmp_path / "t.csv", [], ("v",), blocks)
    # (the pieces' calls for their plain columns have none)
    assert [[len(c) for c in call.args[0]] for call in text.call_args_list
            if call.args[0]] == [[3], [2]]
    cells = [np.resize(values, n) for n in (5, BLOCK_ROWS + 1, 2)] + [new[[1, 0, 1]]]
    assert (tmp_path / "t.csv").read_bytes() == b"v\n" + _row_loop_csv([np.concatenate(cells)])


def test_coded_values_longer_than_a_piece_match_the_row_loop(tmp_path):
    # values render in pieces of BLOCK_ROWS: a narrow piece, then wider
    # ones, padded to one width; empty values with an empty index write no row
    rng = np.random.default_rng(4)
    values = np.concatenate([np.arange(BLOCK_ROWS) / 4,
                             -rng.random(BLOCK_ROWS + 5) * 1e-100, [np.nan, 1e300]])
    index = rng.integers(0, len(values), 3 * BLOCK_ROWS)
    path = tmp_path / "t.csv"
    write_table(path, [], ("v", "i"), [((values, index), index),
                                       ((values[:0], index[:0]), index[:0])])
    assert path.read_bytes() == b"v,i\n" + _row_loop_csv([values[index], index])


@pytest.mark.parametrize("index", [
    np.array([0, -1, 2]), np.array([0, 3, 2]), np.array([0.0, 1.0, 2.0]),
    np.array([True, False, True]), np.array([0, 1]), np.array([0, 1, 2, 0]),
], ids=["negative", "past-the-end", "float", "bool", "short", "long"])
def test_write_table_rejects_a_bad_coded_index(tmp_path, index):
    # take would wrap a negative index: every bad index is named with its
    # column, after a first block was written, and no file is left
    path = tmp_path / "t.csv"
    blocks = [(np.arange(3), (np.array([0.5, 1.5, 2.5]), np.arange(3))),
              (np.arange(3), (np.array([0.5, 1.5, 2.5]), index))]
    with pytest.raises(ValueError, match="'code'"):
        write_table(path, ["scenario=x"], ("i", "code"), blocks)
    assert not path.exists()


@SETTINGS
@given(st.integers(1, 3000), st.integers(1, 120))
@example(400, 10)
@example(40, 100)
def test_coded_cum_prob_is_i_over_s_bit_for_bit(drops, k):
    # the CDF sizes of run_rate_cdf: drops sum rates and drops * k user
    # rates per split; (1..S) / S at i * (S / s) - 1 is i / s exactly
    sizes = [drops, drops * k] * len(experiments.COMPARED_SPLITS)
    values, index = experiments._cum_prob(sizes)
    expected = np.concatenate([np.arange(1, s + 1) / s for s in sizes])
    assert np.array_equal(values[index].view(np.uint64), expected.view(np.uint64))


@SETTINGS
@given(st.data())
def test_write_table_matches_the_row_loop(tmp_path_factory, data):
    # tables of every column kind, with runs, around and across block
    # boundaries, streamed in up to four column blocks (empty ones too)
    rows = data.draw(st.one_of(st.integers(1, 50),
                               st.integers(BLOCK_ROWS - 2, BLOCK_ROWS + 2),
                               st.integers(2 * BLOCK_ROWS - 2, 2 * BLOCK_ROWS + 2)))
    columns = data.draw(st.lists(csv_columns(rows), min_size=1, max_size=4))
    cuts = data.draw(st.lists(st.integers(0, rows), max_size=3).map(sorted))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    assert _write(path, columns, cuts) == _row_loop_csv(columns)
    with mock.patch.object(experiments, "_FEW_VALUES", 0):
        assert _write(path, columns, cuts) == _row_loop_csv(columns)
