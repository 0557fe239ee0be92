"""Tests for the drop draws, path loss and correlated shadowing.

Fast fading is drawn by the Monte-Carlo check and tested in test_rate.py.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fronthaul_planner.channel import (SINR_GAINS, DropBlocks, LargeScaleFading,
                                       db_to_linear, fixed_loss_db, path_loss_db)
from fronthaul_planner.config import SystemConfig
from fronthaul_planner.seeds import derive_rng
from reference import CFG, distances

# Frozen oracle: independent evaluation of the fixed-loss constant at
# f = 1900 MHz, h_ap = 15 m, h_ue = 1.65 m.
L_REFERENCE_DB = 140.71508370390842


def _config(m, k, side, **fields):
    """The reference config with m APs and k users over a square of this side."""
    return replace(CFG, m=m, k=k, area_m=side, **fields)


def _drop(config, seed, sinr=True):
    """The one drop of a one-drop DropBlocks, unstacked: drop 0 of an
    integer seed's "drop" stream, or the next drop of a Generator seed."""
    (ap, ue), fading = DropBlocks(config, 1, seed).draw(0, 1, sinr)
    return (ap[0], ue[0]), fading.beta[0]


def test_drop_rejects_bad_arguments():
    # no AP, no UE or no area: the config rejects each, so no drawer is made
    for fields, text in (({"m": 0}, "'m' and 'k'"), ({"k": 0}, "'m' and 'k'"),
                         ({"area_m": 0.0}, "'area_m'")):
        with pytest.raises(ValueError, match=text):
            DropBlocks(replace(CFG, **fields), 1, 0)
        with pytest.raises(ValueError, match=text):
            SystemConfig(**fields)


@pytest.mark.parametrize("first, span", [
    ((0, 4), (5, 3)),  # after a full block: no drops built from its buffers
    (None, (5, 3)),  # on a fresh drawer: not a shadowing error
    (None, (0, 6)),  # more drops than the block holds
    (None, (-2, 1)),
])
def test_drop_blocks_reject_a_span_outside_the_block(first, span):
    # a span must satisfy 0 <= start <= stop <= start + size
    blocks = DropBlocks(CFG, 4, 0)
    if first:
        blocks.draw(*first)
    start, stop = span
    with pytest.raises(ValueError, match=f"drop span {start}:{stop} must start at "
                       "a non-negative index and hold 0 to 4 drops"):
        blocks.draw(*span)
    (ap, _), fading = blocks.draw(3, 7)
    assert fading.beta.shape == (4, 100, 10) and ap.max() <= CFG.area_m


@pytest.mark.parametrize("size", [0, -1])
def test_drop_blocks_reject_a_block_without_a_drop(size):
    with pytest.raises(ValueError, match=f"drop block size {size} must be at least 1"):
        DropBlocks(CFG, size, 0)


def test_drop_positions_uniform_mean():
    (ap, ue), _ = _drop(CFG, seed=42)
    # mean of 100 uniform draws on [0, 1000]: sd = (1000/sqrt(12))/10
    three_sigma = 3.0 * (1000.0 / np.sqrt(12.0)) / np.sqrt(100.0)
    assert abs(np.mean(ap[:, 0]) - 500.0) < three_sigma
    assert ap.shape == (100, 2) and ue.shape == (10, 2)
    assert np.all(ap >= 0) and np.all(ap <= 1000)
    assert np.all(ue >= 0) and np.all(ue <= 1000)


def test_topology_validation():
    # an area side outside (0, inf), NaN included, and a network without a
    # UE are rejected by the config, before any draw
    for side in (-1.0, float("nan"), np.inf):
        with pytest.raises(ValueError, match="'area_m' must be positive and finite"):
            DropBlocks(_config(2, 2, side), 2, 0)
    with pytest.raises(ValueError, match="'m' and 'k' must be at least 1"):
        DropBlocks(_config(2, 0, 10.0), 2, 0)


def test_fixed_loss_constant_matches_reference():
    assert abs(fixed_loss_db(CFG) - L_REFERENCE_DB) < 1e-9


def test_path_loss_far_branch_direct_evaluation():
    # beyond d1 the loss is -L - 35 log10(d); at 100 m that is -L - 70
    assert path_loss_db(100.0, CFG) == pytest.approx(-L_REFERENCE_DB - 70.0, rel=1e-12)


def test_path_loss_middle_branch_and_scalar_result():
    # between d0 and d1 the loss is -L - 15 log10(d1) - 20 log10(d)
    expected = -L_REFERENCE_DB - 15.0 * np.log10(50.0) - 20.0 * np.log10(20.0)
    value = path_loss_db(20.0, CFG)
    assert type(value) is float
    assert value == pytest.approx(expected, rel=1e-12)
    assert path_loss_db(np.array([20.0]), CFG).shape == (1,)


def test_path_loss_in_place_equals_fresh():
    # with out given, the loss lands there, bit for bit, and d is scratch
    d = np.geomspace(0.5, 5000.0, 101).reshape(1, 101)
    fresh = path_loss_db(d, CFG)
    out = np.empty_like(d)
    assert path_loss_db(d.copy(), CFG, out=out) is out
    assert np.array_equal(out, fresh)
    with pytest.raises(ValueError, match="distance must be positive"):
        path_loss_db(np.array([np.nan, 0.0]), CFG, out=np.empty(2))


def test_path_loss_flat_region():
    ref = path_loss_db(CFG.d0_m, CFG)
    for d in (0.5, 1.0, 5.0, 9.99, 10.0):
        assert path_loss_db(d, CFG) == ref


def test_path_loss_continuous_and_monotone():
    for d_edge in (CFG.d0_m, CFG.d1_m):
        below = path_loss_db(d_edge * (1 - 1e-9), CFG)
        above = path_loss_db(d_edge * (1 + 1e-9), CFG)
        assert abs(below - above) < 1e-6
    d = np.linspace(CFG.d0_m, 2000.0, 4000)
    vals = path_loss_db(d, CFG)
    assert np.all(np.diff(vals) <= 0)
    assert np.all(vals < 0)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss_db(0.0, CFG)
    with pytest.raises(ValueError):
        path_loss_db(-3.0, CFG)


def test_fading_without_shadowing_is_pure_path_loss():
    cfg = _config(20, 5, 1000.0, sigma_sh_db=0.0)
    (ap, ue), beta = _drop(cfg, seed=1)
    pl_db = path_loss_db(distances(ap, ue), cfg)
    assert np.array_equal(beta, db_to_linear(pl_db))
    np.testing.assert_allclose(beta, 10.0 ** (pl_db / 10.0), rtol=1e-13, atol=0.0)


def _recover_z(theta, drops=300, m=4, k=3):
    """Shadowing exponents z (drops, m, k) of a stack of drops at 8 dB and
    this theta, from the gains."""
    cfg = _config(m, k, 1000.0, sigma_sh_db=8.0, theta=theta)
    (ap, ue), fading = DropBlocks(cfg, drops, 2).draw(0, drops)
    pl_db = path_loss_db(distances(ap, ue), cfg)
    return (10.0 * np.log10(fading.beta) - pl_db) / cfg.sigma_sh_db


def test_shadowing_correlation_extremes():
    # theta = 0: shadowing is user-driven, equal at all APs
    z0 = _recover_z(0.0)
    assert np.allclose(z0.max(axis=1), z0.min(axis=1), atol=1e-9)
    # theta = 1: shadowing is AP-driven, equal for all users
    z1 = _recover_z(1.0)
    assert np.allclose(z1.max(axis=2), z1.min(axis=2), atol=1e-9)


def test_shadowing_spread_over_seeds():
    # z_mk has unit variance; links sharing an AP correlate by theta, links
    # sharing a user by 1 - theta (300 drops: sd of each estimate below 0.06)
    z = _recover_z(0.3)
    assert np.std(z[:, 0, 0]) == pytest.approx(1.0, abs=0.15)
    for (ap, ue), rho in (((0, 1), 0.3), ((1, 0), 0.7), ((1, 1), 0.0)):
        r = np.corrcoef(z[:, 0, 0], z[:, ap, ue])[0, 1]
        assert r == pytest.approx(rho, abs=0.15)


def test_drop_positions_deterministic():
    (t1, _), (t2, _), (t3, _) = (_drop(_config(10, 4, 500.0), seed)
                                 for seed in (9, 9, 10))
    for side in range(2):  # AP, then UE positions
        assert np.array_equal(t1[side], t2[side])
        assert not np.array_equal(t1[side], t3[side])


def test_fading_deterministic():
    (t1, f1), (t2, f2), (t3, f3) = (_drop(_config(10, 4, 500.0), seed)
                                    for seed in (9, 9, 10))
    for a, b in ((t1[0], t2[0]), (t1[1], t2[1]), (f1, f2)):
        assert np.array_equal(a, b)
    assert not np.array_equal(t1[0], t3[0])
    assert not np.array_equal(f1, f3)


def test_one_drop_equals_its_split_draws():
    # drop i's one draw of 2m + 2k uniforms and one of m + k normals give
    # the values of uniform(0, side) positions per AP and per UE, then of
    # normals a then b, from derive_rng(seed, "drop", i)
    m, k, side = 7, 3, 900.0
    cfg = _config(m, k, side)
    for seed in range(5):
        (aps, ues), fading = DropBlocks(cfg, 2, seed).draw(3, 5)
        for j, (ap, ue, beta) in enumerate(zip(aps, ues, fading.beta)):
            rng = derive_rng(seed, "drop", 3 + j)
            assert np.array_equal(ap, rng.uniform(0.0, side, (m, 2)))
            assert np.array_equal(ue, rng.uniform(0.0, side, (k, 2)))
            a, b = rng.standard_normal(m), rng.standard_normal(k)
            shadow = (cfg.sigma_sh_db * np.sqrt(cfg.theta) * a[:, None]
                      + cfg.sigma_sh_db * np.sqrt(1.0 - cfg.theta) * b[None, :])
            x = path_loss_db(distances(ap, ue), cfg) + shadow
            assert np.array_equal(beta, db_to_linear(x))
            np.testing.assert_allclose(beta, 10.0 ** (x / 10.0), rtol=1e-13, atol=0.0)


def test_drop_stack_equals_single_drops():
    # the block drawer does not depend on its block size: a block of three
    # drops against a one-drop drawer on each drop's Generator, bit for bit
    cfg = _config(6, 2, 800.0)
    (ap, ue), fading = DropBlocks(cfg, 3, 3).draw(4, 7)
    assert fading.beta.shape == (3, 6, 2)
    assert ap.shape == (3, 6, 2) and ue.shape == (3, 2, 2)
    for j in range(3):
        (ap_j, ue_j), beta = _drop(cfg, derive_rng(3, "drop", 4 + j))
        assert np.array_equal(ap[j], ap_j)
        assert np.array_equal(ue[j], ue_j)
        assert np.array_equal(fading.beta[j], beta)


def test_drop_blocks_reuse_their_buffers():
    # at M=1000, K=100 no block allocates half a drop's gains, and each
    # block's gains, the short last one included, are those of a one-drop
    # drawer on that drop's Generator, bit for bit
    m, k, size, drops = 1000, 100, 2, 5
    cfg = _config(m, k, 1000.0)
    blocks = DropBlocks(cfg, size, 4)
    tracemalloc.start()
    try:
        for start in range(0, drops, size):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            (ap, ue), fading = blocks.draw(start, min(start + size, drops))
            assert tracemalloc.get_traced_memory()[1] - base < m * k * 8 // 2
            assert fading.beta.shape == (min(size, drops - start), m, k)
            for j, beta in enumerate(fading.beta):
                (ap_j, ue_j), one = _drop(cfg, derive_rng(4, "drop", start + j))
                assert np.array_equal(beta, one)
                assert np.array_equal(ap[j], ap_j) and np.array_equal(ue[j], ue_j)
    finally:
        tracemalloc.stop()


def test_separate_draws_do_not_alias():
    # a drawer reuses its own buffers only: two drawers of the same drops
    # each hold arrays of their own
    blocks = [DropBlocks(_config(6, 3, 100.0), 2, 1) for _ in range(2)]
    ((ap1, ue1), f1), ((ap2, ue2), f2) = (b.draw(0, 2) for b in blocks)
    for a, b in ((ap1, ap2), (ue1, ue2), (f1.beta, f2.beta)):
        assert not np.shares_memory(a, b)
    assert np.array_equal(f1.beta, f2.beta)


def test_gains_outside_the_float_range_are_rejected():
    # a shadowing spread that alone leaves the float range is named; a path
    # loss out of scale keeps the plain gain check; neither warns
    wide = _config(20, 4, 1000.0, sigma_sh_db=2000.0)
    tall = _config(4, 3, 1000.0, h_ue_m=1e10)
    with pytest.raises(ValueError, match="'sigma_sh_db' = 2000 dB is too"):
        _drop(wide, seed=0)
    with pytest.raises(ValueError, match="gains must be positive and finite"):
        _drop(tall, seed=0)


def test_validation_of_models():
    # the drop model's parameters are checked by its config, NaN and
    # infinite values included
    for fields, text in (({"d0_m": 50.0, "d1_m": 10.0}, "must satisfy d0_m < d1_m"),
                         ({"theta": 1.5}, "'theta' must lie in"),
                         ({"theta": np.nan}, "'theta' must lie in"),
                         ({"d0_m": np.nan}, "'d0_m' must be positive and finite"),
                         ({"f_mhz": np.inf}, "'f_mhz' must be positive and finite"),
                         ({"h_ue_m": 0.0}, "'h_ue_m' must be positive and finite"),
                         ({"sigma_sh_db": -1.0}, "'sigma_sh_db' must be nonnegative"),
                         ({"sigma_sh_db": np.inf}, "'sigma_sh_db' must be nonnegative")):
        with pytest.raises(ValueError, match=text):
            replace(CFG, **fields)
    for bad in (np.nan, np.inf, 0.0, -1e-300):
        with pytest.raises(ValueError, match="gains must be positive and finite"):
            LargeScaleFading(np.array([[1.0, bad], [2.0, 3.0]]))


def test_gains_for_an_sinr_lie_in_one_range():
    # a product of two gains in SINR_GAINS is a normal float and 2^64 of
    # them sum to a finite one; the next floats outside are rejected, and a
    # drop reduced to one gain (sinr False) needs only positive, finite ones
    lo, hi = SINR_GAINS
    assert lo * lo >= np.finfo(float).tiny and hi * hi * 2.0 ** 64 < np.inf
    LargeScaleFading(np.array([[lo, hi]]))
    for bad in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)):
        with pytest.raises(ValueError, match="gains must be positive and finite"):
            LargeScaleFading(np.array([[1e-10, bad]]))
        LargeScaleFading(np.array([[1e-10, bad]]), sinr=False)
    tall = _config(4, 3, 1000.0, h_ue_m=1000.0)
    assert _drop(tall, 0, sinr=False)[1].min() > hi
    with pytest.raises(ValueError, match="gains must be positive and finite"):
        _drop(tall, 0)
