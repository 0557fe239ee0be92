"""Tests for the drop draws, path loss and correlated shadowing.

Fast fading is drawn by the Monte-Carlo check and tested in test_rate.py.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fronthaul_planner.channel import (SINR_GAINS, DropBlocks, LargeScaleFading,
                                       ShadowingModel, db_to_linear, path_loss_db)
from fronthaul_planner.config import SystemConfig
from fronthaul_planner.seeds import derive_rng
from reference import PATH_LOSS, SHADOWING, distances

# Frozen oracle: independent evaluation of the fixed-loss constant at
# f = 1900 MHz, h_ap = 15 m, h_ue = 1.65 m.
L_REFERENCE_DB = 140.71508370390842


def _drop(m, k, side, pl, sh, seed, sinr=True):
    """The one drop of a one-drop DropBlocks, unstacked: drop 0 of an
    integer seed's "drop" stream, or the next drop of a Generator seed."""
    (ap, ue), fading = DropBlocks(m, k, side, pl, sh, 1, seed).draw(0, 1, sinr)
    return (ap[0], ue[0]), fading.beta[0]


def test_drop_rejects_bad_arguments():
    # no AP, no UE or no area: rejected by the drop and by the config
    for m, k, side, text in ((0, 1, 1000.0, "at least one AP"),
                             (1, 0, 1000.0, "at least one AP"),
                             (1, 1, 0.0, "area_side")):
        with pytest.raises(ValueError, match=text):
            DropBlocks(m, k, side, PATH_LOSS, SHADOWING, 1, 0)
    for fields, text in (({"m": 0}, "'m' and 'k'"), ({"k": 0}, "'m' and 'k'"),
                         ({"area_m": 0.0}, "'area_m'")):
        with pytest.raises(ValueError, match=text):
            SystemConfig(**fields)


def test_drop_positions_uniform_mean():
    (ap, ue), _ = _drop(100, 10, 1000.0, PATH_LOSS, SHADOWING, seed=42)
    # mean of 100 uniform draws on [0, 1000]: sd = (1000/sqrt(12))/10
    three_sigma = 3.0 * (1000.0 / np.sqrt(12.0)) / np.sqrt(100.0)
    assert abs(np.mean(ap[:, 0]) - 500.0) < three_sigma
    assert ap.shape == (100, 2) and ue.shape == (10, 2)
    assert np.all(ap >= 0) and np.all(ap <= 1000)
    assert np.all(ue >= 0) and np.all(ue <= 1000)


def test_topology_validation():
    # an area side outside (0, inf), NaN included, fails before any draw
    for side in (-1.0, float("nan"), np.inf):
        with pytest.raises(ValueError, match="area_side"):
            DropBlocks(2, 2, side, PATH_LOSS, SHADOWING, 2, 0)
    with pytest.raises(ValueError, match="at least one AP"):
        DropBlocks(2, 0, 10.0, PATH_LOSS, SHADOWING, 2, 0)


def test_fixed_loss_constant_matches_reference():
    pl = PATH_LOSS
    assert abs(pl.fixed_loss_db - L_REFERENCE_DB) < 1e-9


def test_path_loss_far_branch_direct_evaluation():
    pl = PATH_LOSS
    # beyond d1 the loss is -L - 35 log10(d); at 100 m that is -L - 70
    assert path_loss_db(100.0, pl) == pytest.approx(-L_REFERENCE_DB - 70.0, rel=1e-12)


def test_path_loss_middle_branch_and_scalar_result():
    pl = PATH_LOSS
    # between d0 and d1 the loss is -L - 15 log10(d1) - 20 log10(d)
    expected = -L_REFERENCE_DB - 15.0 * np.log10(50.0) - 20.0 * np.log10(20.0)
    value = path_loss_db(20.0, pl)
    assert type(value) is float
    assert value == pytest.approx(expected, rel=1e-12)
    assert path_loss_db(np.array([20.0]), pl).shape == (1,)


def test_path_loss_in_place_equals_fresh():
    # with out given, the loss lands there, bit for bit, and d is scratch
    d = np.geomspace(0.5, 5000.0, 101).reshape(1, 101)
    fresh = path_loss_db(d, PATH_LOSS)
    out = np.empty_like(d)
    assert path_loss_db(d.copy(), PATH_LOSS, out=out) is out
    assert np.array_equal(out, fresh)
    with pytest.raises(ValueError, match="distance must be positive"):
        path_loss_db(np.array([np.nan, 0.0]), PATH_LOSS, out=np.empty(2))


def test_path_loss_flat_region():
    pl = PATH_LOSS
    ref = path_loss_db(pl.d0, pl)
    for d in (0.5, 1.0, 5.0, 9.99, 10.0):
        assert path_loss_db(d, pl) == ref


def test_path_loss_continuous_and_monotone():
    pl = PATH_LOSS
    for d_edge in (pl.d0, pl.d1):
        below = path_loss_db(d_edge * (1 - 1e-9), pl)
        above = path_loss_db(d_edge * (1 + 1e-9), pl)
        assert abs(below - above) < 1e-6
    d = np.linspace(pl.d0, 2000.0, 4000)
    vals = path_loss_db(d, pl)
    assert np.all(np.diff(vals) <= 0)
    assert np.all(vals < 0)


def test_path_loss_rejects_nonpositive_distance():
    pl = PATH_LOSS
    with pytest.raises(ValueError):
        path_loss_db(0.0, pl)
    with pytest.raises(ValueError):
        path_loss_db(-3.0, pl)


def test_fading_without_shadowing_is_pure_path_loss():
    pl = PATH_LOSS
    (ap, ue), beta = _drop(20, 5, 1000.0, pl, replace(SHADOWING, sigma_sh_db=0.0),
                           seed=1)
    pl_db = path_loss_db(distances(ap, ue), pl)
    assert np.array_equal(beta, db_to_linear(pl_db))
    np.testing.assert_allclose(beta, 10.0 ** (pl_db / 10.0), rtol=1e-13, atol=0.0)


def _recover_z(sh, drops=300, m=4, k=3):
    """Shadowing exponents z (drops, m, k) of a stack of drops, from the gains."""
    (ap, ue), fading = DropBlocks(m, k, 1000.0, PATH_LOSS, sh, drops, 2).draw(0, drops)
    pl_db = path_loss_db(distances(ap, ue), PATH_LOSS)
    return (10.0 * np.log10(fading.beta) - pl_db) / sh.sigma_sh_db


def test_shadowing_correlation_extremes():
    # theta = 0: shadowing is user-driven, equal at all APs
    z0 = _recover_z(ShadowingModel(8.0, 0.0))
    assert np.allclose(z0.max(axis=1), z0.min(axis=1), atol=1e-9)
    # theta = 1: shadowing is AP-driven, equal for all users
    z1 = _recover_z(ShadowingModel(8.0, 1.0))
    assert np.allclose(z1.max(axis=2), z1.min(axis=2), atol=1e-9)


def test_shadowing_spread_over_seeds():
    # z_mk has unit variance; links sharing an AP correlate by theta, links
    # sharing a user by 1 - theta (300 drops: sd of each estimate below 0.06)
    z = _recover_z(ShadowingModel(8.0, 0.3))
    assert np.std(z[:, 0, 0]) == pytest.approx(1.0, abs=0.15)
    for (ap, ue), rho in (((0, 1), 0.3), ((1, 0), 0.7), ((1, 1), 0.0)):
        r = np.corrcoef(z[:, 0, 0], z[:, ap, ue])[0, 1]
        assert r == pytest.approx(rho, abs=0.15)


def test_drop_positions_deterministic():
    (t1, _), (t2, _), (t3, _) = (_drop(10, 4, 500.0, PATH_LOSS, SHADOWING, seed)
                                 for seed in (9, 9, 10))
    for side in range(2):  # AP, then UE positions
        assert np.array_equal(t1[side], t2[side])
        assert not np.array_equal(t1[side], t3[side])


def test_fading_deterministic():
    pl, sh = PATH_LOSS, SHADOWING
    (t1, f1), (t2, f2), (t3, f3) = (_drop(10, 4, 500.0, pl, sh, seed)
                                    for seed in (9, 9, 10))
    for a, b in ((t1[0], t2[0]), (t1[1], t2[1]), (f1, f2)):
        assert np.array_equal(a, b)
    assert not np.array_equal(t1[0], t3[0])
    assert not np.array_equal(f1, f3)


def test_one_drop_equals_its_split_draws():
    # drop i's one draw of 2m + 2k uniforms and one of m + k normals give
    # the values of uniform(0, side) positions per AP and per UE, then of
    # normals a then b, from derive_rng(seed, "drop", i)
    m, k, side, pl, sh = 7, 3, 900.0, PATH_LOSS, SHADOWING
    for seed in range(5):
        (aps, ues), fading = DropBlocks(m, k, side, pl, sh, 2, seed).draw(3, 5)
        for j, (ap, ue, beta) in enumerate(zip(aps, ues, fading.beta)):
            rng = derive_rng(seed, "drop", 3 + j)
            assert np.array_equal(ap, rng.uniform(0.0, side, (m, 2)))
            assert np.array_equal(ue, rng.uniform(0.0, side, (k, 2)))
            a, b = rng.standard_normal(m), rng.standard_normal(k)
            shadow = (sh.sigma_sh_db * np.sqrt(sh.theta) * a[:, None]
                      + sh.sigma_sh_db * np.sqrt(1.0 - sh.theta) * b[None, :])
            x = path_loss_db(distances(ap, ue), pl) + shadow
            assert np.array_equal(beta, db_to_linear(x))
            np.testing.assert_allclose(beta, 10.0 ** (x / 10.0), rtol=1e-13, atol=0.0)


def test_drop_stack_equals_single_drops():
    # the block drawer does not depend on its block size: a block of three
    # drops against a one-drop drawer on each drop's Generator, bit for bit
    pl, sh = PATH_LOSS, SHADOWING
    (ap, ue), fading = DropBlocks(6, 2, 800.0, pl, sh, 3, 3).draw(4, 7)
    assert fading.beta.shape == (3, 6, 2)
    assert ap.shape == (3, 6, 2) and ue.shape == (3, 2, 2)
    for j in range(3):
        (ap_j, ue_j), beta = _drop(6, 2, 800.0, pl, sh, derive_rng(3, "drop", 4 + j))
        assert np.array_equal(ap[j], ap_j)
        assert np.array_equal(ue[j], ue_j)
        assert np.array_equal(fading.beta[j], beta)


def test_drop_blocks_reuse_their_buffers():
    # at M=1000, K=100 no block allocates half a drop's gains, and each
    # block's gains, the short last one included, are those of a one-drop
    # drawer on that drop's Generator, bit for bit
    m, k, size, drops = 1000, 100, 2, 5
    blocks = DropBlocks(m, k, 1000.0, PATH_LOSS, SHADOWING, size, 4)
    tracemalloc.start()
    try:
        for start in range(0, drops, size):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            (ap, ue), fading = blocks.draw(start, min(start + size, drops))
            assert tracemalloc.get_traced_memory()[1] - base < m * k * 8 // 2
            assert fading.beta.shape == (min(size, drops - start), m, k)
            for j, beta in enumerate(fading.beta):
                (ap_j, ue_j), one = _drop(m, k, 1000.0, PATH_LOSS, SHADOWING,
                                          derive_rng(4, "drop", start + j))
                assert np.array_equal(beta, one)
                assert np.array_equal(ap[j], ap_j) and np.array_equal(ue[j], ue_j)
    finally:
        tracemalloc.stop()


def test_separate_draws_do_not_alias():
    # a drawer reuses its own buffers only: two drawers of the same drops
    # each hold arrays of their own
    blocks = [DropBlocks(6, 3, 100.0, PATH_LOSS, SHADOWING, 2, 1) for _ in range(2)]
    ((ap1, ue1), f1), ((ap2, ue2), f2) = (b.draw(0, 2) for b in blocks)
    for a, b in ((ap1, ap2), (ue1, ue2), (f1.beta, f2.beta)):
        assert not np.shares_memory(a, b)
    assert np.array_equal(f1.beta, f2.beta)


def test_gains_outside_the_float_range_are_rejected():
    # a shadowing spread that alone leaves the float range is named; a path
    # loss out of scale keeps the plain gain check; neither warns
    wide, tall = ShadowingModel(2000.0, 0.5), replace(PATH_LOSS, h_ue=1e10)
    with pytest.raises(ValueError, match="'sigma_sh_db' = 2000 dB is too"):
        _drop(20, 4, 1000.0, PATH_LOSS, wide, seed=0)
    with pytest.raises(ValueError, match="gains must be positive and finite"):
        _drop(4, 3, 1000.0, tall, SHADOWING, seed=0)


def test_validation_of_models():
    with pytest.raises(ValueError):
        replace(PATH_LOSS, d0=50.0, d1=10.0)
    with pytest.raises(ValueError):
        replace(SHADOWING, theta=1.5)
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
    _, tall = _drop(4, 3, 1000.0, replace(PATH_LOSS, h_ue=1000.0), SHADOWING, 0,
                    sinr=False)
    assert tall.min() > hi
    with pytest.raises(ValueError, match="gains must be positive and finite"):
        _drop(4, 3, 1000.0, replace(PATH_LOSS, h_ue=1000.0), SHADOWING, 0)
