"""Tests for topology generation, path loss, shadowing and fast fading."""

from dataclasses import replace

import numpy as np
import pytest

from fronthaul_planner.channel import (LargeScaleFading, NetworkTopology,
                                       ShadowingModel, draw_drops,
                                       generate_topology, large_scale_fading,
                                       path_loss_db)
from fronthaul_planner.seeds import derive_rng, derive_states
from reference import PATH_LOSS, SHADOWING

# Frozen oracle: independent evaluation of the fixed-loss constant at
# f = 1900 MHz, h_ap = 15 m, h_ue = 1.65 m.
L_REFERENCE_DB = 140.71508370390842


def test_generate_topology_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_topology(0, 1, 1000.0, seed=0)
    with pytest.raises(ValueError):
        generate_topology(1, 0, 1000.0, seed=0)
    with pytest.raises(ValueError):
        generate_topology(1, 1, 0.0, seed=0)


def test_generate_topology_deterministic():
    t1 = generate_topology(100, 10, 1000.0, seed=42)
    t2 = generate_topology(100, 10, 1000.0, seed=42)
    assert np.array_equal(t1.ap_positions, t2.ap_positions)
    assert np.array_equal(t1.ue_positions, t2.ue_positions)
    t3 = generate_topology(100, 10, 1000.0, seed=43)
    assert not np.array_equal(t1.ap_positions, t3.ap_positions)


def test_generate_topology_uniform_mean():
    topo = generate_topology(100, 10, 1000.0, seed=42)
    # mean of 100 uniform draws on [0, 1000]: sd = (1000/sqrt(12))/10
    three_sigma = 3.0 * (1000.0 / np.sqrt(12.0)) / np.sqrt(100.0)
    assert abs(np.mean(topo.ap_positions[:, 0]) - 500.0) < three_sigma
    assert np.all(topo.ap_positions >= 0) and np.all(topo.ap_positions <= 1000)
    assert np.all(topo.ue_positions >= 0) and np.all(topo.ue_positions <= 1000)


def test_topology_validation():
    with pytest.raises(ValueError):
        NetworkTopology(np.array([[2000.0, 0.0]]), np.array([[1.0, 1.0]]), 1000.0)
    with pytest.raises(ValueError):
        NetworkTopology(np.empty((0, 2)), np.array([[1.0, 1.0]]), 1000.0)
    # NaN positions and a non-finite area fail the range checks
    nan = float("nan")
    for ap, ue, side in (([[nan, 1.0]], [[2.0, 2.0]], 10.0),
                         ([[1.0, 1.0]], [[2.0, nan]], 10.0),
                         ([[1.0, 1.0]], [[2.0, 2.0]], nan),
                         ([[1.0, 1.0]], [[2.0, 2.0]], np.inf)):
        with pytest.raises(ValueError):
            NetworkTopology(ap, ue, side)
    for side in (nan, np.inf):
        with pytest.raises(ValueError, match="area_side"):
            generate_topology(2, 2, side, seed=0)


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
    topo = generate_topology(20, 5, 1000.0, seed=1)
    pl = PATH_LOSS
    fading = large_scale_fading(topo, pl, replace(SHADOWING, sigma_sh_db=0.0), seed=1)
    expected = 10.0 ** (path_loss_db(topo.distances(), pl) / 10.0)
    assert np.array_equal(fading.beta, expected)


def _recover_z(topo, pl, sh, seed):
    fading = large_scale_fading(topo, pl, sh, seed)
    pl_db = path_loss_db(topo.distances(), pl)
    return (10.0 * np.log10(fading.beta) - pl_db) / sh.sigma_sh_db


def test_shadowing_correlation_extremes():
    topo = generate_topology(15, 6, 1000.0, seed=2)
    pl = PATH_LOSS
    # theta = 0: shadowing is user-driven, equal at all APs
    z0 = _recover_z(topo, pl, ShadowingModel(8.0, 0.0), seed=2)
    assert np.allclose(z0.max(axis=0), z0.min(axis=0), atol=1e-9)
    # theta = 1: shadowing is AP-driven, equal for all users
    z1 = _recover_z(topo, pl, ShadowingModel(8.0, 1.0), seed=2)
    assert np.allclose(z1.max(axis=1), z1.min(axis=1), atol=1e-9)


def test_shadowing_spread_over_seeds():
    topo = generate_topology(4, 3, 1000.0, seed=3)
    pl = PATH_LOSS
    sh = ShadowingModel(8.0, 0.5)
    entry = np.array([large_scale_fading(topo, pl, sh, seed=s).beta[0, 0]
                      for s in range(300)])
    # log10(beta) spreads with sd sigma_sh / 10 = 0.8
    assert np.std(np.log10(entry)) == pytest.approx(0.8, abs=0.15)


def test_fading_deterministic():
    topo = generate_topology(10, 4, 500.0, seed=5)
    pl, sh = PATH_LOSS, SHADOWING
    b1 = large_scale_fading(topo, pl, sh, seed=9).beta
    b2 = large_scale_fading(topo, pl, sh, seed=9).beta
    assert np.array_equal(b1, b2)


def test_drop_stack_equals_single_drops():
    # the block drawer's two draws per drop against generate_topology and
    # large_scale_fading on that drop's Generator, bit for bit
    pl, sh = PATH_LOSS, SHADOWING
    topo, fading = draw_drops(6, 2, 800.0, pl, sh, derive_states(3, "drop", 4, 7))
    assert fading.beta.shape == (3, 6, 2) and (topo.m, topo.k) == (6, 2)
    for j in range(3):
        rng = derive_rng(3, "drop", 4 + j)
        one = generate_topology(6, 2, 800.0, rng)
        assert np.array_equal(topo.ap_positions[j], one.ap_positions)
        assert np.array_equal(topo.ue_positions[j], one.ue_positions)
        assert np.array_equal(fading.beta[j],
                              large_scale_fading(one, pl, sh, rng).beta)


def test_validation_of_models():
    with pytest.raises(ValueError):
        replace(PATH_LOSS, d0=50.0, d1=10.0)
    with pytest.raises(ValueError):
        replace(SHADOWING, theta=1.5)
    with pytest.raises(ValueError):
        LargeScaleFading(np.array([[0.0, 1.0]]))
