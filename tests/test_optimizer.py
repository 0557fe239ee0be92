"""Tests for the closed-form optima, the endpoint step and the grid oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronthaul_planner import optimizer
from fronthaul_planner.cli import main
from fronthaul_planner.energy import (PowerCostParams, aggregate_params,
                                      symmetric_terms)
from fronthaul_planner.fronthaul import UplinkSignalParams
from fronthaul_planner.optimizer import (_range_count, best_of,
                                         capacity_coeff_quadratic,
                                         fiber_count_intermediates,
                                         grid_cells, grid_search,
                                         optimal_m_of_closed_form,
                                         optimal_n_closed_form, parse_range)
from reference import NOISE_W, POWER_COST

M, K, C, BS = 100, 10, 2.0, 20e6


def default_agg(beta=1.1e-12, mu_of=0.03, mu_fso=0.003):
    sig = UplinkSignalParams.symmetric(0.1, 0.5, NOISE_W, M, K)
    pc = replace(POWER_COST, mu_of=mu_of, mu_fso=mu_fso)
    return aggregate_params(beta, sig, pc, M, K, C)


def grid_optimum(agg, lo, hi, step):
    return grid_search(grid_cells(agg, parse_range(lo, hi, step)))


def neighborhood_agg(rng):
    """Random parameter set near the reference configuration."""
    p = lambda lo, hi: float(rng.uniform(lo, hi))
    m = int(rng.integers(50, 151))
    k = int(rng.integers(5, 21))
    c = float(rng.choice([1.0, 2.0, 3.0, 4.0]))
    beta = 10.0 ** rng.uniform(np.log10(3e-13), np.log10(3e-12))
    sig = UplinkSignalParams.symmetric(0.1 * p(0.7, 1.3), 0.5 * p(0.7, 1.3),
                                       NOISE_W, m, k)
    pfh_of = 0.25 * p(0.7, 1.3)
    pc = PowerCostParams(0.2 * p(0.7, 1.3), 0.825 * p(0.7, 1.3),
                         max(pfh_of, 0.3 * p(0.7, 1.3)), pfh_of,
                         0.003 * p(0.7, 1.3), 0.03 * p(0.7, 1.3),
                         20e6 * p(0.7, 1.3))
    return aggregate_params(beta, sig, pc, m, k, c)


def grid_argmax_m_of(n, agg):
    nn, mm, ee, _ = grid_cells(agg, np.array([n]))
    return int(mm.ravel()[np.argmax(ee.ravel())])


def fine_grid_argmax_n(m_of, agg):
    ns = 1.0 + 0.01 * np.arange(901)
    nn, mm, ee, _ = grid_cells(agg, ns)
    col = ee[:, m_of]
    return float(ns[np.argmax(col)])


def test_quadratic_root_residual():
    agg = default_agg()
    for m_of in (5, 30, 48, 77, 100):
        inter = capacity_coeff_quadratic(m_of, agg)
        if math.isnan(inter.chi):
            continue
        residual = inter.u1 * inter.chi ** 2 + inter.u2 * inter.chi + inter.u3
        bound = 1e-9 * max(abs(inter.u1), abs(inter.u2), abs(inter.u3))
        assert abs(residual) < bound


def test_optimal_n_rejects_a_split_without_fiber():
    # the capacity coefficient means nothing at m_of = 0: the n-step and
    # the quadratic reject it alike
    agg = default_agg()
    for step in (optimal_n_closed_form, capacity_coeff_quadratic):
        with pytest.raises(ValueError, match="immaterial without fiber links"):
            step(0, agg)


def test_optimal_n_reasonable_at_full_fiber():
    agg = default_agg()
    n = capacity_coeff_quadratic(100, agg).n_star
    true_n = fine_grid_argmax_n(100, agg)
    assert n >= 1.0
    assert abs(n - true_n) < 0.25


def test_fiber_count_degenerate_equal_capacity():
    agg = default_agg()
    inter = fiber_count_intermediates(1.0, agg)
    # at n = 1 the two link penalties cancel exactly
    assert inter.kappa2 == 0.0
    assert math.isnan(inter.m_cont)
    assert optimal_m_of_closed_form(1.0, agg).m_of_star == 0


def test_fiber_count_closed_form_tracks_grid_on_reference():
    agg = default_agg()
    for n in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0):
        assert optimal_m_of_closed_form(n, agg).m_of_star == grid_argmax_m_of(n, agg)


def test_fiber_count_all_fso_for_large_n():
    agg = default_agg()
    for n in (8.0, 9.0, 10.0):
        assert optimal_m_of_closed_form(n, agg).m_of_star == 0
    with pytest.raises(ValueError):
        optimal_m_of_closed_form(0.5, agg)


def test_fiber_count_degenerate_power_crossover():
    # a power-hungry FSO link can make the per-link power terms cross at
    # some n >= 1, where the paper's stationary point degenerates; the
    # endpoint step does not read it
    sig = UplinkSignalParams.symmetric(0.1, 0.5, NOISE_W, M, K)
    pc = replace(POWER_COST, p_fh_fso=0.4, p_fh_of=0.2, mu_fso=0.003, mu_of=0.003)
    agg = aggregate_params(1.1e-12, sig, pc, M, K, C)
    n_cross = agg.gamma_fso / agg.gamma_of
    assert n_cross >= 1.0
    inter = fiber_count_intermediates(n_cross, agg)
    assert inter.kappa4 == pytest.approx(0.0, abs=1e-18)
    assert (optimal_m_of_closed_form(n_cross, agg).m_of_star
            == grid_argmax_m_of(n_cross, agg))


def test_fiber_count_closed_form_vs_grid_random_family():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        agg = neighborhood_agg(rng)
        n = float(rng.uniform(1.0, 6.0))
        assert optimal_m_of_closed_form(n, agg).m_of_star == grid_argmax_m_of(n, agg)


def test_parse_range():
    ns = parse_range(1.0, 10.0, 0.1)
    assert len(ns) == 91
    assert ns[0] == pytest.approx(1.0)
    assert ns[-1] == pytest.approx(10.0)
    with pytest.raises(ValueError):
        parse_range(1.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        parse_range(1.0, 2.0, 0.0)
    # infinite or NaN parts, and a span too long for a float count
    for bad in ((1.0, np.inf, 1.0), (-np.inf, 1.0, 1.0), (1.0, 10.0, np.inf),
                (np.nan, 1.0, 1.0), (0.0, 1e308, 1e-10)):
        with pytest.raises(ValueError, match="range must be finite"):
            parse_range(*bad)
    # a count no float64 array can hold is rejected before any allocation;
    # the bound is 2^60 - 1 values, and floats near 2^60 are 256 apart
    with pytest.raises(ValueError, match="more values than a float array can hold"):
        parse_range(1.0, 1e300, 1.0)
    assert _range_count(0.0, 2.0 ** 60 - 256, 1.0) == 2 ** 60 - 255
    with pytest.raises(ValueError, match="more values than a float array can hold"):
        _range_count(0.0, 2.0 ** 60, 1.0)


def test_grid_single_point():
    agg = default_agg()
    opt = grid_optimum(agg, 2.0, 2.0, 1.0)
    # a single n with all m_of still picks the best fiber count
    assert opt.n_star == 2.0
    assert 0 <= opt.m_of_star <= M


def test_grid_tie_break_prefers_smallest():
    # an expensive-fiber setup puts the optimum on the n-independent
    # all-FSO plateau; ties must resolve to the smallest n
    agg = default_agg(mu_of=0.05)
    opt = grid_optimum(agg, 1.0, 10.0, 0.1)
    assert opt.m_of_star == 0
    assert opt.n_star == 1.0


def test_grid_refinement_consistency():
    agg = default_agg()
    coarse = grid_optimum(agg, 1.0, 10.0, 0.5)
    fine = grid_optimum(agg, 1.0, 10.0, 0.05)
    # the fine optimum can improve on the coarse one by at most the EE
    # variation across one coarse cell around the fine optimum
    from fronthaul_planner.energy import ee_symmetric

    ns = np.linspace(max(1.0, fine.n_star - 0.5), fine.n_star + 0.5, 21)
    cell = ee_symmetric(ns, fine.m_of_star, agg, M, K, BS, C)
    spread = float(np.max(cell) - np.min(cell))
    assert fine.ee_star - coarse.ee_star <= spread + 1e-12
    assert fine.ee_star >= coarse.ee_star - 1e-12


def test_grid_deterministic():
    agg = default_agg()
    a = grid_optimum(agg, 1.0, 10.0, 0.1)
    b = grid_optimum(agg, 1.0, 10.0, 0.1)
    assert (a.n_star, a.m_of_star, a.ee_star) == (b.n_star, b.m_of_star, b.ee_star)


def test_optimize_evaluates_the_objective_once(monkeypatch, tmp_path, capsys):
    # both endpoint columns over the whole n grid in one call
    calls = []

    def counted(*args):
        calls.append(args)
        return symmetric_terms(*args)

    monkeypatch.setattr(optimizer, "symmetric_terms", counted)
    assert main(["optimize", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_optimize_prints_grids_optimum_on_one_ap(tmp_path, capsys):
    # on one AP the best fiber cell (1.45, 1) is 0.5% above all-FSO (1, 0);
    # optimize must find it as grid does
    cfg = tmp_path / "one_ap.cfg"
    cfg.write_text("m = 1\nk = 9\nc_fso = 3.8\np_fh_fso_w_per_gbps = 0.67\n"
                   "p_fh_of_w_per_gbps = 0.12\nmu_of = 0.022\n")
    optimum = {}
    for argv in (["optimize"], ["grid", "--n", "1:10:0.01"]):
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path)]) == 0
        optimum[argv[0]] = [line for line in capsys.readouterr().out.splitlines()
                            if line.startswith(("n_star", "m_of_star", "ee_star"))]
    assert optimum["optimize"] == optimum["grid"] == [
        "n_star = 1.45", "m_of_star = 1", "ee_star = 7495754.2 bits/J"]


def test_argmax_invariant_to_power_scaling():
    agg = default_agg()
    scaled = replace(agg, gamma_ep=5.0 * agg.gamma_ep,
                     gamma_fso=5.0 * agg.gamma_fso, gamma_of=5.0 * agg.gamma_of)
    a = grid_optimum(agg, 1.0, 10.0, 0.1)
    b = grid_optimum(scaled, 1.0, 10.0, 0.1)
    assert (a.n_star, a.m_of_star) == (b.n_star, b.m_of_star)
    assert b.ee_star == pytest.approx(a.ee_star / 5.0, rel=1e-12)
    for n in (2.0, 5.0):
        assert (optimal_m_of_closed_form(n, agg).m_of_star
                == optimal_m_of_closed_form(n, scaled).m_of_star)


def _lexsort_cell(nn, mm, ee):
    """The former grid_search rule: a full sort on (-ee, n, m_of)."""
    idx = np.lexsort((mm, nn, -ee))[0]
    return float(nn[idx]), int(mm[idx]), float(ee[idx])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_grid_search_picks_the_lexsort_cell(data):
    # any cell order, ties forced by a few EE values, the n-independent
    # m_of = 0 column of the objective, and NaN cells; the optima of blocks
    # of cells, combined, pick the same cell
    ns = data.draw(st.lists(st.sampled_from([1.0, 1.5, 2.0, 7.0, 10.0]),
                            min_size=1, max_size=5, unique=True))
    m = data.draw(st.integers(0, 6))
    nn, mm = (g.ravel() for g in np.meshgrid(ns, np.arange(m + 1), indexing="ij"))
    values = st.one_of(st.sampled_from([1.0, 2.0, 3.0, np.nan, -np.inf]),
                       st.floats(allow_nan=True))
    ee = np.array(data.draw(st.lists(values, min_size=nn.size, max_size=nn.size)))
    if data.draw(st.booleans()):
        ee[mm == 0] = data.draw(values)
    order = np.array(data.draw(st.permutations(range(nn.size))))
    nn, mm, ee = nn[order], mm[order], ee[order]
    expected = _lexsort_cell(nn, mm, ee)
    found = grid_search((nn, mm, ee, None))
    cell = (found.n_star, found.m_of_star, repr(found.ee_star))
    assert cell == expected[:2] + (repr(expected[2]),)
    cuts = sorted(data.draw(st.lists(st.integers(1, nn.size - 1), max_size=3, unique=True))
                  if nn.size > 1 else [])
    best = best_of([grid_search(c)
                    for c in zip(*(np.split(a, cuts) for a in (nn, mm, ee)))])
    assert (best.n_star, best.m_of_star, repr(best.ee_star)) == cell
