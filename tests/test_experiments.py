"""Tests for the scenario runners and their CSV outputs."""

from dataclasses import replace

import numpy as np
import pytest

from fronthaul_planner.config import SystemConfig, draw_fading, signal_params
from fronthaul_planner.experiments import (BLOCK_GAINS, BLOCK_ROWS,
                                           COMPARED_SPLITS,
                                           EmpiricalCdf, ExperimentSpec,
                                           FIBER_COUNT_STUDY_NS,
                                           SURFACE_COST_SETS, compared_splits_for,
                                           run_ee_surface, run_ee_vs_mof,
                                           run_ee_vs_sumrate, run_rate_cdf,
                                           write_table)
from fronthaul_planner.fronthaul import FronthaulPlan, per_ap_distortions
from fronthaul_planner.rate import achievable_rates
from fronthaul_planner.seeds import derive_rng

SMALL = replace(SystemConfig(), m=30, k=5)


def read_csv(path):
    header = []
    rows = []
    columns = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


def test_empirical_cdf_properties():
    cdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
    assert np.array_equal(cdf.values, [1.0, 2.0, 3.0])
    assert np.array_equal(cdf.probs, [1 / 3, 2 / 3, 1.0])
    with pytest.raises(ValueError):
        EmpiricalCdf.from_samples([])


def test_empirical_cdf_constant_sample_is_step():
    cdf = EmpiricalCdf.from_samples(np.full(10, 4.2))
    assert np.all(cdf.values == 4.2)
    assert cdf.probs[-1] == 1.0
    assert np.all(np.diff(cdf.probs) > 0)


def test_empirical_cdf_dominance():
    lo = EmpiricalCdf.from_samples([1.0, 2.0, 3.0])
    hi = EmpiricalCdf.from_samples([1.5, 2.5, 3.5])
    assert hi.dominates(lo)
    assert not lo.dominates(hi)
    with pytest.raises(ValueError):
        hi.dominates(EmpiricalCdf.from_samples([1.0]))


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec("warp", SMALL)
    with pytest.raises(ValueError):
        ExperimentSpec("rate_cdf", SMALL, drops=0)


def test_ee_surface_outputs_and_cost_ordering(tmp_path):
    out = tmp_path / "surface.csv"
    spec = ExperimentSpec("ee_surface", SystemConfig(), seed=3,
                          output_path=str(out))
    optima = run_ee_surface(spec)
    assert set(optima) == set(SURFACE_COST_SETS)
    # cheaper fiber deploys at least as much fiber as premium fiber
    cheap = optima[(0.01, 0.001)].m_of_star
    premium = optima[(0.05, 0.003)].m_of_star
    assert cheap > premium

    header, columns, rows = read_csv(out)
    assert header[0].startswith("# scenario=ee_surface seed=3 config_sha=")
    assert columns == ["mu_of", "mu_fso", "n", "m_of",
                       "ee_bits_per_joule", "sum_rate_bps_hz"]
    assert len(rows) == len(SURFACE_COST_SETS) * 91 * 101
    assert any("argmax" in line for line in header)


def test_ee_surface_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_ee_surface(ExperimentSpec("ee_surface", SMALL, seed=11,
                                      output_path=str(path)))
    assert a.read_bytes() == b.read_bytes()


def test_rate_cdf_runs_and_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    results = []
    for path in (a, b):
        spec = ExperimentSpec("rate_cdf", SMALL, drops=20, seed=5,
                              output_path=str(path))
        results.append(run_rate_cdf(spec))
    assert a.read_bytes() == b.read_bytes()
    res = results[0]
    splits = compared_splits_for(SMALL.m)
    assert set(res) == set(splits)
    for sum_cdf, user_cdf in res.values():
        assert sum_cdf.values.size == 20
        assert user_cdf.values.size == 20 * SMALL.k
        assert np.all(np.diff(sum_cdf.values) >= 0)
        assert sum_cdf.probs[-1] == 1.0
    # different seed shifts the samples
    other = run_rate_cdf(ExperimentSpec("rate_cdf", SMALL, drops=20, seed=6,
                                        output_path=str(tmp_path / "c.csv")))
    best = splits[0]
    assert not np.array_equal(other[best][0].values, res[best][0].values)


# M K beyond the block budget: every block holds a single drop
WIDE = replace(SystemConfig(), m=200, k=100)


@pytest.mark.parametrize("cfg, drops", [
    (SMALL, 2 * (BLOCK_GAINS // (SMALL.m * SMALL.k)) + 7),
    (WIDE, 3),
])
def test_rate_cdf_blocks_equal_per_drop_evaluation(cfg, drops, tmp_path):
    assert (cfg.m * cfg.k > BLOCK_GAINS) == (cfg is WIDE)
    res = run_rate_cdf(ExperimentSpec("rate_cdf", cfg, drops=drops, seed=9,
                                      output_path=str(tmp_path / "cdf.csv")))
    sig = signal_params(cfg)
    gains = [draw_fading(cfg, derive_rng(9, "drop", i))[1].beta
             for i in range(drops)]
    for n, m_of in compared_splits_for(cfg.m):
        plan = FronthaulPlan.fso_first(cfg.m, m_of, cfg.c_fso, max(1.0, n))
        sums, users = [], []
        for beta in gains:
            rates = achievable_rates(beta, sig,
                                     per_ap_distortions(beta, sig, plan))
            sums.append(rates.sum_rate)
            users.extend(rates.per_user_rate.tolist())
        sum_cdf, user_cdf = res[(n, m_of)]
        assert np.array_equal(sum_cdf.values, np.sort(sums))
        assert np.array_equal(user_cdf.values, np.sort(users))


def test_rate_cdf_csv_schema(tmp_path):
    out = tmp_path / "cdf.csv"
    run_rate_cdf(ExperimentSpec("rate_cdf", SMALL, drops=5, seed=1,
                                output_path=str(out)))
    header, columns, rows = read_csv(out)
    assert columns == ["n", "m_of", "kind", "value", "cum_prob"]
    kinds = {r[2] for r in rows}
    assert kinds == {"sum_rate", "per_user_rate"}
    assert len(rows) == len(COMPARED_SPLITS) * (5 + 5 * SMALL.k)


def test_tradeoff_curves_and_zero_power_limit(tmp_path):
    out = tmp_path / "tradeoff.csv"
    spec = ExperimentSpec("ee_vs_sumrate", SystemConfig(), seed=2,
                          output_path=str(out))
    curves = run_ee_vs_sumrate(spec)
    assert set(curves) == set(COMPARED_SPLITS)
    for pts in curves.values():
        # sweeping up the transmit power raises the sum rate monotonically
        assert np.all(np.diff(pts[:, 1]) > 0)
        assert np.all(pts[:, 2] > 0)
    # both coordinates shrink toward the zero-power endpoint
    low, high = curves[(2.0, 48)][0], curves[(2.0, 48)][-1]
    assert low[1] < 0.2 * high[1]
    assert low[2] < high[2]

    header, columns, rows = read_csv(out)
    assert columns == ["n", "m_of", "rho_eta_w", "sum_rate_bps_hz",
                       "ee_bits_per_joule"]
    assert len(rows) == len(COMPARED_SPLITS) * 100


def test_tradeoff_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_ee_vs_sumrate(ExperimentSpec("ee_vs_sumrate", SMALL, seed=7,
                                         output_path=str(path)))
    assert a.read_bytes() == b.read_bytes()


def test_geometric_mean_beta_policy(tmp_path):
    cfg = replace(SMALL, beta_policy="geometric_mean")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        run_ee_surface(ExperimentSpec("ee_surface", cfg, seed=4,
                                      output_path=str(out)))
    assert out_a.read_bytes() == out_b.read_bytes()
    # the derived scalar is recorded in the header
    line = next(l for l in out_a.read_text().splitlines() if "beta_scalar" in l)
    assert "policy=geometric_mean" in line


def test_ee_vs_mof_curves(tmp_path):
    out = tmp_path / "mof.csv"
    spec = ExperimentSpec("ee_vs_mof", SystemConfig(), seed=0,
                          output_path=str(out))
    curves = run_ee_vs_mof(spec)
    assert set(curves) == set(FIBER_COUNT_STUDY_NS)
    mofs, ee = curves[1.0]
    assert mofs[0] == 0 and mofs[-1] == SystemConfig().m
    # equal capacities make fiber pure cost, so the curve falls monotonically
    assert np.all(np.diff(ee) < 0)
    header, columns, rows = read_csv(out)
    assert columns == ["n", "m_of", "ee_bits_per_joule"]
    assert len(rows) == len(FIBER_COUNT_STUDY_NS) * 101
    assert sum("argmax" in line for line in header) == len(FIBER_COUNT_STUDY_NS)
    again = tmp_path / "mof2.csv"
    run_ee_vs_mof(ExperimentSpec("ee_vs_mof", SystemConfig(), seed=0,
                                 output_path=str(again)))
    assert out.read_bytes() == again.read_bytes()


def test_write_table_matches_row_loop_across_blocks(tmp_path):
    rows = 2 * BLOCK_ROWS + 17
    rng = np.random.default_rng(5)
    ints = rng.integers(-10 ** 6, 10 ** 6, rows)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    floats[:4] = (0.0, 2.0, 1e-300, 123456789.0)
    kinds = np.where(ints % 2 == 0, "even", "odd")
    path = tmp_path / "t.csv"
    write_table(path, ["scenario=x seed=1", "more"], ("i", "f", "kind", "obj"),
                (ints, floats, kinds, kinds.astype(object)))

    expected = "# scenario=x seed=1\n# more\ni,f,kind,obj\n"
    for i, f, kind in zip(ints.tolist(), floats.tolist(), kinds.tolist()):
        expected += f"{i},{'%.9g' % f},{kind},{kind}\n"
    assert path.read_bytes() == expected.encode()
