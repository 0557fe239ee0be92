"""Tests for the scenario runners and their CSV outputs."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fronthaul_planner import experiments
from fronthaul_planner.config import (SystemConfig, draw_fading,
                                      power_cost_params, signal_params,
                                      symmetric_beta)
from fronthaul_planner.energy import aggregate_params, symmetric_terms
from fronthaul_planner.experiments import (BLOCK_GAINS, BLOCK_ROWS,
                                           COMPARED_SPLITS, ExperimentSpec,
                                           SURFACE_COST_SETS, SWEEP_RHO_ETA_W,
                                           compared_splits_for, grid_columns,
                                           run_ee_surface, run_ee_vs_sumrate,
                                           run_rate_cdf, write_table)
from fronthaul_planner.fronthaul import (FronthaulPlan, UplinkSignalParams,
                                         per_ap_distortions, quantizer)
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


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(SMALL, drops=0)


def test_ee_surface_outputs_and_cost_ordering(tmp_path):
    out = tmp_path / "surface.csv"
    spec = ExperimentSpec(SystemConfig(), seed=3,
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
        run_ee_surface(ExperimentSpec(SMALL, seed=11,
                                      output_path=str(path)))
    assert a.read_bytes() == b.read_bytes()


def test_rate_cdf_runs_and_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    results = []
    for path in (a, b):
        spec = ExperimentSpec(SMALL, drops=20, seed=5,
                              output_path=str(path))
        results.append(run_rate_cdf(spec))
    assert a.read_bytes() == b.read_bytes()
    res = results[0]
    splits = compared_splits_for(SMALL.m)
    assert set(res) == set(splits)
    for sums, users in res.values():
        assert sums.size == 20
        assert users.size == 20 * SMALL.k
        assert np.all(np.diff(sums) >= 0)
    # different seed shifts the samples
    other = run_rate_cdf(ExperimentSpec(SMALL, drops=20, seed=6,
                                        output_path=str(tmp_path / "c.csv")))
    best = splits[0]
    assert not np.array_equal(other[best][0], res[best][0])


# M K beyond the block budget: every block holds a single drop
WIDE = replace(SystemConfig(), m=200, k=100)


@pytest.mark.parametrize("cfg, drops", [
    (SMALL, 2 * (BLOCK_GAINS // (SMALL.m * SMALL.k)) + 7),
    (WIDE, 3),
])
def test_rate_cdf_blocks_equal_per_drop_evaluation(cfg, drops, tmp_path):
    assert (cfg.m * cfg.k > BLOCK_GAINS) == (cfg is WIDE)
    res = run_rate_cdf(ExperimentSpec(cfg, drops=drops, seed=9,
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
            sums.append(rates.sum())
            users.extend(rates.tolist())
        assert np.array_equal(res[(n, m_of)][0], np.sort(sums))
        assert np.array_equal(res[(n, m_of)][1], np.sort(users))


def test_rate_cdf_reports_a_capacity_error_before_a_drop_error(tmp_path):
    # run_rate_cdf takes the law of its capacities before it draws a drop.
    # Each capacity is c_fso or n * c_fso with n >= 1, and 2^C - 1 rises with
    # C, so only the smallest c_fso the config admits can fail the law: it
    # does where numpy's 2^C rounds to 1 below Python's (a window of about
    # 100 floats near 1.6e-16 with numpy 2.4). There the capacity error wins
    # over a shadowing error; elsewhere the drop error is the one reported
    lo, hi = 0.0, 1e-15
    while np.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2
        try:
            replace(SMALL, c_fso=mid)
            hi = mid
        except ValueError:
            lo = mid
    assert all(n >= 1 for n, _ in COMPARED_SPLITS)
    try:
        quantizer(hi)
        text = "'sigma_sh_db' = 2000 dB is too large"
    except ValueError as error:
        text = re.escape(str(error))
    with pytest.raises(ValueError, match=text):
        run_rate_cdf(ExperimentSpec(replace(SMALL, c_fso=hi, sigma_sh_db=2000.0),
                                    drops=2, output_path=str(tmp_path / "cdf.csv")))


def test_rate_cdf_csv_schema(tmp_path):
    out = tmp_path / "cdf.csv"
    run_rate_cdf(ExperimentSpec(SMALL, drops=5, seed=1,
                                output_path=str(out)))
    header, columns, rows = read_csv(out)
    assert columns == ["n", "m_of", "kind", "value", "cum_prob"]
    kinds = {r[2] for r in rows}
    assert kinds == {"sum_rate", "per_user_rate"}
    assert len(rows) == len(COMPARED_SPLITS) * (5 + 5 * SMALL.k)
    blocks = {}
    for r in rows:
        blocks.setdefault(tuple(r[:3]), []).append(r[4])
    assert len(blocks) == 2 * len(COMPARED_SPLITS)
    for probs in blocks.values():
        s = len(probs)
        assert probs == ["%.9g" % (i / s) for i in range(1, s + 1)]


def test_tradeoff_curves_and_zero_power_limit(tmp_path):
    out = tmp_path / "tradeoff.csv"
    spec = ExperimentSpec(SystemConfig(), seed=2,
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
        run_ee_vs_sumrate(ExperimentSpec(SMALL, seed=7,
                                         output_path=str(path)))
    assert a.read_bytes() == b.read_bytes()


def plain_tradeoff(cfg, seed):
    """The trade-off as a loop: per split and sweep point, one scalar call."""
    beta = symmetric_beta(cfg, seed)
    pc = power_cost_params(cfg)
    lo, hi, count = SWEEP_RHO_ETA_W
    sweep = np.linspace(lo, min(hi, cfg.rho_u_w), count)
    curves = {}
    for n, m_of in compared_splits_for(cfg.m):
        pts = []
        for p in sweep:
            sig = UplinkSignalParams.symmetric(cfg.rho_u_w, p / cfg.rho_u_w,
                                               cfg.noise_power_w, cfg.m, cfg.k)
            agg = aggregate_params(beta, sig, pc, cfg.m, cfg.k, cfg.c_fso)
            ee, sum_rate = symmetric_terms(n, m_of, agg)
            pts.append((p, sum_rate, ee))
        curves[(n, m_of)] = np.array(pts)
    return curves


@pytest.mark.parametrize("cfg", [
    SystemConfig(),
    replace(SystemConfig(), beta_policy="geometric_mean"),
    replace(SystemConfig(), m=37, k=5, rho_u_w=0.05),
    replace(SystemConfig(), m=7, k=3, c_fso=0.5),
], ids=["default", "geometric_mean", "m37_k5_rho50mw", "m7_k3_c0.5"])
def test_tradeoff_stack_equals_per_split_loop(cfg, tmp_path):
    for seed in range(4):
        out = tmp_path / f"tradeoff{seed}.csv"
        curves = run_ee_vs_sumrate(ExperimentSpec(cfg,
                                                  seed=seed,
                                                  output_path=str(out)))
        expected = plain_tradeoff(cfg, seed)
        assert list(curves) == list(expected)
        rows = []
        for (n, m_of), pts in expected.items():
            assert np.array_equal(curves[(n, m_of)], pts)
            rows += [["%.9g" % n, str(m_of)] + ["%.9g" % v for v in pt]
                     for pt in pts.tolist()]
        assert read_csv(out)[2] == rows


def test_geometric_mean_beta_policy(tmp_path):
    cfg = replace(SMALL, beta_policy="geometric_mean")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        run_ee_surface(ExperimentSpec(cfg, seed=4,
                                      output_path=str(out)))
    assert out_a.read_bytes() == out_b.read_bytes()
    # the derived scalar is recorded in the header
    line = next(l for l in out_a.read_text().splitlines() if "beta_scalar" in l)
    assert "policy=geometric_mean" in line


def test_write_table_matches_row_loop_across_blocks(tmp_path):
    rows = 2 * BLOCK_ROWS + 17
    rng = np.random.default_rng(5)
    ints = rng.integers(-10 ** 6, 10 ** 6, rows)
    ints[:2] = (1234567890, -9876543210)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    floats[:8] = (0.0, -0.0, 0.0, 2.0, 1e-300, 123456789.0, np.nan, np.inf)
    kinds = np.where(ints % 2 == 0, "even", "odd")
    objects = kinds.astype(object)
    # equal values that print differently
    objects[:5] = (1, 1.0, True, 0.0, -0.0)
    path = tmp_path / "t.csv"
    write_table(path, ["scenario=x seed=1", "more"], ("i", "f", "kind", "obj"),
                [(ints, floats, kinds, objects)])

    expected = "# scenario=x seed=1\n# more\ni,f,kind,obj\n"
    for i, f, kind, obj in zip(ints.tolist(), floats.tolist(), kinds.tolist(),
                               objects.tolist()):
        expected += f"{i},{'%.9g' % f},{kind},{obj}\n"
    assert path.read_bytes() == expected.encode()
    with pytest.raises(ValueError, match="equal lengths"):
        write_table(path, [], ("i", "f"), [(ints, floats[:-1])])
    assert not path.exists()


@pytest.mark.parametrize("block, names", [
    ((np.arange(3), np.ones(3)), ("a", "b", "c")),
    ((np.arange(3), np.ones(3)), ("a",)),
    ((), ("a", "b")),
], ids=["fewer", "more", "empty"])
def test_write_table_rejects_a_block_of_the_wrong_width(tmp_path, block, names):
    path = tmp_path / "t.csv"
    message = f"table block has {len(block)} columns for {len(names)} names"
    with pytest.raises(ValueError, match=message):
        write_table(path, ["scenario=x"], names, [block])
    assert not path.exists()


def test_write_table_streams_blocks_and_leaves_no_partial_file(tmp_path):
    path = tmp_path / "t.csv"
    blocks = [(np.arange(3), np.array([0.5, 1.5, 2.5])),
              (np.arange(3, 4), np.array([3.5]))]
    write_table(path, ["scenario=x"], ("i", "f"), iter(blocks))
    assert path.read_text() == "# scenario=x\ni,f\n0,0.5\n1,1.5\n2,2.5\n3,3.5\n"

    def failing():
        yield blocks[0]
        raise ValueError("power plus cost must be positive")

    with pytest.raises(ValueError, match="power plus cost"):
        write_table(path, ["scenario=x"], ("i", "f"), failing())
    assert not path.exists()


def test_write_table_memory_does_not_grow_with_rows(tmp_path):
    # blocks bound the writer's temporaries: four times the rows may not
    # cost more memory, and a block stays within a few MB
    rng = np.random.default_rng(8)
    peaks = []
    for rows in (100_000, 400_000):
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-6, 9, rows)
                   for _ in range(4)]
        tracemalloc.start()
        try:
            write_table(tmp_path / "m.csv", ["scenario=x"], ("a", "b", "c", "d"),
                        [columns])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
    assert peaks[1] < 4e6


def test_write_table_reuses_its_work_arrays_across_pieces(tmp_path):
    # six grid-like pieces (n in runs of 101 rows, fiber counts 0-100, two
    # float columns of distinct values): the pieces after the first render in
    # the work arrays the first one made, so each allocates under 1 MB above
    # what is held when it starts (about 1.1 MB when every piece makes its
    # own)
    rng = np.random.default_rng(3)
    rows = BLOCK_ROWS // 101 * 101
    blocks = [(np.repeat(1.0 + 0.01 * np.arange(40 * p, 40 * p + 40), 101),
               np.tile(np.arange(101), 40),
               rng.uniform(1e6, 5e6, rows), rng.uniform(10.0, 30.0, rows))
              for p in range(6)]
    peaks = []

    def pieces():
        for block in blocks:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            yield block
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    tracemalloc.start()
    try:
        write_table(tmp_path / "g.csv", ["scenario=x"], ("n", "m_of", "ee", "rate"),
                    pieces())
    finally:
        tracemalloc.stop()
    assert len(peaks) == 6
    assert max(peaks[1:]) < 1e6, peaks


def test_write_table_reuses_its_work_arrays_across_coded_pieces(tmp_path):
    # the grid pieces above as cmd_grid passes them (grid_columns): n coded
    # over each block's 40 values, m_of over one arange(101) for the table;
    # the pieces after the first gather m_of from the text the first one
    # made and render in its work arrays
    rng = np.random.default_rng(3)
    mofs = np.arange(101)
    blocks = [grid_columns((np.repeat(1.0 + 0.01 * np.arange(40 * p, 40 * p + 40),
                                      101).reshape(40, 101),
                            np.tile(mofs, (40, 1)), rng.uniform(1e6, 5e6, (40, 101)),
                            rng.uniform(10.0, 30.0, (40, 101))), mofs)
              for p in range(6)]
    peaks = []

    def pieces():
        for block in blocks:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            yield block
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    tracemalloc.start()
    try:
        write_table(tmp_path / "g.csv", ["scenario=x"], ("n", "m_of", "ee", "rate"),
                    pieces())
    finally:
        tracemalloc.stop()
    assert len(peaks) == 6
    assert max(peaks[1:]) < 1e6, peaks


def test_work_memory_frees_before_it_grows():
    # a work array that grows lets the old bytes go before the new come:
    # growing 1 MiB to 2 MiB peaks at 2 MiB, not at the 3 MiB of both
    buffers = {}
    tracemalloc.start()
    try:
        experiments._work(buffers, "w", (2 ** 20,), np.uint8)
        tracemalloc.reset_peak()
        grown = experiments._work(buffers, "w", (2 ** 18,), np.float64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grown.nbytes == 2 ** 21 and buffers["w"].nbytes == 2 ** 21
    assert peak < 2 ** 21 + 2 ** 16, peak


def test_grid_and_surface_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch,
                                                             capsys):
    # grid and surface evaluate and write blocks of whole n rows: at M = 1000,
    # 4.3 times the n rows (91 against 21) may not cost more memory, where
    # holding whole grids of 91 rows peaks at about 6 MB (grid) and 27 MB
    # (surface, three grids)
    from fronthaul_planner.cli import main
    cfg = tmp_path / "m1000.cfg"
    cfg.write_text("m = 1000\n")
    for command in ("grid", "surface"):
        peaks = []
        for n_range in ((1.0, 3.0, 0.1), (1.0, 10.0, 0.1)):
            monkeypatch.setattr(experiments, "SURFACE_N", n_range)
            argv = [command, "--config", str(cfg), "--out", str(tmp_path)]
            if command == "grid":
                argv += ["--n", "%g:%g:%g" % n_range]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] <= 1.1 * peaks[0], (command, peaks)
        assert peaks[1] < 3e6, (command, peaks)


def test_reference_grid_and_surface_floats_reach_python_only_where_pinned(
        tmp_path, monkeypatch, capsys):
    # numpy renders the floats of the reference grid --n 1:10:0.01 (91,001
    # rows) and surface (27,573 rows) tables. Python formats only the short
    # coded value sets, at most _FEW_VALUES a call (each block's n values:
    # 901 and 273; the surface's six cost values), and the values within
    # 1e-4 of a rounding tie in the ninth digit (26 and 8). A change that
    # sends the grid's EE or sum-rate columns back to Python fails here.
    from fronthaul_planner.cli import main
    counts = {}
    python_cells = experiments._python_cells

    def counted(values, fmt, sep):
        if fmt == "%.9g":
            counts[command] = counts.get(command, 0) + len(values)
        return python_cells(values, fmt, sep)

    monkeypatch.setattr(experiments, "_python_cells", counted)
    for command, argv in (("grid", ["grid", "--n", "1:10:0.01"]), ("surface", ["surface"])):
        assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert counts == {"grid": 901 + 26, "surface": 273 + 6 + 8}
