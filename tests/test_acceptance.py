"""Acceptance suite: release criteria A1-A9, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -rA` to see every verdict line.
Each check prints `[PASS]`/`[FAIL]` with the measured numbers before
asserting, so failures carry their evidence.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np

from fronthaul_planner.cli import main
from fronthaul_planner.config import (draw_fading, power_cost_params,
                                      signal_params)
from fronthaul_planner.energy import (PowerCostParams, aggregate_params,
                                      ee_symmetric)
from fronthaul_planner.experiments import (ExperimentSpec, run_ee_surface,
                                           run_ee_vs_sumrate, run_rate_cdf)
from fronthaul_planner.fronthaul import (FronthaulPlan, UplinkSignalParams,
                                         per_ap_distortions,
                                         quantization_noise_var)
from fronthaul_planner.optimizer import (capacity_coeff_quadratic,
                                         fiber_count_intermediates,
                                         grid_cells, grid_search,
                                         optimal_m_of_closed_form,
                                         optimal_n_closed_form, parse_range)
from fronthaul_planner.rate import (achievable_rates, mc_validate_terms,
                                    sinr_closed_form)
from reference import (CFG, NOISE_W, energy_efficiency, fronthaul_cost,
                       network_power)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def default_agg(beta=None, mu_of=0.03, mu_fso=0.003):
    sig = signal_params(CFG)
    pc = power_cost_params(replace(CFG, mu_of=mu_of, mu_fso=mu_fso))
    b = CFG.beta_scalar if beta is None else beta
    return aggregate_params(b, sig, pc, CFG.m, CFG.k, CFG.c_fso)


def neighborhood_setup(rng):
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


def test_a1_grid_optimum_location():
    """A1: grid search at the reference cost set lands on (n, m_of) = (2, 48).

    The verdict also carries the evidence on why this model misses it: the
    EE of (2, 48) and its gap to the grid optimum, and where EE over m_of is
    lowest and highest at n = 2. At fixed n the objective is a convex
    function of m_of over a positive affine one, so an interior stationary
    point can only be a minimum (README "Known model limitations").
    """
    start = time.monotonic()
    agg = default_agg()
    opt = grid_search(grid_cells(agg, parse_range(1.0, 10.0, 0.1)))
    elapsed = time.monotonic() - start

    ee_row = ee_symmetric(2.0, np.arange(CFG.m + 1), agg, CFG.m, CFG.k,
                          CFG.b_s_hz, CFG.c_fso)
    m_low = int(np.argmin(ee_row))
    ok = abs(opt.n_star - 2.0) <= 0.25 and abs(opt.m_of_star - 48) <= 3
    report("A1 optimum reproduction", ok and elapsed < 10.0,
           f"grid argmax (n={opt.n_star:.2f}, m_of={opt.m_of_star}) vs target "
           f"(2, 48) +-(0.25, 3); beta_scalar={CFG.beta_scalar:.3e} "
           f"(policy={CFG.beta_policy}); ee={opt.ee_star:.4e} bits/J; "
           f"target ee={ee_row[48]:.4e} bits/J, "
           f"{1.0 - ee_row[48] / opt.ee_star:.2%} below the grid optimum; "
           f"at n=2 EE over m_of is lowest at m_of={m_low} "
           f"({ee_row[m_low]:.4e}) and highest at m_of="
           f"{int(np.argmax(ee_row))} ({ee_row.max():.4e}); "
           f"runtime {elapsed:.2f}s < 10s")


def test_a2_all_fso_threshold():
    """A2: for n >= 8 both the closed form and the grid put every link on FSO."""
    agg = default_agg()
    rows = []
    ok = True
    for n in (8.0, 8.5, 9.0, 10.0):
        closed = optimal_m_of_closed_form(n, agg).m_of_star
        _, mm, ee, _ = grid_cells(agg, np.array([n]))
        oracle = int(mm.ravel()[np.argmax(ee.ravel())])
        rows.append(f"n={n}: closed={closed} grid={oracle}")
        ok = ok and closed == 0 and oracle == 0
    report("A2 all-FSO threshold", ok, "; ".join(rows))


def test_a3_equal_capacity_degeneracy():
    """A3: at n = 1 the link-penalty difference cancels exactly and fiber count is 0."""
    agg = default_agg()
    inter = fiber_count_intermediates(1.0, agg)
    closed = optimal_m_of_closed_form(1.0, agg).m_of_star
    ok = inter.kappa2 == 0.0 and closed == 0
    report("A3 equal-capacity degeneracy", ok,
           f"kappa2={inter.kappa2!r} (exact zero required), m_of*={closed}")


def test_a4_closed_form_vs_monte_carlo():
    """A4: every SINR term matches its empirical estimate within 2%."""
    start = time.monotonic()
    m, k, trials = 20, 4, 100_000
    _, fading = draw_fading(replace(CFG, m=m, k=k), 314)
    sig = UplinkSignalParams.symmetric(CFG.rho_u_w, CFG.eta, NOISE_W, m, k)
    plan = FronthaulPlan.fso_first(m, 10, CFG.c_fso, 2.0)
    dist = per_ap_distortions(fading.beta, sig, plan)
    worst = 0.0
    worst_name = ""
    for user in range(k):
        closed = sinr_closed_form(fading.beta, sig, dist, user)
        emp = mc_validate_terms(fading.beta, sig, dist, user, trials, seed=user)
        pairs = [("ds_sq", emp.ds_sq, closed.ds_sq),
                 ("bu_var", emp.bu_var, closed.bu_var),
                 ("noise_var", emp.noise_var, closed.noise_var),
                 ("sinr", emp.sinr, closed.sinr)]
        pairs += [(f"i[{user},{j}]", emp.interference_var[j],
                   closed.interference_var[j]) for j in range(k) if j != user]
        for name, e, c in pairs:
            err = abs(e - c) / abs(c)
            if err > worst:
                worst, worst_name = err, f"user{user}.{name}"
    elapsed = time.monotonic() - start
    ok = worst < 0.02 and elapsed < 60.0
    report("A4 closed form vs Monte-Carlo",
           ok, f"max term error {worst:.3%} ({worst_name}) over {trials} "
               f"trials, tolerance 2%; runtime {elapsed:.1f}s < 60s")


def test_a5_symmetric_pipeline_consistency():
    """A5: the aggregate objective equals the full pipeline on symmetric gains."""
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(5, 120))
        k = int(rng.integers(2, 20))
        c = float(rng.uniform(1.0, 4.0))
        n = float(rng.uniform(1.0, 8.0))
        m_of = int(rng.integers(0, m + 1))
        beta = 10.0 ** rng.uniform(-13, -11)
        sig = UplinkSignalParams.symmetric(rng.uniform(0.01, 0.2),
                                           rng.uniform(0.1, 1.0),
                                           10.0 ** rng.uniform(-13, -12), m, k)
        pfh_of = rng.uniform(0.1, 0.3)
        pc = PowerCostParams(rng.uniform(0.05, 0.4), rng.uniform(0.2, 1.5),
                             pfh_of + rng.uniform(0.0, 0.2), pfh_of,
                             rng.uniform(0.0005, 0.005),
                             rng.uniform(0.005, 0.08),
                             rng.uniform(5e6, 50e6))
        plan = FronthaulPlan.fso_first(m, m_of, c, n)
        full = np.full((m, k), beta)
        dist = per_ap_distortions(full, sig, plan)
        rates = achievable_rates(full, sig, dist)
        ee_general = energy_efficiency(float(np.sum(rates)),
                                       network_power(sig, pc, plan),
                                       fronthaul_cost(plan, pc), pc.b_s)
        agg = aggregate_params(beta, sig, pc, m, k, c)
        ee_agg = ee_symmetric(n, m_of, agg, m, k, pc.b_s, c)
        worst = max(worst, abs(ee_general - ee_agg) / ee_agg)
    ok = worst <= 1e-10
    report("A5 symmetric pipeline consistency", ok,
           f"max relative difference {worst:.3e} over 100 random parameter "
           f"sets, tolerance 1e-10")


def test_a6_closed_forms_vs_grid_oracles():
    """A6: closed forms track the grid oracles on 100 randomized configs."""
    rng = np.random.default_rng(777)
    n_fine = 1.0 + 0.01 * np.arange(901)
    ok_m = 0
    ok_n = 0
    quad_n = 0
    paper_m = 0
    total = 100
    n_misses = []
    for _ in range(total):
        agg = neighborhood_setup(rng)
        n_fix = float(rng.uniform(1.0, 6.0))
        m_fix = int(rng.integers(1, agg.m + 1))

        closed_m = optimal_m_of_closed_form(n_fix, agg).m_of_star
        _, mm, ee, _ = grid_cells(agg, np.array([n_fix]))
        oracle_m = int(mm.ravel()[np.argmax(ee.ravel())])
        ok_m += abs(closed_m - oracle_m) <= 2
        m_cont = fiber_count_intermediates(n_fix, agg).m_cont
        if math.isfinite(m_cont):
            m_cont = min(max(m_cont, 0.0), agg.m)
            paper_m += any(abs(c - oracle_m) <= 2
                           for c in (math.floor(m_cont), math.ceil(m_cont)))

        step_n = optimal_n_closed_form(m_fix, agg).n_star
        _, _, ee_n, _ = grid_cells(agg, n_fine)
        oracle_n = float(n_fine[np.argmax(ee_n[:, m_fix])])
        if abs(step_n - oracle_n) <= 0.25:
            ok_n += 1
        else:
            n_misses.append(f"n-step {step_n:.2f} vs grid {oracle_n:.2f}")
        quad = capacity_coeff_quadratic(m_fix, agg).n_star
        quad_n += abs(quad - oracle_n) <= 0.25

    detail = (f"fiber-count endpoint step within +-2 of grid: {ok_m}/{total}; "
              f"capacity-coefficient n-step on the exact objective within "
              f"+-0.25 of fine grid: {ok_n}/{total}; required >= 95 each")
    if n_misses:
        detail += "; n-step misses e.g. " + "; ".join(n_misses[:3])
    detail += (f"; for information, the paper's log-linearized quadratic "
               f"lands within +-0.25 in {quad_n}/{total}, and the paper's "
               f"fiber-count stationary point (clamped to [0, m], floor or "
               f"ceil) within +-2 in {paper_m}/{total}")
    report("A6 closed form vs oracle robustness",
           ok_m >= 95 and ok_n >= 95, detail)


def test_a7_rate_distortion_identity():
    """A7: inverting the quantizer noise recovers the capacity exactly."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        s = 10.0 ** rng.uniform(-14, 2)
        cap = rng.uniform(0.05, 24.0)
        d = quantization_noise_var(s, cap)
        worst = max(worst, abs(np.log2(1.0 + s / d) - cap) / max(1.0, cap))
    ok = worst < 1e-12
    report("A7 rate-distortion identity", ok,
           f"max |log2(1 + power/distortion) - capacity| = {worst:.2e} "
           f"(relative), tolerance 1e-12 over 1000 pairs")


def _cdf_dominance_for_seed(seed, drops=200):
    spec = ExperimentSpec(CFG, drops=drops, seed=seed, output_path="/dev/null")
    res = run_rate_cdf(spec)
    ref = res[(2.0, 48)][0]
    fails = [f"({n:g},{m_of})" for (n, m_of), (sums, _) in res.items()
             if (n, m_of) != (2.0, 48) and not np.all(ref >= sums)]
    return fails


def test_a8a_cdf_dominance():
    """A8a: the (2, 48) sum-rate CDF first-order dominates the other splits."""
    lines = []
    ok = True
    for seed in (0, 1, 2):
        fails = _cdf_dominance_for_seed(seed)
        ok = ok and not fails
        lines.append(f"seed {seed}: " + ("dominates all"
                     if not fails else "crossed by " + ",".join(fails)))
    report("A8a sum-rate CDF dominance at 200 drops", ok, "; ".join(lines))


def test_a8b_tradeoff_ordering():
    """A8b: at matched sum-rate, EE strictly decreases with the coefficient n."""
    spec = ExperimentSpec(CFG, seed=0, output_path="/dev/null")
    curves = run_ee_vs_sumrate(spec)
    splits = list(curves)
    lo = max(pts[:, 1].min() for pts in curves.values())
    hi = min(pts[:, 1].max() for pts in curves.values())
    targets = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 5)
    ok = True
    worst = ""
    for s_target in targets:
        ees = [float(np.interp(s_target, pts[:, 1], pts[:, 2]))
               for pts in (curves[c] for c in splits)]
        if not all(a > b for a, b in itertools.pairwise(ees)):
            ok = False
            order = ", ".join(f"n={n:g}: {e:.4e}"
                              for (n, _), e in zip(splits, ees))
            worst = f"at sum-rate {s_target:.2f}: {order}"
    report("A8b EE ordering at matched sum-rate", ok,
           worst or "EE strictly decreasing in n at all matched sum-rates")


def test_a8c_cost_sensitivity():
    """A8c: cheaper fiber shifts the optimum toward strictly more fiber."""
    spec = ExperimentSpec(CFG, seed=0, output_path="/dev/null")
    optima = run_ee_surface(spec)
    cheap = optima[(0.01, 0.001)].m_of_star
    premium = optima[(0.05, 0.003)].m_of_star
    report("A8c cost sensitivity", cheap > premium,
           f"m_of* cheap-fiber set = {cheap} vs premium set = {premium} "
           f"(strictly larger required)")


def test_a9_cli_byte_identical_outputs(tmp_path):
    """A9: repeated CLI runs with one seed write byte-identical CSV files."""
    cfgfile = tmp_path / "small.cfg"
    cfgfile.write_text("m = 40\nk = 5\n")
    outs = []
    for tag in ("one", "two"):
        outdir = tmp_path / tag
        for cmd in (["grid", "--n", "1:6:0.2"], ["surface"],
                    ["cdf", "--drops", "25"], ["tradeoff"]):
            rc = main(cmd + ["--config", str(cfgfile), "--seed", "11",
                             "--out", str(outdir)])
            assert rc == 0
        outs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    same = outs[0].keys() == outs[1].keys() and all(
        outs[0][name] == outs[1][name] for name in outs[0])
    report("A9 deterministic CLI outputs", same,
           f"{sorted(outs[0])} byte-identical across repeated runs")
