"""Output checks of the benchmark workloads, run after the timed passes.

Each check returns (name, ok, detail). The checks read the CSV files and
stdout of the last pass and recompute sampled results through public
functions of fronthaul_planner other than the ones that produced them.
"""

import bisect
import csv
import math
import os
import re

from fronthaul_planner.config import (draw_fading, power_cost_params,
                                      signal_params, symmetric_beta)
from fronthaul_planner.energy import aggregate_params, ee_symmetric
from fronthaul_planner.experiments import compared_splits_for
from fronthaul_planner.fronthaul import FronthaulPlan, per_ap_distortions
from fronthaul_planner.rate import sinr_closed_form
from fronthaul_planner.seeds import derive_rng

# The package prints and writes floats with 9 significant digits.
PRINTED_DIGITS = 9
REL_TOL = 1e-9

# cmd_optimize starts the alternating loop from n = 2 and m_of = m // 2.
OPTIMIZE_INIT_N = 2.0


def read_csv(path):
    """Column header and data rows of a CSV with '#' provenance lines."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def _close_to_printed(printed, exact):
    """True when printed is exact written with PRINTED_DIGITS digits, up to REL_TOL."""
    if exact == 0.0:
        return printed == 0.0
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - PRINTED_DIGITS + 1)
    return abs(printed - exact) <= half_digit + REL_TOL * abs(exact)


def _sum_rate_closed(fading, sig, cfg, n, m_of):
    """Sum rate of one drop and split through the term-wise closed form."""
    plan = FronthaulPlan.fso_first(cfg.m, m_of, cfg.c_fso, max(1.0, n))
    dist = per_ap_distortions(fading.beta, sig, plan)
    return sum(sinr_closed_form(fading.beta, sig, dist, k).rate
               for k in range(cfg.k))


def check_cdf(path, cfg, seed, drops, sampled_drops):
    """CDF blocks sorted and ending at 1; sampled drops found in the CSV."""
    _, rows = read_csv(path)
    blocks = {}
    for n, m_of, kind, value, prob in rows:
        blocks.setdefault((float(n), int(m_of), kind), []).append(
            (float(value), float(prob)))
    results = []
    bad = []
    for key, block in blocks.items():
        values = [v for v, _ in block]
        probs = [p for _, p in block]
        size = drops if key[2] == "sum_rate" else drops * cfg.k
        if (len(block) != size or values != sorted(values) or probs[0] <= 0
                or probs[-1] != 1.0
                or any(b <= a for a, b in zip(probs, probs[1:]))):
            bad.append(key)
    splits = compared_splits_for(cfg.m)
    results.append(("cdf_blocks_sorted_to_one",
                    not bad and len(blocks) == 2 * len(splits),
                    f"{len(blocks)} blocks, bad: {bad}"))

    sig = signal_params(cfg)
    missing = []
    for i in sampled_drops:
        _, fading = draw_fading(cfg, derive_rng(seed, "drop", i))
        for n, m_of in splits:
            exact = _sum_rate_closed(fading, sig, cfg, n, m_of)
            values = [v for v, _ in blocks.get((float(n), m_of, "sum_rate"), [])]
            pos = bisect.bisect_left(values, exact)
            near = values[max(0, pos - 1):pos + 1]
            if not any(_close_to_printed(v, exact) for v in near):
                missing.append((i, n, m_of, exact))
    results.append(("cdf_sampled_drops_match_closed_form", not missing,
                    f"drops {list(sampled_drops)}, missing: {missing}"))
    return results


def _printed(stdout, key):
    match = re.search(rf"^{key} = (\S+)", stdout, re.MULTILINE)
    return match.group(1) if match else None


def check_studies(outdir, stdouts, cfg, seed):
    """Grid argmax equals the CSV maximum; optimize's EE is consistent."""
    results = []
    grid_out, optimize_out = stdouts["grid"], stdouts["optimize"]
    _, rows = read_csv(os.path.join(outdir, "grid.csv"))
    best = max(float(r[2]) for r in rows)
    best_cells = {(r[0], r[1]) for r in rows if float(r[2]) == best}
    printed = (_printed(grid_out, "n_star"), _printed(grid_out, "m_of_star"))
    ee_star = _printed(grid_out, "ee_star")
    ok = printed in best_cells and ee_star is not None and float(ee_star) == best
    results.append(("grid_argmax_is_csv_max", ok,
                    f"printed {printed} ee {ee_star}, csv max {best} at "
                    f"{sorted(best_cells)}"))

    beta = symmetric_beta(cfg, seed)
    agg = aggregate_params(beta, signal_params(cfg), power_cost_params(cfg),
                           cfg.m, cfg.k, cfg.c_fso)

    def ee(n, m_of):
        return ee_symmetric(n, m_of, agg, cfg.m, cfg.k, cfg.b_s_hz, cfg.c_fso)

    n_star = _printed(optimize_out, "n_star")
    m_of_star = _printed(optimize_out, "m_of_star")
    ee_star = _printed(optimize_out, "ee_star")
    if None in (n_star, m_of_star, ee_star):
        results.append(("optimize_ee_consistent", False, "summary not printed"))
        return results
    recomputed = ee(float(n_star), int(m_of_star))
    initial = ee(OPTIMIZE_INIT_N, cfg.m // 2)
    # n_star is printed with 9 digits; EE is stationary there, so the
    # recomputed value still agrees to the printed precision.
    consistent = _close_to_printed(float(ee_star), recomputed)
    no_worse = recomputed >= initial
    results.append(("optimize_ee_consistent", consistent and no_worse,
                    f"printed {ee_star}, recomputed {recomputed!r}, "
                    f"initial {initial!r}"))
    return results


def check_validate(stdout, code):
    """The CLI's own 2% gate: exit code 0 and a PASS line."""
    ok = code == 0 and "PASS: all terms within 2%" in stdout
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    return [("validate_gate_passes", ok, f"exit {code}: {last}")]
