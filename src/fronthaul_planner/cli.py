"""Command-line interface.

Subcommands: optimize, grid, surface, cdf, tradeoff, validate. Human
readable summaries go to stdout, machine output goes to CSV files; the two
are never mixed. Every run starts by echoing the effective config so any
output can be reproduced from its log. Exit codes: 0 success, 1 runtime or
assertion failure, 2 usage error.

The default output directory is the FRONTHAUL_PLANNER_OUTDIR environment
variable, falling back to the working directory.
"""

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (SystemConfig, _named, draw_fading, effective_config_lines,
                     load_config, signal_params)
from .experiments import (_F, ExperimentSpec, beta_line, grid_blocks,
                          grid_columns, run_ee_surface, run_ee_vs_sumrate,
                          run_rate_cdf, stamp, symmetric_setup, write_table)
from .fronthaul import FronthaulPlan, per_ap_distortions
from .optimizer import (N_MAX, N_MIN, N_STEP, _range_count, best_of, grid_search,
                        optimal_m_of_closed_form, parse_range)
from .rate import mc_validate_terms, sinr_closed_form
from .seeds import derive_rng

OUTDIR_ENV = "FRONTHAUL_PLANNER_OUTDIR"


def _load(args):
    if args.config in (None, "default"):
        return SystemConfig()
    return load_config(args.config)


def _echo_config(cfg, seed):
    print("# effective config")
    for line in effective_config_lines(cfg):
        print(line)
    print(f"seed = {seed}")
    print(f"noise_power_w = {_F % cfg.noise_power_w}")
    print()


def _outpath(args, name):
    outdir = args.out or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _range(text):
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:step, got {text!r}") from None
    try:
        _range_count(lo, hi, step)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"{e}, got {text!r}") from None
    return lo, hi, step


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text):
    if not text.isdecimal() or int(text) >= 2 ** 64:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [0, 2^64), got {text!r}")
    return int(text)


def _print_optimum(opt):
    print(f"n_star = {_F % opt.n_star}")
    print(f"m_of_star = {opt.m_of_star}")
    print(f"ee_star = {_F % opt.ee_star} bits/J")


def cmd_optimize(args):
    cfg = _load(args)
    _echo_config(cfg, args.seed)
    beta, agg = symmetric_setup(cfg, args.seed)
    print(f"symmetric gain beta = {_F % beta} ({cfg.beta_policy})")
    # at fixed n the best fiber count is 0 or m, so these cells hold grid's optimum
    print(f"method = endpoints (m_of = 0 or {agg.m}, "
          f"n = {N_MIN:g}:{N_MAX:g}:{N_STEP:g})")
    _print_optimum(optimal_m_of_closed_form(parse_range(N_MIN, N_MAX, N_STEP), agg))
    return 0


def cmd_grid(args):
    cfg = _load(args)
    _echo_config(cfg, args.seed)
    beta, agg = symmetric_setup(cfg, args.seed)
    optima = []
    mofs = np.arange(agg.m + 1)

    def columns():
        # one pass: each block is written and its optimum kept
        for cells in grid_blocks(agg, parse_range(*args.n)):
            optima.append(grid_search(cells))
            yield grid_columns(cells, mofs)

    path = _outpath(args, "grid.csv")
    write_table(path, [stamp("grid", args.seed, cfg), beta_line(beta, cfg)],
                ("n", "m_of", "ee_bits_per_joule", "sum_rate_bps_hz"), columns())
    print(f"grid written to {path}")
    print(f"symmetric gain beta = {_F % beta} ({cfg.beta_policy})")
    _print_optimum(best_of(optima))
    return 0


def _run_scenario(args, scenario, runner, drops=1):
    cfg = _load(args)
    _echo_config(cfg, args.seed)
    path = _outpath(args, f"{scenario}.csv")
    runner(ExperimentSpec(cfg, drops, args.seed, path))
    print(f"{scenario} written to {path}")
    return 0


def cmd_surface(args):
    return _run_scenario(args, "ee_surface", run_ee_surface)


def cmd_cdf(args):
    return _run_scenario(args, "rate_cdf", run_rate_cdf, drops=args.drops)


def cmd_tradeoff(args):
    return _run_scenario(args, "ee_vs_sumrate", run_ee_vs_sumrate)


def _validate_terms(terms, k, user):
    """The SINR terms validate compares, by name, in the order it prints them."""
    named = {"ds_sq": terms.ds_sq, "bu_var": terms.bu_var,
             "noise_var": terms.noise_var, "sinr": terms.sinr}
    for j in range(k):
        if j != user:
            named[f"interference_var[{j}]"] = terms.interference_var[j]
    return named


def cmd_validate(args):
    cfg = _load(args)
    if cfg.eta == 0:
        raise ValueError("config value 'eta' must be positive for validate: "
                         "at eta = 0 every signal term it checks is 0")
    _echo_config(cfg, args.seed)
    m, k = args.m, args.k
    rng = derive_rng(args.seed, "validate_user")
    _, fading = draw_fading(cfg, args.seed)
    beta = fading.beta[:m, :k]
    if beta.shape != (m, k):
        raise ValueError("validation size exceeds the configured network")
    sig = signal_params(replace(cfg, m=m, k=k))
    plan = FronthaulPlan.fso_first(m, m // 2, cfg.c_fso, 2.0)
    dist = per_ap_distortions(beta, sig, plan)
    user = int(rng.integers(0, k))
    closed = sinr_closed_form(beta, sig, dist, user)
    exact = _validate_terms(closed, k, user)
    zero = next((name for name, v in exact.items() if v == 0), None)
    if zero is not None:
        # the config fields that scale the noise term, or the signal terms
        keys = (("k_boltzmann", "t0_kelvin", "b_s_hz", "nf_db") if zero == "noise_var"
                else ("rho_u_w", "eta"))
        raise ValueError(f"config values {_named(cfg, keys)} make the closed-form "
                         f"'{zero}' 0: validate's relative errors are undefined")
    emp = _validate_terms(mc_validate_terms(beta, sig, dist, user, args.trials,
                                            args.seed), k, user)
    errs = {name: abs(emp[name] - b) / b for name, b in exact.items()}
    worst = max(errs, key=errs.get)
    print(f"validated user {user} over {args.trials} trials (M={m}, K={k})")
    for name, e in errs.items():
        print(f"  {name}: relative error {e:.3%}")
    print(f"max relative term error: {errs[worst]:.3%} ({worst})")
    if errs[worst] >= 0.02:
        print("FAIL: relative error at or above 2%")
        return 1
    print("PASS: all terms within 2%")
    return 0


@functools.cache
def build_parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fronthaul-planner",
        description="Plan fiber/FSO fronthaul splits for distributed MIMO uplink.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="config file path, or 'default' for built-in values")
        p.add_argument("--seed", type=_seed, default=0,
                       help="master seed, an integer in [0, 2^64)")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUTDIR_ENV} or .)")

    p = sub.add_parser("optimize", help="optimum among the all-FSO and all-fiber cells")
    common(p)

    p = sub.add_parser("grid", help="brute-force grid search oracle")
    common(p)
    p.add_argument("--n", type=_range, default=(1.0, 10.0, 0.1),
                   help="capacity coefficient range lo:hi:step")

    p = sub.add_parser("surface", help="EE surface over (n, m_of) per cost set")
    common(p)

    p = sub.add_parser("cdf", help="rate CDFs over random drops")
    common(p)
    p.add_argument("--drops", type=_positive_int, default=200)

    p = sub.add_parser("tradeoff", help="EE versus sum-rate curves")
    common(p)

    p = sub.add_parser("validate", help="Monte-Carlo check of the closed-form SINR")
    common(p)
    p.add_argument("--trials", type=_positive_int, default=100000)
    p.add_argument("--m", type=_positive_int, default=20)
    p.add_argument("--k", type=_positive_int, default=4)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up by name on each run, not kept in the cached parser
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
