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
import os
import sys

import numpy as np

from .config import (SystemConfig, draw_fading, effective_config_lines,
                     load_config, power_cost_params, signal_params,
                     symmetric_beta)
from .energy import aggregate_params
from .experiments import (ExperimentSpec, beta_line, run_ee_surface,
                          run_ee_vs_sumrate, run_rate_cdf, stamp, write_table)
from .fronthaul import FronthaulPlan, UplinkSignalParams, per_ap_distortions
from .optimizer import alternating_optimize, grid_cells, grid_search, parse_range
from .rate import mc_validate_terms, sinr_closed_form

OUTDIR_ENV = "FRONTHAUL_PLANNER_OUTDIR"
_F = "%.9g"


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
    if not (lo <= hi and step > 0):
        raise argparse.ArgumentTypeError(
            f"range must satisfy lo <= hi and step > 0, got {text!r}")
    return lo, hi, step


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _symmetric_setup(cfg, seed):
    beta = symmetric_beta(cfg, seed)
    agg = aggregate_params(beta, signal_params(cfg), power_cost_params(cfg),
                           cfg.m, cfg.k, cfg.c_fso)
    return beta, agg


def cmd_optimize(args):
    cfg = _load(args)
    _echo_config(cfg, args.seed)
    beta, agg = _symmetric_setup(cfg, args.seed)
    print(f"symmetric gain beta = {_F % beta} ({cfg.beta_policy})")
    opt = alternating_optimize(agg, cfg.m, init_n=2.0, init_m_of=cfg.m // 2,
                               max_iters=100, tol=1e-6,
                               k=cfg.k, b_s=cfg.b_s_hz, c_fso=cfg.c_fso)
    status = "converged" if opt.converged else "stopped at best seen"
    print(f"method = {opt.method} ({status})")
    print(f"n_star = {_F % opt.n_star}")
    print(f"m_of_star = {opt.m_of_star}")
    print(f"ee_star = {_F % opt.ee_star} bits/J")
    return 0


def cmd_grid(args):
    cfg = _load(args)
    _echo_config(cfg, args.seed)
    beta, agg = _symmetric_setup(cfg, args.seed)
    cells = grid_cells(agg, cfg.m, parse_range(*args.n), cfg.k, cfg.b_s_hz,
                       cfg.c_fso)
    opt = grid_search(cells)
    path = _outpath(args, "grid.csv")
    write_table(path, [stamp("grid", args.seed, cfg), beta_line(beta, cfg)],
                ("n", "m_of", "ee_bits_per_joule", "sum_rate_bps_hz"),
                [c.ravel() for c in cells])
    print(f"grid written to {path}")
    print(f"symmetric gain beta = {_F % beta} ({cfg.beta_policy})")
    print(f"n_star = {_F % opt.n_star}")
    print(f"m_of_star = {opt.m_of_star}")
    print(f"ee_star = {_F % opt.ee_star} bits/J")
    return 0


def _run_scenario(args, scenario, filename, runner, drops=1):
    cfg = _load(args)
    _echo_config(cfg, args.seed)
    path = _outpath(args, filename)
    spec = ExperimentSpec(scenario, cfg, drops, args.seed, path)
    runner(spec)
    print(f"{scenario} written to {path}")
    return 0


def cmd_surface(args):
    return _run_scenario(args, "ee_surface", "ee_surface.csv", run_ee_surface)


def cmd_cdf(args):
    return _run_scenario(args, "rate_cdf", "rate_cdf.csv", run_rate_cdf,
                         drops=args.drops)


def cmd_tradeoff(args):
    return _run_scenario(args, "ee_vs_sumrate", "ee_vs_sumrate.csv",
                         run_ee_vs_sumrate)


def cmd_validate(args):
    cfg = _load(args)
    _echo_config(cfg, args.seed)
    m, k = args.m, args.k
    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(99,)))
    _, fading = draw_fading(cfg, args.seed)
    beta = fading.beta[:m, :k]
    if beta.shape != (m, k):
        raise ValueError("validation size exceeds the configured network")
    sig = UplinkSignalParams.symmetric(cfg.rho_u_w, cfg.eta,
                                       cfg.noise_power_w, m, k)
    plan = FronthaulPlan.fso_first(m, m // 2, cfg.c_fso, 2.0)
    dist = per_ap_distortions(beta, sig, plan)
    user = int(rng.integers(0, k))
    closed = sinr_closed_form(beta, sig, dist, user)
    emp = mc_validate_terms(beta, sig, dist, user, args.trials, args.seed)

    def rel(a, b):
        return abs(a - b) / abs(b)

    errs = {
        "ds_sq": rel(emp.ds_sq, closed.ds_sq),
        "bu_var": rel(emp.bu_var, closed.bu_var),
        "noise_var": rel(emp.noise_var, closed.noise_var),
        "sinr": rel(emp.sinr, closed.sinr),
    }
    for j in range(k):
        if j != user:
            errs[f"interference_var[{j}]"] = rel(emp.interference_var[j],
                                                 closed.interference_var[j])
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fronthaul-planner",
        description="Plan fiber/FSO fronthaul splits for distributed MIMO uplink.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="config file path, or 'default' for built-in values")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUTDIR_ENV} or .)")

    p = sub.add_parser("optimize", help="closed-form + alternating optimum")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("grid", help="brute-force grid search oracle")
    common(p)
    p.add_argument("--n", type=_range, default=(1.0, 10.0, 0.1),
                   help="capacity coefficient range lo:hi:step")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("surface", help="EE surface over (n, m_of) per cost set")
    common(p)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("cdf", help="rate CDFs over random drops")
    common(p)
    p.add_argument("--drops", type=_positive_int, default=200)
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("tradeoff", help="EE versus sum-rate curves")
    common(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("validate", help="Monte-Carlo check of the closed-form SINR")
    common(p)
    p.add_argument("--trials", type=_positive_int, default=100000)
    p.add_argument("--m", type=_positive_int, default=20)
    p.add_argument("--k", type=_positive_int, default=4)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
