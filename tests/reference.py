"""Reference parameters and the general-gain oracle shared by the tests.

The reference parameter set lives in SystemConfig alone: CFG holds its
defaults, and the drop model (channel.DropBlocks, path_loss_db) reads a
SystemConfig directly. NOISE_W and POWER_COST are derived from CFG.

distances and kernel_drops are the drop-gain kernel in plain broadcast
form, which the kernel must match bit for bit.

network_power, fronthaul_cost and energy_efficiency score a plan with any
per-AP link mix. No command reaches them: the tests keep them as an oracle
independent of the symmetric objective energy.symmetric_terms.

argmax_n_step and loop_m_of_step are the optimizer's two steps as they
were before each step returned the PlanOptimum grid_search picks: the
n-step by np.argmax over the n grid of grid, and the fiber-count step by a
strict comparison of the endpoints 0 and m alone.

combining_trial_terms is the Monte-Carlo check's trial written out in full:
complex fading and noise, combined with maximum-ratio weights. The check
itself draws each trial's terms in law from exponentials; this is the law
it must keep.
"""

import numpy as np

from fronthaul_planner.channel import db_to_linear, path_loss_db
from fronthaul_planner.config import SystemConfig, power_cost_params
from fronthaul_planner.energy import GBPS_PER_BPS, symmetric_terms
from fronthaul_planner.optimizer import N_MAX, N_MIN, N_STEP, parse_range
from fronthaul_planner.seeds import derive_rng

CFG = SystemConfig()
NOISE_W = CFG.noise_power_w
POWER_COST = power_cost_params(CFG)


def distances(ap, ue):
    """AP-to-UE distances (..., M, K) of positions (..., M, 2) and (..., K, 2),
    sqrt(dx^2 + dy^2) with the operations of the drop-gain kernel."""
    dx = ap[..., :, None, 0] - ue[..., None, :, 0]
    dy = ap[..., :, None, 1] - ue[..., None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def kernel_drops(config, seed, start, stop):
    """Positions and gains of drops start to stop - 1 of a seed, each
    AP-by-UE step (the differences and the shadowing sum) one ufunc of two
    broadcast operands. Drop i reads 2m + 2k uniforms scaled by area_m, then
    m + k normals, from derive_rng(seed, "drop", i)."""
    m, k, sigma = config.m, config.k, config.sigma_sh_db
    ap, ue, z = [], [], []
    for i in range(start, stop):
        rng = derive_rng(seed, "drop", i)
        xy = rng.random(2 * (m + k)) * config.area_m
        ap.append(xy[:2 * m].reshape(m, 2))
        ue.append(xy[2 * m:].reshape(k, 2))
        z.append(rng.standard_normal(m + k))
    ap, ue, z = np.array(ap), np.array(ue), np.array(z)
    shadow = (sigma * np.sqrt(config.theta) * z[:, :m, None]
              + sigma * np.sqrt(1.0 - config.theta) * z[:, None, m:])
    return (ap, ue), db_to_linear(path_loss_db(distances(ap, ue), config) + shadow)


def network_power(sig, pc, plan):
    """Total consumed power in Watt.

    Sums user transmit power, per-AP circuit power, traffic-dependent
    fronthaul power (bandwidth * capacity, converted to Gbps) and the
    constant fronthaul power.
    """
    if plan.m != sig.m:
        raise ValueError("plan does not cover all APs")
    ue = sig.rho_u * float(np.sum(sig.eta))
    circuit = plan.m * pc.p_circuit
    p_fh = np.where(plan.is_fiber, pc.p_fh_of, pc.p_fh_fso)
    traffic = float(np.sum(pc.b_s * plan.capacities() * GBPS_PER_BPS * p_fh))
    constant = plan.m * pc.p0
    return ue + circuit + traffic + constant


def fronthaul_cost(plan, pc):
    """Deployment-cost penalty: capacity times per-type cost coefficient."""
    mu = np.where(plan.is_fiber, pc.mu_of, pc.mu_fso)
    return float(np.sum(plan.capacities() * mu))


def energy_efficiency(sum_rate, p_net, omega, b_s):
    """Energy efficiency in bits per Joule of a sum rate in bits/s/Hz."""
    den = p_net + omega
    if den <= 0:
        raise ValueError("power plus cost must be positive")
    return b_s * sum_rate / den


def argmax_n_step(m_of, agg):
    """Best fiber capacity coefficient at a fixed m_of >= 1."""
    ns = parse_range(N_MIN, N_MAX, N_STEP)
    return float(ns[np.argmax(symmetric_terms(ns, m_of, agg)[0])])


def loop_m_of_step(n, agg):
    """Best fiber count at fixed n between the endpoints 0 and m, by a
    strict comparison; a tie goes to 0."""
    ee_0, ee_m = (symmetric_terms(float(n), c, agg)[0] for c in (0, agg.m))
    return int(agg.m) if ee_m > ee_0 else 0


def combining_trial_terms(beta, sig, D, k, parts):
    """Per-trial SINR terms of user k from complex maximum-ratio combining.

    parts holds standard normals (t, M, K + 1, 2): the real and imaginary
    parts of each link's fading g and, in column K, of each AP's receiver
    plus quantization noise w + q, of variance delta_sq + D. Rows
    (K + 3, t): a = amp_k sum_m |g_mk|^2, a^2, |amp_j cross_j|^2 for each
    user j, with cross_j = sum_m conj(g_mk) g_mj, and |v|^2, with
    v = sum_m conj(g_mk) (w + q)_m.
    """
    n_users = beta.shape[1]
    z = (parts[..., 0] + 1j * parts[..., 1]) / np.sqrt(2.0)
    g = np.sqrt(beta) * z[:, :, :n_users]
    wq = np.sqrt(sig.delta_sq + D) * z[:, :, n_users]
    amp = np.sqrt(sig.rho_u * sig.eta)
    g_k = g[:, :, k]
    a = amp[k] * np.sum(np.abs(g_k) ** 2, axis=1)
    cross = np.einsum("tmj,tm->tj", g, np.conj(g_k))
    v = np.sum(wq * np.conj(g_k), axis=1)
    return np.vstack((a, a ** 2, (np.abs(amp * cross) ** 2).T, np.abs(v) ** 2))
