"""Reference model objects and the general-gain oracle shared by the tests.

The reference parameter set lives in SystemConfig alone; the model objects
here are built from it. network_power, fronthaul_cost and energy_efficiency
score a plan with any per-AP link mix. No command reaches them: the tests
keep them as an oracle independent of the symmetric objective
energy.symmetric_terms.
"""

import numpy as np

from fronthaul_planner.channel import PathLossModel, ShadowingModel
from fronthaul_planner.config import SystemConfig, power_cost_params
from fronthaul_planner.energy import GBPS_PER_BPS

CFG = SystemConfig()
NOISE_W = CFG.noise_power_w
PATH_LOSS = PathLossModel(CFG.f_mhz, CFG.h_ap_m, CFG.h_ue_m, CFG.d0_m, CFG.d1_m)
SHADOWING = ShadowingModel(CFG.sigma_sh_db, CFG.theta)
POWER_COST = power_cost_params(CFG)


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
