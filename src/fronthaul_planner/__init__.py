"""Planner for fiber/FSO fronthaul splits in distributed MIMO uplink.

Evaluates closed-form uplink rates under capacity-limited fronthaul
quantization, scores network energy efficiency including deployment cost,
and finds the best fiber capacity coefficient and fiber/FSO split by
closed forms cross-validated against grid search and Monte-Carlo
simulation.
"""

from .channel import (LargeScaleFading, NetworkTopology, PathLossModel,
                      ShadowingModel, generate_topology, large_scale_fading,
                      path_loss_db)
from .config import SystemConfig, load_config, symmetric_beta
from .energy import (AggregateParams, PowerCostParams, aggregate_params,
                     ee_symmetric, energy_efficiency, fronthaul_cost,
                     network_power)
from .experiments import (EmpiricalCdf, ExperimentSpec, run_ee_surface,
                          run_ee_vs_mof, run_ee_vs_sumrate, run_rate_cdf)
from .fronthaul import (FronthaulPlan, UplinkSignalParams, per_ap_distortions,
                        quantization_noise_var, received_signal_power)
from .optimizer import (PlanOptimum, alternating_optimize, grid_search,
                        optimal_m_of_closed_form, optimal_n_closed_form)
from .rate import (RateResult, SinrBreakdown, achievable_rates,
                   mc_validate_terms, rate_from_sinr, sinr_closed_form)

__version__ = "0.1.0"

__all__ = [
    "AggregateParams", "EmpiricalCdf", "ExperimentSpec", "FronthaulPlan",
    "LargeScaleFading", "NetworkTopology", "PathLossModel", "PlanOptimum",
    "PowerCostParams", "RateResult", "ShadowingModel", "SinrBreakdown",
    "SystemConfig", "UplinkSignalParams", "achievable_rates",
    "aggregate_params", "alternating_optimize", "ee_symmetric",
    "energy_efficiency", "fronthaul_cost", "generate_topology", "grid_search",
    "large_scale_fading", "load_config", "mc_validate_terms", "network_power",
    "optimal_m_of_closed_form", "optimal_n_closed_form", "path_loss_db",
    "per_ap_distortions", "quantization_noise_var", "rate_from_sinr",
    "received_signal_power", "run_ee_surface", "run_ee_vs_mof",
    "run_ee_vs_sumrate", "run_rate_cdf", "sinr_closed_form", "symmetric_beta",
]
