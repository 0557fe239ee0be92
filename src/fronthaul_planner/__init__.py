"""Planner for fiber/FSO fronthaul splits in distributed MIMO uplink.

Evaluates closed-form uplink rates under capacity-limited fronthaul
quantization, scores network energy efficiency including deployment cost,
and finds the best fiber capacity coefficient and fiber/FSO split by
closed forms cross-validated against grid search and Monte-Carlo
simulation.
"""

from .channel import (LargeScaleFading, PathLossModel, ShadowingModel,
                      path_loss_db)
from .config import SystemConfig, load_config, symmetric_beta
from .energy import (AggregateParams, PowerCostParams, aggregate_params,
                     ee_symmetric)
from .experiments import (ExperimentSpec, run_ee_surface, run_ee_vs_sumrate,
                          run_rate_cdf)
from .fronthaul import (FronthaulPlan, UplinkSignalParams, per_ap_distortions,
                        quantization_noise_var, received_signal_power)
from .optimizer import (PlanOptimum, grid_search, optimal_m_of_closed_form,
                        optimal_n_closed_form)
from .rate import (SinrBreakdown, achievable_rates, mc_validate_terms,
                   rate_from_sinr, sinr_closed_form)

__version__ = "0.1.0"

__all__ = [
    "AggregateParams", "ExperimentSpec", "FronthaulPlan", "LargeScaleFading",
    "PathLossModel", "PlanOptimum", "PowerCostParams", "ShadowingModel",
    "SinrBreakdown", "SystemConfig", "UplinkSignalParams",
    "achievable_rates", "aggregate_params", "ee_symmetric", "grid_search",
    "load_config", "mc_validate_terms", "optimal_m_of_closed_form",
    "optimal_n_closed_form", "path_loss_db", "per_ap_distortions",
    "quantization_noise_var", "rate_from_sinr", "received_signal_power",
    "run_ee_surface", "run_ee_vs_sumrate", "run_rate_cdf", "sinr_closed_form",
    "symmetric_beta",
]
