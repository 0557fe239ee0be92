"""System configuration: defaults, file loading and derived objects.

Configs are flat key = value text files; every key has a default matching
the reference parameter set, so an empty file is a valid config. Noise
power is always derived from the thermal parameters (Boltzmann constant,
noise temperature, bandwidth, noise figure) and never entered directly.
"""

import hashlib
import os
from dataclasses import dataclass, fields

import numpy as np

from .channel import (PathLossModel, ShadowingModel, generate_topology,
                      large_scale_fading)
from .energy import PowerCostParams
from .fronthaul import UplinkSignalParams


@dataclass(frozen=True)
class SystemConfig:
    """Radio, power, cost and deployment parameters (all linear units)."""

    f_mhz: float = 1900.0
    b_s_hz: float = 20e6
    h_ap_m: float = 15.0
    h_ue_m: float = 1.65
    d0_m: float = 10.0
    d1_m: float = 50.0
    sigma_sh_db: float = 8.0
    theta: float = 0.5
    rho_u_w: float = 0.1
    eta: float = 0.5
    c_fso: float = 2.0
    p_circuit_w: float = 0.2
    p0_w: float = 0.825
    p_fh_fso_w_per_gbps: float = 0.3
    p_fh_of_w_per_gbps: float = 0.25
    mu_fso: float = 0.003
    mu_of: float = 0.03
    k_boltzmann: float = 1.381e-23
    t0_kelvin: float = 290.0
    nf_db: float = 9.0
    m: int = 100
    k: int = 10
    area_m: float = 1000.0
    # Symmetric-model gain: a fixed documented scalar by default, or the
    # geometric mean of a seeded random drop ("geometric_mean" policy).
    beta_policy: str = "fixed"
    beta_scalar: float = 1.1e-12

    def __post_init__(self):
        positive = ("f_mhz", "b_s_hz", "h_ap_m", "h_ue_m", "d0_m", "d1_m",
                    "rho_u_w", "c_fso", "k_boltzmann", "t0_kelvin", "area_m",
                    "beta_scalar")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"config value '{name}' must be positive")
        nonnegative = ("sigma_sh_db", "nf_db", "p_circuit_w", "p0_w",
                       "p_fh_fso_w_per_gbps", "p_fh_of_w_per_gbps",
                       "mu_fso", "mu_of")
        for name in nonnegative:
            if getattr(self, name) < 0:
                raise ValueError(f"config value '{name}' must be nonnegative")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("config value 'eta' must lie in [0, 1]")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("config value 'theta' must lie in [0, 1]")
        if self.d0_m >= self.d1_m:
            raise ValueError("config requires d0_m < d1_m")
        if self.m < 1 or self.k < 1:
            raise ValueError("config values 'm' and 'k' must be at least 1")
        if self.beta_policy not in ("fixed", "geometric_mean"):
            raise ValueError("config value 'beta_policy' must be "
                             "'fixed' or 'geometric_mean'")

    @property
    def noise_power_w(self):
        """Receiver noise power k_B * T0 * B_s * NF (NF converted from dB)."""
        return (self.k_boltzmann * self.t0_kelvin * self.b_s_hz
                * 10.0 ** (self.nf_db / 10.0))

    def canonical_text(self):
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            lines.append(f"{f.name}={v!r}")
        return "\n".join(lines) + "\n"

    def sha(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


# File key -> (config field, type, num, den): field = type(value) * num / den.
# Keys carry the units people write (GHz, MHz, mWatt), fields the units the
# code computes with. Integer scales round both directions exactly once.
_KEYS = {
    "f_ghz": ("f_mhz", float, 1000, 1),
    "bandwidth_mhz": ("b_s_hz", float, 10 ** 6, 1),
    "h_ap_m": ("h_ap_m", float, 1, 1),
    "h_ue_m": ("h_ue_m", float, 1, 1),
    "d0_m": ("d0_m", float, 1, 1),
    "d1_m": ("d1_m", float, 1, 1),
    "sigma_sh_db": ("sigma_sh_db", float, 1, 1),
    "theta": ("theta", float, 1, 1),
    "rho_u_mw": ("rho_u_w", float, 1, 1000),
    "eta": ("eta", float, 1, 1),
    "c_fso": ("c_fso", float, 1, 1),
    "p_circuit_w": ("p_circuit_w", float, 1, 1),
    "p_fronthaul_const_w": ("p0_w", float, 1, 1),
    "p_fh_fso_w_per_gbps": ("p_fh_fso_w_per_gbps", float, 1, 1),
    "p_fh_of_w_per_gbps": ("p_fh_of_w_per_gbps", float, 1, 1),
    "mu_fso": ("mu_fso", float, 1, 1),
    "mu_of": ("mu_of", float, 1, 1),
    "boltzmann": ("k_boltzmann", float, 1, 1),
    "noise_temp_k": ("t0_kelvin", float, 1, 1),
    "noise_figure_db": ("nf_db", float, 1, 1),
    "m": ("m", int, 1, 1),
    "k": ("k", int, 1, 1),
    "area_m": ("area_m", float, 1, 1),
    "beta_policy": ("beta_policy", str, 1, 1),
    "beta_scalar": ("beta_scalar", float, 1, 1),
}


def _scaled(value, num, den):
    # unscaled values keep their type (int and str fields)
    return value if num == den else value * num / den


def load_config(path):
    """Parse a flat key = value config file; omitted keys take defaults.

    Unknown keys, unparsable values and out-of-range values raise
    ValueError naming the offending key.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"config file not found: {path}")
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
            field, typ, num, den = _KEYS[key]
            try:
                overrides[field] = _scaled(typ(value), num, den)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad value for key '{key}': {value!r}") from None
    try:
        return SystemConfig(**overrides)
    except ValueError as exc:
        # map field names back to file keys in the message
        msg = str(exc)
        for key, (field, *_) in _KEYS.items():
            msg = msg.replace(f"'{field}'", f"'{key}'")
        raise ValueError(msg) from None


def effective_config_lines(config):
    """File-key view of a config, one 'key = value' line per key."""
    lines = []
    for key in sorted(_KEYS):
        field, _, num, den = _KEYS[key]
        lines.append(f"{key} = {_scaled(getattr(config, field), den, num)}")
    return lines


def signal_params(config, eta=None):
    eta_val = config.eta if eta is None else eta
    return UplinkSignalParams.symmetric(config.rho_u_w, eta_val,
                                        config.noise_power_w, config.m, config.k)


def power_cost_params(config, mu_of=None, mu_fso=None):
    return PowerCostParams(config.p_circuit_w, config.p0_w,
                           config.p_fh_fso_w_per_gbps, config.p_fh_of_w_per_gbps,
                           config.mu_fso if mu_fso is None else mu_fso,
                           config.mu_of if mu_of is None else mu_of,
                           config.b_s_hz)


def draw_fading(config, seed):
    """Random drop of positions and link gains under this config.

    seed may be a list of seeds: the drops are then stacked on a leading
    axis, drop j the same as draw_fading(config, seed[j]).
    """
    topo = generate_topology(config.m, config.k, config.area_m, seed)
    pl = PathLossModel(config.f_mhz, config.h_ap_m, config.h_ue_m,
                       config.d0_m, config.d1_m)
    sh = ShadowingModel(config.sigma_sh_db, config.theta)
    return topo, large_scale_fading(topo, pl, sh, seed)


def symmetric_beta(config, seed):
    """Gain scalar for the symmetric model under the configured policy.

    The geometric_mean policy takes exp(mean(ln beta)) of one seeded drop,
    matching the log-normal structure of the gain model.
    """
    if config.beta_policy == "fixed":
        return config.beta_scalar
    _, fading = draw_fading(config, seed)
    return float(np.exp(np.mean(np.log(fading.beta))))
