"""System configuration: defaults, file loading and derived objects.

Configs are flat key = value text files; every key has a default matching
the reference parameter set, so an empty file is a valid config. Noise
power is always derived from the thermal parameters (Boltzmann constant,
noise temperature, bandwidth, noise figure) and never entered directly.
"""

import hashlib
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import (DropBlocks, LargeScaleFading, db_to_linear, gains_in_range,
                      path_loss_db)
from .energy import PowerCostParams, aggregate_params
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
        # Every float field has a range below, and none admits NaN or inf.
        positive = ("f_mhz", "b_s_hz", "h_ap_m", "h_ue_m", "d0_m", "d1_m",
                    "rho_u_w", "c_fso", "k_boltzmann", "t0_kelvin", "area_m",
                    "beta_scalar")
        for name in positive:
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"config value '{name}' must be positive and finite")
        nonnegative = ("sigma_sh_db", "nf_db", "p_circuit_w", "p0_w",
                       "p_fh_fso_w_per_gbps", "p_fh_of_w_per_gbps",
                       "mu_fso", "mu_of")
        for name in nonnegative:
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"config value '{name}' must be nonnegative and finite")
        if 2.0 ** min(self.c_fso, 1.0) - 1.0 == 0.0:
            raise ValueError("config value 'c_fso' is too small: "
                             "2^c_fso - 1 rounds to 0")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("config value 'eta' must lie in [0, 1]")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("config value 'theta' must lie in [0, 1]")
        if self.mu_fso > self.mu_of:
            raise ValueError("config value 'mu_fso' must not exceed 'mu_of'")
        if self.p_fh_fso_w_per_gbps < self.p_fh_of_w_per_gbps:
            raise ValueError("config value 'p_fh_fso_w_per_gbps' must be at "
                             "least 'p_fh_of_w_per_gbps'")
        if self.d0_m >= self.d1_m:
            raise ValueError("config values 'd0_m' and 'd1_m' must satisfy d0_m < d1_m")
        if self.m < 1 or self.k < 1:
            raise ValueError("config values 'm' and 'k' must be at least 1")
        if self.beta_policy not in ("fixed", "geometric_mean"):
            raise ValueError("config value 'beta_policy' must be "
                             "'fixed' or 'geometric_mean'")
        try:
            noise = self.noise_power_w
        except OverflowError:
            noise = np.inf
        if not 0 < noise < np.inf:
            raise ValueError("config values 'k_boltzmann', 't0_kelvin', 'b_s_hz' "
                             "and 'nf_db' must give a positive, finite noise power")

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


# Config field -> (file key, num, den) of the fields whose file key is not
# their own name at scale 1. Keys carry the units people write (GHz, MHz,
# mWatt), fields the units the code computes with.
_RENAMED = {
    "f_mhz": ("f_ghz", 1000, 1),
    "b_s_hz": ("bandwidth_mhz", 10 ** 6, 1),
    "rho_u_w": ("rho_u_mw", 1, 1000),
    "p0_w": ("p_fronthaul_const_w", 1, 1),
    "k_boltzmann": ("boltzmann", 1, 1),
    "t0_kelvin": ("noise_temp_k", 1, 1),
    "nf_db": ("noise_figure_db", 1, 1),
}

# File key -> (config field, type, num, den): field = type(value) * num / den,
# in field order. Integer scales round both directions exactly once.
_KEYS = {key: (f.name, f.type, num, den) for f in fields(SystemConfig)
         for key, num, den in [_RENAMED.get(f.name, (f.name, 1, 1))]}


def _scaled(value, num, den):
    # unscaled values keep their type (int and str fields)
    return value if num == den else value * num / den


def load_config(path):
    """Parse a flat key = value config file; omitted keys take defaults.

    Unknown keys, unparsable values and out-of-range values (non-finite
    ones included) raise ValueError naming the offending key.
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
    """File-key view of a config, one 'key = value' line per key.

    The lines reload to the same config for a loaded config and the
    defaults. A field set in code in a scaled unit (f_mhz, b_s_hz, rho_u_w)
    may echo to a neighbouring float.
    """
    lines = []
    for key in sorted(_KEYS):
        field, _, num, den = _KEYS[key]
        lines.append(f"{key} = {_scaled(getattr(config, field), den, num)}")
    return lines


def signal_params(config):
    return UplinkSignalParams.symmetric(config.rho_u_w, config.eta,
                                        config.noise_power_w, config.m, config.k)


def power_cost_params(config):
    return PowerCostParams(config.p_circuit_w, config.p0_w,
                           config.p_fh_fso_w_per_gbps, config.p_fh_of_w_per_gbps,
                           config.mu_fso, config.mu_of, config.b_s_hz)


# Config fields that set a drop's path loss, the side of the area included
_LOSS_FIELDS = ("f_mhz", "h_ap_m", "h_ue_m", "d0_m", "d1_m", "area_m")


def _loss_in_range(config, **values):
    """True when config with these field values is valid, every link gain
    before shadowing, extreme at d0_m and at the area's diagonal (the loss
    falls with distance), lies in channel.SINR_GAINS, and distinct positions,
    area_m * 2^-53 apart at least, square to normal floats."""
    try:
        config = replace(config, **values)
    except ValueError:
        return False
    side = config.area_m
    with np.errstate(over="ignore"):
        far, near = db_to_linear(path_loss_db(np.array([side * np.sqrt(2.0),
                                                        config.d0_m]), config))
    return gains_in_range(far, near) and side * side * 2.0 ** -106 >= np.finfo(float).tiny


def _named(config, fields):
    """"'key' = value" of each of these config fields, in file-key order."""
    return ", ".join(f"'{key}' = {_scaled(getattr(config, f), den, num):g}"
                     for key, (f, _, num, den) in _KEYS.items() if f in fields)


def _loss_off_reference(config):
    ref = SystemConfig()
    return {f for f in _LOSS_FIELDS if getattr(config, f) != getattr(ref, f)}


def _drawn(config, draw, *args):
    """draw(*args) under this config.

    Gains outside channel.SINR_GAINS through the path loss are rejected
    naming each key whose reference value alone brings them back, or else
    every path-loss key off its reference value.
    """
    try:
        return draw(*args)
    except ValueError:
        if _loss_in_range(config):
            raise
    ref = SystemConfig()
    at_fault = ({f for f in _LOSS_FIELDS
                 if _loss_in_range(config, **{f: getattr(ref, f)})}
                or _loss_off_reference(config))
    raise ValueError(f"path loss at {_named(config, at_fault)} is out of scale: "
                     "link gains leave the float range")


def fading_blocks(config, size, seed):
    """Drawer of blocks of at most size drops of a seed under this config,
    stacked on a leading axis.

    draw(start, stop, sinr=True) gives drops start to stop - 1 of the
    seed's "drop" stream (channel.DropBlocks.draw). Every block is drawn
    into the same buffers: a block's arrays hold until the next is drawn.
    """
    blocks = DropBlocks(config, size, seed)
    return lambda *span: _drawn(config, blocks.draw, *span)


def draw_fading(config, seed, sinr=True):
    """Drop 0 of fading_blocks(config, 1, seed), in arrays of its own: drop 0
    of the seed's "drop" stream, and drop i for the Generator
    derive_rng(seed, "drop", i). Its gains lie in the range of
    channel.gains_in_range(..., sinr)."""
    (ap, ue), fading = fading_blocks(config, 1, seed)(0, 1, sinr)
    return (ap[0], ue[0]), LargeScaleFading(fading.beta[0], sinr)


def symmetric_beta(config, seed):
    """Gain scalar for the symmetric model under the configured policy.

    The geometric_mean policy takes exp(mean(ln beta)) of one seeded drop,
    matching the log-normal structure of the gain model. The drop's gains
    need only be positive and finite: the symmetric aggregates check the
    products of the one gain they take.
    """
    if config.beta_policy == "fixed":
        return config.beta_scalar
    _, fading = draw_fading(config, seed, sinr=False)
    return float(np.exp(np.mean(np.log(fading.beta))))


def symmetric_aggregates(config, beta, *, eta=None):
    """aggregate_params of this config's network and costs at gain beta.

    A drawn gain (beta_policy = geometric_mean) that the aggregates reject
    is named with its policy and the path-loss keys off their reference
    values, since the config sets no beta_scalar.
    """
    try:
        return aggregate_params(beta, signal_params(config), power_cost_params(config),
                                config.m, config.k, config.c_fso, eta=eta)
    except ValueError:
        if config.beta_policy == "fixed":
            raise
    keys = _named(config, _loss_off_reference(config))
    raise ValueError(f"drawn gain {beta:g} (beta_policy = {config.beta_policy})"
                     f"{' at path loss ' + keys if keys else ''} is out of "
                     "scale: the symmetric aggregates leave the float range")
