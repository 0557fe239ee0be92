"""Network geometry and channel gain generation.

Access points and users are dropped uniformly over a square area. The link
gain between an AP and a user combines a three-slope distance loss with
correlated log-normal shadowing; the fast fading component is i.i.d.
unit-variance complex Gaussian and is only drawn for Monte-Carlo checks.
"""

from dataclasses import dataclass

import numpy as np

from .seeds import derive_rng


@dataclass(frozen=True)
class PathLossModel:
    """Three-slope distance loss model.

    f_mhz is the access carrier frequency in MHz; heights are in meters.
    d0 and d1 are the slope breakpoints in meters: the loss is flat up to
    d0, falls with exponent 2 between d0 and d1, and with exponent 3.5
    beyond d1.
    """

    f_mhz: float = 1900.0
    h_ap: float = 15.0
    h_ue: float = 1.65
    d0: float = 10.0
    d1: float = 50.0

    def __post_init__(self):
        if self.f_mhz <= 0:
            raise ValueError("f_mhz must be positive")
        if self.h_ap <= 0 or self.h_ue <= 0:
            raise ValueError("antenna heights must be positive")
        if not 0 < self.d0 < self.d1:
            raise ValueError("breakpoints must satisfy 0 < d0 < d1")

    @property
    def fixed_loss_db(self):
        """Height- and frequency-dependent constant of the loss model (dB)."""
        lf = np.log10(self.f_mhz)
        return (46.3 + 33.9 * lf - 13.82 * np.log10(self.h_ap)
                - (1.1 * lf - 0.7) * self.h_ue + (1.56 * lf - 0.8))


@dataclass(frozen=True)
class ShadowingModel:
    """Correlated log-normal shadowing.

    sigma_sh_db is the shadowing standard deviation in dB. theta in [0, 1]
    splits the variance between an AP-side and a user-side component:
    theta = 0 makes shadowing per-user (equal at all APs), theta = 1 makes
    it per-AP (equal for all users).
    """

    sigma_sh_db: float = 8.0
    theta: float = 0.5

    def __post_init__(self):
        if self.sigma_sh_db < 0:
            raise ValueError("sigma_sh_db must be nonnegative")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """AP and user positions (meters) inside the square [0, area_side]^2."""

    ap_positions: np.ndarray
    ue_positions: np.ndarray
    area_side: float

    def __post_init__(self):
        ap = np.atleast_2d(np.asarray(self.ap_positions, dtype=float))
        ue = np.atleast_2d(np.asarray(self.ue_positions, dtype=float))
        object.__setattr__(self, "ap_positions", ap)
        object.__setattr__(self, "ue_positions", ue)
        if self.area_side <= 0:
            raise ValueError("area_side must be positive")
        if ap.shape[0] < 1 or ue.shape[0] < 1:
            raise ValueError("need at least one AP and one UE")
        if ap.shape[1] != 2 or ue.shape[1] != 2:
            raise ValueError("positions must be planar (x, y) points")
        for name, pos in (("ap", ap), ("ue", ue)):
            if np.any(pos < 0) or np.any(pos > self.area_side):
                raise ValueError(f"{name} positions fall outside the area")

    @property
    def m(self):
        return self.ap_positions.shape[0]

    @property
    def k(self):
        return self.ue_positions.shape[0]

    def distances(self):
        """M x K matrix of AP-to-UE distances in meters."""
        diff = self.ap_positions[:, None, :] - self.ue_positions[None, :, :]
        return np.linalg.norm(diff, axis=2)


@dataclass(frozen=True, eq=False)
class LargeScaleFading:
    """M x K matrix of linear-scale link gains."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "beta", beta)
        if not np.all(np.isfinite(beta)) or np.any(beta <= 0):
            raise ValueError("gains must be positive and finite")

    @property
    def m(self):
        return self.beta.shape[0]

    @property
    def k(self):
        return self.beta.shape[1]


def generate_topology(m, k, area_side, seed):
    """Drop m APs and k UEs i.i.d. uniform over the square [0, area_side]^2."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be at least 1")
    if area_side <= 0:
        raise ValueError("area_side must be positive")
    rng = derive_rng(seed, "topology")
    ap = rng.uniform(0.0, area_side, size=(int(m), 2))
    ue = rng.uniform(0.0, area_side, size=(int(k), 2))
    return NetworkTopology(ap, ue, float(area_side))


def path_loss_db(d, model):
    """Three-slope loss in dB (negative) at distance d meters.

    Vectorized over d. d = d1 belongs to the middle slope and d = d0 to the
    flat bottom branch.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    L = model.fixed_loss_db
    mid_const = 15.0 * np.log10(model.d1)
    far = -L - 35.0 * np.log10(d)
    mid = -L - mid_const - 20.0 * np.log10(d)
    flat = -L - mid_const - 20.0 * np.log10(model.d0)
    out = np.where(d > model.d1, far, np.where(d > model.d0, mid, flat))
    return out if out.ndim else float(out)


def large_scale_fading(topology, pl, sh, seed):
    """Link gains combining distance loss and correlated shadowing.

    The shadowing exponent for link (m, k) is sigma_sh * z_mk where
    z_mk = sqrt(theta) a_m + sqrt(1 - theta) b_k with independent standard
    normal a_m (per AP) and b_k (per UE). Deterministic given seed.
    """
    rng = derive_rng(seed, "shadowing")
    a = rng.standard_normal(topology.m)
    b = rng.standard_normal(topology.k)
    z = np.sqrt(sh.theta) * a[:, None] + np.sqrt(1.0 - sh.theta) * b[None, :]
    pl_db = path_loss_db(topology.distances(), pl)
    beta = 10.0 ** (pl_db / 10.0) * 10.0 ** (sh.sigma_sh_db * z / 10.0)
    return LargeScaleFading(beta)


def draw_small_scale(m, k, seed):
    """M x K i.i.d. circularly-symmetric complex Gaussian draws, unit variance."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be at least 1")
    rng = derive_rng(seed, "small_scale")
    parts = rng.standard_normal((int(m), int(k), 2))
    return (parts[..., 0] + 1j * parts[..., 1]) / np.sqrt(2.0)
