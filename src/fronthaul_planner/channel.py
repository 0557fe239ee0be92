"""Network geometry and channel gain generation.

Access points and users are dropped uniformly over a square area. The link
gain between an AP and a user combines a three-slope distance loss with
correlated log-normal shadowing, both from one kernel over a drop's raw
draws. Fast fading is drawn only by the Monte-Carlo check in rate.py.
Each function reads the model's parameters from a config.SystemConfig,
which checks them; this module imports nothing from config.
"""

from dataclasses import dataclass

import numpy as np

from .seeds import _jump, derive_rng


_LN10_OVER_10 = np.log(10.0) / 10.0

# Link gains an SINR can use: the product of two is a normal float, and a
# sum of 2^64 such products is finite, so its terms are finite and nonzero.
SINR_GAINS = (2.0 ** -511, 2.0 ** 479)


def db_to_linear(x, out=None):
    """10^(x / 10) of dB values x: one multiply and one exp per entry, in
    place when out is x. Every dB-to-linear gain conversion is this one."""
    return np.exp(np.multiply(x, _LN10_OVER_10, out=out), out=out)


def gains_in_range(lo, hi, sinr=True):
    """True when link gains from lo to hi lie in SINR_GAINS or, with sinr
    False, are positive and finite. NaN lies in neither range."""
    if sinr:
        return bool(SINR_GAINS[0] <= lo and hi <= SINR_GAINS[1])
    return bool(0 < lo and hi < np.inf)


@dataclass(frozen=True, eq=False)
class LargeScaleFading:
    """M x K matrix of linear-scale link gains (per drop, after batch axes).

    The gains lie in SINR_GAINS, or with sinr False are only positive and
    finite (a drop reduced to one gain checks that gain's own products).
    """

    beta: np.ndarray
    sinr: bool = True

    def __post_init__(self):
        beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "beta", beta)
        # two reductions, no boolean temporaries
        if not gains_in_range(beta.min(initial=np.inf), beta.max(initial=-np.inf),
                              self.sinr):
            raise ValueError("gains must be positive and finite"
                             + (", within [2^-511, 2^479]" if self.sinr else ""))


def fixed_loss_db(config):
    """Height- and frequency-dependent constant of the three-slope loss (dB),
    from config's carrier f_mhz (MHz) and antenna heights h_ap_m and h_ue_m
    (meters)."""
    lf = np.log10(config.f_mhz)
    return (46.3 + 33.9 * lf - 13.82 * np.log10(config.h_ap_m)
            - (1.1 * lf - 0.7) * config.h_ue_m + (1.56 * lf - 0.8))


def path_loss_db(d, config, out=None):
    """Three-slope loss in dB (negative) at distance d meters: config's
    fixed_loss_db, flat up to d0_m, with exponent 2 up to d1_m and 3.5 beyond.

    Vectorized over d, one log10 per entry. The loss is continuous and falls
    with d, so each branch is the smallest of the three where it applies.
    Given a float array out of d's shape, the loss is written there and d
    serves as scratch (a float array d is overwritten), so nothing of d's
    size is allocated.
    """
    d = np.asarray(d, dtype=float)
    # the smallest non-NaN distance, without a boolean temporary
    if np.fmin.reduce(d, axis=None, initial=np.inf) <= 0:
        raise ValueError("distance must be positive")
    L = fixed_loss_db(config)
    mid_const = L + 15.0 * np.log10(config.d1_m)
    flat = -mid_const - 20.0 * np.log10(config.d0_m)
    lg = np.log10(d, out=np.empty_like(d) if out is None else out)
    far = np.multiply(lg, -35.0, out=None if out is None else d)
    far -= L
    lg *= -20.0
    lg -= mid_const
    out = np.minimum(np.minimum(lg, far, out=lg), flat, out=lg)
    return out if out.ndim else float(out)


def _outer(op, col, row, out):
    """op(col, row, out=out), the same bits, as a copy of col and op in place
    with row: two broadcast operands took 4x a flat pass (95 us / 100k gains)."""
    np.copyto(out, col)
    return op(out, row, out=out)


def _drops(config, xy, z, gains, scratch, sinr):
    """Positions and gains of drops from their draws, any leading batch shape,
    under config's m, k, area_m, sigma_sh_db, theta and path loss.

    xy (..., 2m + 2k) holds uniforms on [0, 1), AP then UE coordinates, and
    is scaled in place (uniform(0, a) is a * random(), bit for bit), so
    every position lies in the square [0, area_m]^2. ap and ue are its
    (..., m, 2) and (..., k, 2) views. z holds m + k normals, a_m per AP
    then b_k per UE; link (m, k) is shadowed by
    sigma_sh_db * (sqrt(theta) a_m + sqrt(1 - theta) b_k). The gains are
    computed in gains (..., m, k), with scratch of the same shape, and every
    step writes into one of the two. They must lie in the range that
    gains_in_range(..., sinr) admits.
    """
    m, k, sigma = config.m, config.k, config.sigma_sh_db
    xy *= config.area_m
    ap = xy[..., :2 * m].reshape(xy.shape[:-1] + (m, 2))
    ue = xy[..., 2 * m:].reshape(xy.shape[:-1] + (k, 2))
    # Overflows (of distances in a huge area, too) end in gains that
    # LargeScaleFading rejects, without a numpy warning.
    with np.errstate(over="ignore"):
        # AP-to-UE distances sqrt(dx^2 + dy^2)
        d = _outer(np.subtract, ap[..., :, None, 0], ue[..., None, :, 0], scratch)
        d *= d
        dy = _outer(np.subtract, ap[..., :, None, 1], ue[..., None, :, 1], gains)
        d += np.square(dy, out=dy)
        # One exp per gain: shadowing is added to the loss in dB.
        x = path_loss_db(np.sqrt(d, out=d), config, out=gains)
        shadow = _outer(np.add, sigma * np.sqrt(config.theta) * z[..., :m, None],
                        sigma * np.sqrt(1.0 - config.theta) * z[..., None, m:],
                        scratch)
        x += shadow
        try:
            return (ap, ue), LargeScaleFading(db_to_linear(x, out=x), sinr)
        except ValueError:
            # the key is named when the shadowing factor alone leaves the range
            s = np.abs(shadow).max(initial=0.0)
            if gains_in_range(*db_to_linear(np.array([-s, s])), sinr):
                raise
    raise ValueError(f"shadowing 'sigma_sh_db' = {sigma:g} dB is too "
                     "large: link gains leave the float range")


class DropBlocks:
    """Blocks of up to size drops of a seed under config (_drops), each drawn
    into the same buffers.

    draw(start, stop) gives drops start to stop - 1 of the seed's "drop"
    stream (of a Generator seed, drop i is that Generator jumped i times),
    stacked on a leading axis, in views of buffers made once: one
    Generator, the block's uniforms and normals, its gains and one scratch
    array of their size. A shorter block uses the first rows. The next draw
    overwrites the arrays of the last, so a block's positions and gains hold
    only until then.
    """

    def __init__(self, config, size, seed):
        if size < 1:
            raise ValueError(f"drop block size {size} must be at least 1")
        m, k = config.m, config.k
        self._config = config
        self._rng = derive_rng(seed, "drop")
        self._state = self._rng.bit_generator.state
        self._xy = np.empty((size, 2 * (m + k)))
        self._z = np.empty((size, m + k))
        self._gains = np.empty((size, m, k))
        self._scratch = np.empty((size, m, k))

    def draw(self, start, stop, sinr=True):
        """Drops start to stop - 1, drop i from the one Generator jumped to
        index i, their gains in the range of gains_in_range(..., sinr)."""
        n = stop - start
        if start < 0 or not 0 <= n <= len(self._xy):
            raise ValueError(f"drop span {start}:{stop} must start at a non-negative "
                             f"index and hold 0 to {len(self._xy)} drops")
        xy, z = self._xy[:n], self._z[:n]
        for j in range(n):
            _jump(self._rng.bit_generator, self._state, start + j)
            self._rng.random(out=xy[j])
            self._rng.standard_normal(out=z[j])
        return _drops(self._config, xy, z, self._gains[:n], self._scratch[:n], sinr)
