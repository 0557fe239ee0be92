"""Scenario runners: EE surfaces, rate CDFs and rate/EE trade-off curves.

Every scenario is a pure function of its spec and seed; re-running writes
byte-identical CSV files. Output files start with a provenance comment
carrying the scenario tag, the seed and a hash of the effective config.
"""

from dataclasses import dataclass

import numpy as np

from .config import (SystemConfig, draw_fading, power_cost_params,
                     signal_params, symmetric_beta)
from .energy import aggregate_params, symmetric_terms
from .fronthaul import (FronthaulPlan, quantization_noise_var,
                        received_signal_power)
from .optimizer import grid_cells, grid_search, parse_range
from .rate import achievable_rates
from .seeds import derive_rng

SCENARIOS = ("ee_surface", "ee_vs_mof", "rate_cdf", "ee_vs_sumrate")

# Fiber/FSO cost scenarios compared by the surface study: cheap fiber,
# baseline, premium fiber.
SURFACE_COST_SETS = ((0.01, 0.001), (0.03, 0.003), (0.05, 0.003))

# Capacity-coefficient / fiber-count pairs compared by the CDF and
# trade-off studies, defined for a 100-AP network and scaled to others.
COMPARED_SPLITS = ((2.0, 48), (3.0, 30), (4.0, 20), (7.0, 5), (8.0, 0))

# Transmit-power sweep of the trade-off study: rho_u * eta product in Watt.
SWEEP_RHO_ETA_W = (0.001, 0.1, 100)

# Capacity coefficients compared by the fiber-count study.
FIBER_COUNT_STUDY_NS = (1.0, 2.0, 3.0, 4.0, 7.0, 8.0)

_F = "%.9g"

# Rows formatted per block by write_table; formatting a whole table at once
# would hold the text of every row in memory.
BLOCK_ROWS = 1024

# Gain entries (drops x M x K) per block of drops in run_rate_cdf; a block
# holds at least one drop. Sized for memory: a block's stacks and their
# temporaries take about 60 bytes per gain entry, about 1 MB here, while
# blocks of 2**16 entries and more raised peak memory by 10% or more at
# M=100, K=10 without running faster.
BLOCK_GAINS = 2 ** 14


def compared_splits_for(m):
    """COMPARED_SPLITS with fiber counts rescaled to an m-AP network."""
    return tuple((n, round(m_of * m / 100)) for n, m_of in COMPARED_SPLITS)


@dataclass(frozen=True)
class ExperimentSpec:
    """One scenario run: which study, under which config, where to write."""

    scenario: str
    config: SystemConfig
    drops: int = 200
    seed: int = 0
    output_path: str = "out.csv"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario '{self.scenario}'")
        if self.drops < 1:
            raise ValueError("drops must be at least 1")


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Empirical distribution: sorted sample values and cumulative steps."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)
        if v.size == 0:
            raise ValueError("need at least one sample")
        if v.shape != p.shape or np.any(np.diff(v) < 0):
            raise ValueError("values must be sorted and aligned with probs")
        if np.any(np.diff(p) <= 0) or p[-1] != 1.0 or p[0] <= 0:
            raise ValueError("probs must increase to exactly 1")

    @classmethod
    def from_samples(cls, samples):
        v = np.sort(np.asarray(samples, dtype=float))
        if v.size == 0:
            raise ValueError("need at least one sample")
        p = np.arange(1, v.size + 1) / v.size
        return cls(v, p)

    def dominates(self, other):
        """First-order dominance: every quantile at least as large."""
        if self.values.size != other.values.size:
            raise ValueError("dominance check needs equal sample counts")
        return bool(np.all(self.values >= other.values))


def stamp(scenario, seed, config):
    """First provenance line of an output table: scenario tag, seed, config hash."""
    return f"scenario={scenario} seed={seed} config_sha={config.sha()}"


def beta_line(beta, cfg):
    """Second provenance line of a symmetric study: gain and beta policy."""
    return f"beta_scalar={_F % beta} policy={cfg.beta_policy}"


def write_table(path, provenance, names, columns):
    """Write a CSV table: '# ' provenance lines, a header row, then the columns.

    columns are equal-length numpy arrays; integers print as integers,
    strings as they are and floats as %.9g.
    """
    row = ",".join(_F if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise OSError(f"cannot write experiment output '{path}': {exc}") from exc
    with fh:
        fh.writelines(f"# {line}\n" for line in provenance)
        fh.write(",".join(names) + "\n")
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            block = zip(*(c[start:start + BLOCK_ROWS].tolist() for c in columns))
            fh.write("".join(row % cells for cells in block))


def run_ee_surface(spec):
    """Objective surface over (n, m_of) for each fiber/FSO cost set.

    Returns {(mu_of, mu_fso): PlanOptimum} with the per-set argmax; the CSV
    holds one row per grid cell for all three sets.
    """
    cfg = spec.config
    beta = symmetric_beta(cfg, spec.seed)
    sig = signal_params(cfg)
    ns = parse_range(1.0, 10.0, 0.1)
    optima = {}
    parts = []
    for mu_of, mu_fso in SURFACE_COST_SETS:
        pc = power_cost_params(cfg, mu_of=mu_of, mu_fso=mu_fso)
        agg = aggregate_params(beta, sig, pc, cfg.m, cfg.k, cfg.c_fso)
        cells = grid_cells(agg, cfg.m, ns, cfg.k, cfg.b_s_hz, cfg.c_fso)
        optima[(mu_of, mu_fso)] = grid_search(cells)
        size = cells[0].size
        parts.append((np.full(size, mu_of), np.full(size, mu_fso),
                      *(c.ravel() for c in cells)))

    lines = [stamp(spec.scenario, spec.seed, cfg), beta_line(beta, cfg)]
    for (mu_of, mu_fso), opt in optima.items():
        lines.append(f"argmax mu_of={_F % mu_of} mu_fso={_F % mu_fso} "
                     f"n_star={_F % opt.n_star} m_of_star={opt.m_of_star} "
                     f"ee_star={_F % opt.ee_star}")
    write_table(spec.output_path, lines,
                ("mu_of", "mu_fso", "n", "m_of", "ee_bits_per_joule",
                 "sum_rate_bps_hz"),
                [np.concatenate(c) for c in zip(*parts)])
    return optima


def run_ee_vs_mof(spec):
    """Objective against fiber count, one curve per studied coefficient.

    Returns {n: (m_of array, ee array)} and writes one CSV row per point,
    with the per-curve argmax recorded in the header.
    """
    cfg = spec.config
    beta = symmetric_beta(cfg, spec.seed)
    agg = aggregate_params(beta, signal_params(cfg), power_cost_params(cfg),
                           cfg.m, cfg.k, cfg.c_fso)
    nn, mm, ee, _ = grid_cells(agg, cfg.m, np.array(FIBER_COUNT_STUDY_NS),
                               cfg.k, cfg.b_s_hz, cfg.c_fso)
    curves = {n: (mm[i], ee[i]) for i, n in enumerate(FIBER_COUNT_STUDY_NS)}

    lines = [stamp(spec.scenario, spec.seed, cfg), beta_line(beta, cfg)]
    for n, (mofs, ee_n) in curves.items():
        best = int(np.argmax(ee_n))
        lines.append(f"argmax n={_F % n} m_of_star={mofs[best]} "
                     f"ee_star={_F % ee_n[best]}")
    write_table(spec.output_path, lines, ("n", "m_of", "ee_bits_per_joule"),
                (nn.ravel(), mm.ravel(), ee.ravel()))
    return curves


def run_rate_cdf(spec):
    """Sum-rate and per-user-rate CDFs for the compared capacity splits.

    All splits are evaluated on the same random drops (common random
    numbers), one topology and shadowing realization per drop. Drop i draws
    from derive_rng(seed, "drop", i). Drops are evaluated in blocks of at
    most BLOCK_GAINS gain entries: one (B, M, K) gain stack per block, with
    all S splits at once as an (S, B, M) distortion stack and an (S, B, K)
    rate stack. The results do not depend on the block size.

    Returns {(n, m_of): (sum_rate_cdf, per_user_cdf)}.
    """
    cfg = spec.config
    sig = signal_params(cfg)
    splits = compared_splits_for(cfg.m)
    # split x 1 x M capacities, broadcast over the drops of a block
    caps = np.stack([FronthaulPlan.fso_first(cfg.m, m_of, cfg.c_fso,
                                             max(1.0, n)).capacities()
                     for n, m_of in splits])[:, None, :]
    per_block = max(1, BLOCK_GAINS // (cfg.m * cfg.k))
    sums, users = [], []
    for start in range(0, spec.drops, per_block):
        stop = min(start + per_block, spec.drops)
        _, fading = draw_fading(cfg, [derive_rng(spec.seed, "drop", i)
                                      for i in range(start, stop)])
        dist = quantization_noise_var(received_signal_power(fading.beta, sig),
                                      caps)
        rates = achievable_rates(fading.beta, sig, dist)
        sums.append(rates.sum_rate)
        users.append(rates.per_user_rate.reshape(len(splits), -1))
    sums = np.concatenate(sums, axis=1)
    users = np.concatenate(users, axis=1)

    result = {c: (EmpiricalCdf.from_samples(sums[j]),
                  EmpiricalCdf.from_samples(users[j]))
              for j, c in enumerate(splits)}

    keys, cdfs = [], []
    for (n, m_of), (cdf_s, cdf_u) in result.items():
        keys += [(n, m_of, "sum_rate"), (n, m_of, "per_user_rate")]
        cdfs += [cdf_s, cdf_u]
    sizes = [cdf.values.size for cdf in cdfs]
    ns, mofs, kinds = zip(*keys)
    # an object column repeats references to two strings, not copies
    write_table(spec.output_path,
                [stamp(spec.scenario, spec.seed, cfg),
                 f"drops={spec.drops} common random drops across splits"],
                ("n", "m_of", "kind", "value", "cum_prob"),
                (np.repeat(ns, sizes), np.repeat(mofs, sizes),
                 np.repeat(np.array(kinds, dtype=object), sizes),
                 np.concatenate([cdf.values for cdf in cdfs]),
                 np.concatenate([cdf.probs for cdf in cdfs])))
    return result


def run_ee_vs_sumrate(spec):
    """Energy efficiency against sum rate, traced by sweeping transmit power.

    The swept control is the rho_u * eta product over SWEEP_RHO_ETA_W,
    evaluated on the symmetric model for each compared split.

    Returns {(n, m_of): array of (rho_eta_w, sum_rate, ee) rows}.
    """
    cfg = spec.config
    beta = symmetric_beta(cfg, spec.seed)
    pc = power_cost_params(cfg)
    lo, hi, count = SWEEP_RHO_ETA_W
    # eta = product / rho_u must stay within [0, 1]
    hi = min(hi, cfg.rho_u_w)
    sweep = np.linspace(lo, hi, count)
    curves = {}
    for n, m_of in compared_splits_for(cfg.m):
        pts = []
        for p in sweep:
            sig = signal_params(cfg, eta=p / cfg.rho_u_w)
            agg = aggregate_params(beta, sig, pc, cfg.m, cfg.k, cfg.c_fso)
            sinr, power = symmetric_terms(max(1.0, n), m_of, agg, cfg.m,
                                          cfg.c_fso)
            rate = np.log2(1.0 + sinr)
            pts.append((p, cfg.k * rate, cfg.k * cfg.b_s_hz * rate / power))
        curves[(n, m_of)] = np.array(pts)

    ns, mofs = zip(*curves)
    write_table(spec.output_path,
                [stamp(spec.scenario, spec.seed, cfg),
                 f"sweep rho_u*eta over [{_F % lo}, {_F % hi}] W, {count} points",
                 beta_line(beta, cfg)],
                ("n", "m_of", "rho_eta_w", "sum_rate_bps_hz", "ee_bits_per_joule"),
                (np.repeat(ns, count), np.repeat(mofs, count),
                 *np.concatenate(list(curves.values())).T))
    return curves
