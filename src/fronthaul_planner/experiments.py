"""Scenario runners: EE surfaces, rate CDFs and rate/EE trade-off curves.

Every scenario is a pure function of its spec and seed; re-running writes
byte-identical CSV files. Output files start with a provenance comment
carrying the scenario tag, the seed and a hash of the effective config.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import (SystemConfig, fading_blocks, power_cost_params,
                     signal_params, symmetric_aggregates, symmetric_beta)
from .energy import symmetric_terms
from .fronthaul import (FronthaulPlan, quantization_noise_var,
                        received_signal_power)
from .optimizer import best_of, grid_cells, grid_search, parse_range
from .rate import achievable_rates

# Fiber/FSO cost scenarios compared by the surface study: cheap fiber,
# baseline, premium fiber.
SURFACE_COST_SETS = ((0.01, 0.001), (0.03, 0.003), (0.05, 0.003))
# Capacity-coefficient range (lo, hi, step) of the surface study.
SURFACE_N = (1.0, 10.0, 0.1)

# Capacity-coefficient / fiber-count pairs compared by the CDF and
# trade-off studies, defined for a 100-AP network and scaled to others.
COMPARED_SPLITS = ((2.0, 48), (3.0, 30), (4.0, 20), (7.0, 5), (8.0, 0))

# Transmit-power sweep of the trade-off study: rho_u * eta product in Watt.
SWEEP_RHO_ETA_W = (0.001, 0.1, 100)

_F = "%.9g"

# Rows rendered per piece by write_table. Four float columns peak at about
# 350 bytes per row (1.4 MB here, by tracemalloc, while the first piece makes
# the table's work memory), whatever the table's length.
BLOCK_ROWS = 4096

# Gain entries (drops x M x K) per block of drops in run_rate_cdf; a block
# holds at least one drop. Sized for memory: the run's two reused gain
# arrays take 16 bytes per gain entry and a block's other temporaries about
# 13 more, about 0.5 MB here, while blocks of 2**16 entries and more raised
# peak memory by 10% or more at M=100, K=10 without running faster.
BLOCK_GAINS = 2 ** 14


def compared_splits_for(m):
    """COMPARED_SPLITS with fiber counts rescaled to an m-AP network."""
    return tuple((n, round(m_of * m / 100)) for n, m_of in COMPARED_SPLITS)


@dataclass(frozen=True)
class ExperimentSpec:
    """One study run: under which config, with which seed, where to write."""

    config: SystemConfig
    drops: int = 200
    seed: int = 0
    output_path: str = "out.csv"

    def __post_init__(self):
        if self.drops < 1:
            raise ValueError("drops must be at least 1")


def stamp(scenario, seed, config):
    """First provenance line of an output table: scenario tag, seed, config hash."""
    return f"scenario={scenario} seed={seed} config_sha={config.sha()}"


def beta_line(beta, cfg):
    """Second provenance line of a symmetric study: gain and beta policy."""
    return f"beta_scalar={_F % beta} policy={cfg.beta_policy}"


def write_table(path, provenance, names, blocks):
    """Write a CSV table: '# ' provenance lines, a header row, then the rows.

    blocks is an iterable of column blocks, each a sequence of equal-length
    columns, one per name: numpy arrays, or coded pairs (values, index) of
    arrays whose cells are values[index], the text of values rendered once
    while later blocks pass the same (unchanged) values object. The rows
    are those of the blocks in turn, so a table can be streamed. A float
    prints as '%.9g' and any other value as '%s' of its Python scalar (what
    .tolist() gives), so the bytes are those of the plain row loop, in
    pieces of at most BLOCK_ROWS rows (_render_block). A block that fails
    to come or to render leaves no file behind.
    """
    head = "".join(f"# {line}\n" for line in provenance) + ",".join(names) + "\n"
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise OSError(f"cannot write experiment output '{path}': {exc}") from exc
    try:
        with fh:
            fh.write(head.encode())
            buffers = {}
            seps = [b","] * (len(names) - 1) + [b"\n"]
            for columns in blocks:
                if len(columns) != len(names):
                    raise ValueError(f"table block has {len(columns)} columns "
                                     f"for {len(names)} names")
                coded = [c if isinstance(c, tuple) else (None, c) for c in columns]
                rows = len(coded[0][1])
                texts = [_coded_text(buffers, j, names[j], *c, rows, seps[j])
                         for j, c in enumerate(coded)]
                for start in range(0, rows, BLOCK_ROWS):
                    block = [col[start:start + BLOCK_ROWS] for _, col in coded]
                    fh.write(_render_block(block, texts, seps, buffers))
    except BaseException:
        os.remove(path)
        raise


def _coded_text(buffers, j, name, values, index, rows, sep):
    """_cell_text of column j's values, rendered in pieces of BLOCK_ROWS (so
    with the temporaries of a piece) and kept as buffers[j] while blocks pass
    the same values object; None for a plain column (values None)."""
    if len(index) != rows:
        raise ValueError(f"table columns must have equal lengths: '{name}' has "
                         f"{len(index)} rows for {rows}")
    if values is None:
        return None
    if index.dtype.kind not in "iu" or index.size and not (
            0 <= index.min() and index.max() < len(values)):
        raise ValueError(f"coded column '{name}' needs indices in [0, {len(values)})")
    if buffers.get(j, (None,))[0] is not values:
        buffers.pop(j, None)  # the old text goes before the new comes
        starts = range(0, len(values), BLOCK_ROWS)
        pieces = [_cell_text(values[i:i + BLOCK_ROWS], sep, buffers) for i in starts]
        text = np.full((len(values), max((p.shape[1] for p in pieces), default=0)),
                       _PAD, np.uint8)
        for i, p in zip(starts, pieces):
            text[i:i + len(p), :p.shape[1]] = p
        buffers[j] = values, text
    return buffers[j][1]


def _work(buffers, name, shape, dtype):
    """An array over buffers[name], bytes that the pieces of one table share:
    the first piece makes them, later ones reuse (a leading part) or grow them."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if name not in buffers or buffers[name].size < size:
        # the old bytes go before the new come, so the two never coexist
        buffers.pop(name, None)
        buffers[name] = np.empty(size, np.uint8)
    return buffers[name][:size].view(dtype).reshape(shape)


def _render_block(block, texts, seps, buffers):
    """CSV bytes of a piece of rows: of each column, the cells of a plain one
    or the index of a coded one into its text in texts. Each column's cells
    become the rows of a byte matrix: text, separator, then padding bytes
    0xFF, which UTF-8 text never holds. The matrices side by side, with the
    padding dropped, are the piece's rows.
    """
    texts = [_cell_text(col, sep, buffers) if text is None else text.take(col, axis=0)
             for col, text, sep in zip(block, texts, seps)]
    # the rows, filled column by column in the gather index's memory, are
    # read in row order, and translate drops the padding in one pass
    width = sum(t.shape[1] for t in texts)
    rows = _work(buffers, "index", (width, len(texts[0])), np.uint8).T
    np.concatenate(texts, axis=1, out=rows)
    return rows.tobytes().translate(None, b"\xff")


def _cell_text(values, sep, buffers):
    """Rows of a byte matrix: each value's text, then sep, then _PAD bytes.

    Floats, and integers below 1e9 in magnitude (whose '%s' is their '%.9g'),
    go through _float_text, if more than _FEW_VALUES. Python formats what it
    leaves undecided and every other value, as the row loop does.
    """
    kind = values.dtype.kind
    if len(values) > _FEW_VALUES and kind in "iuf" and values.itemsize <= 8:
        x = values.astype(np.float64)
        text, ok = _float_text(x, sep, buffers)
        if kind != "f":
            ok &= np.abs(x) < 1e9
        rest = np.flatnonzero(~ok)
    else:
        text = np.empty((len(values), 0), np.uint8)
        rest = np.arange(len(values))
    if rest.size:
        fmt = _F if kind == "f" else "%s"
        cells = [(fmt % (v,)).encode() + sep for v in values[rest].tolist()]
        width = max(map(len, cells))
        if width > text.shape[1]:
            pad = np.full((len(text), width - text.shape[1]), _PAD, np.uint8)
            text = np.concatenate((text, pad), axis=1)
        text[rest] = np.frombuffer(b"".join(c.ljust(text.shape[1], b"\xff") for c in cells),
                                   np.uint8).reshape(len(cells), -1)
    return text


def _float_text(x, sep, buffers):
    """'%.9g' text of float64 values, followed by sep and _PAD bytes, where
    numpy can decide it.

    With e = floor(log10|x|), corrected by one where needed, the scaled
    s = |x| 10^(8 - e) lies in [1e8, 1e9) within about 1e-6, so rint(s) is
    the correctly rounded 9-digit mantissa unless s is within 1e-4 of a tie.
    The text is laid out from the digits by the class of its value (see
    _text_layouts). Returns the byte matrix and the mask of the values
    decided: not those near a tie, zero, non-finite or of magnitude outside
    (1e-280, 1e280). The rows of the others hold other text.
    """
    a = np.abs(x)
    ok = (a > 1e-280) & (a < 1e280)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * _POW10.take(_POW10_ZERO + 8 - e)
    off = (s >= 1e9).astype(np.intp) - (s < 1e8)
    if off.any():
        e += off
        s = a * _POW10.take(_POW10_ZERO + 8 - e)
    r = np.rint(s)
    ok &= (np.abs(s - r) < 0.4999) & (r >= 1e8) & (r <= 1e9)
    r[~ok] = 1e8
    carry = r == 1e9
    r[carry] = 1e8
    e += carry
    # three groups of three digits, and the trailing zeros of all nine
    lo = r.astype(np.intp)
    mid = lo // 1000
    hi = mid // 1000
    lo -= mid * 1000
    mid -= hi * 1000
    zeros = _ZEROS3.take(lo) + (lo == 0) * (
        _ZEROS3.take(mid) + (mid == 0) * _ZEROS3.take(hi))
    cls = _EXP_CLASS.take(e + _POW10_ZERO) - 2 * zeros + (x < 0)
    src = _work(buffers, "source", (len(x), 6), np.uint32)
    for word, group in enumerate((hi, mid, lo, np.abs(e))):
        src[:, word] = _DIGITS4.take(group)
    src[:, 4] = _SYMBOLS
    src[:, 5] = np.frombuffer(sep + b"\xff" * 3, np.uint32)[0]
    # byte b of word k of value i is source byte 24 * i + 4 * k + b; values of
    # the most common class take their text by column, the rest by index
    src = src.view(np.uint8)
    layout = _LAYOUT[:, :_LENGTH.take(cls).max() + 1]
    common = np.bincount(cls).argmax()
    text = src[:, layout[common]]
    rest = np.flatnonzero(cls != common)
    if rest.size:
        # indices are in range, and "clip" lets take write to out unbuffered
        idx = _work(buffers, "index", (len(rest), layout.shape[1]), np.intp)
        layout.take(cls[rest], axis=0, mode="clip", out=idx)
        idx += 24 * rest[:, None]
        text[rest] = src.ravel().take(idx, mode="clip")
    return text, ok


def _text_layouts():
    """Source byte of each character of each '%.9g' text class, and the text
    length of each class.

    Class (layout * 9 + digits - 1) * 2 + negative. Layouts 0-12 are fixed
    notation at decimal exponents -4..8; 13-16 exponent notation with an
    exponent of +XX, +XXX, -XX or -XXX. The six source words of a value in
    _float_text hold the nine mantissa digits in three groups of three, each
    followed by a '0', the exponent's three digits and a '0', '.e+-', then
    the separator and three _PAD bytes. Each layout row ends with the
    separator, then _PAD.
    """
    zero, dot, e, plus, minus, sep, pad = 3, 16, 17, 18, 19, 20, 21
    digit = [0, 1, 2, 4, 5, 6, 8, 9, 10]
    texts = []
    for layout in range(17):
        exp = layout - 4
        for digits in range(1, 10):
            if layout < 13 and exp < 0:
                text = [zero, dot] + [zero] * (-exp - 1) + digit[:digits]
            elif layout < 13:
                text = digit[:exp + 1]
                text += [dot] + digit[exp + 1:digits] if digits > exp + 1 else []
            else:
                text = digit[:1] + ([dot] + digit[1:digits] if digits > 1 else [])
                text += [e, minus if layout > 14 else plus]
                text += [12, 13, 14] if layout % 2 == 0 else [13, 14]
            texts += [text + [sep], [minus] + text + [sep]]
    layouts = np.full((len(texts), 17), pad)
    for row, text in zip(layouts, texts):
        row[:len(text)] = text
    return layouts, np.array([len(t) - 1 for t in texts])


_PAD = 0xFF
# Python formats this many values faster than _float_text's fixed cost
_FEW_VALUES = 64
_LAYOUT, _LENGTH = _text_layouts()
_GROUPS = np.arange(1000)
# '%03d0' of each three-digit group as one uint32, and its trailing zeros
_DIGITS4 = np.stack([_GROUPS // 100, _GROUPS // 10 % 10, _GROUPS % 10, 0 * _GROUPS],
                    axis=1).astype(np.uint8) + np.uint8(ord("0"))
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_ZEROS3 = sum((_GROUPS % p == 0).astype(np.intp) for p in (10, 100, 1000))
_SYMBOLS = np.frombuffer(b".e+-", np.uint32)[0]
_POW10_ZERO = 300
_EXPONENTS = np.arange(-_POW10_ZERO, _POW10_ZERO + 1)
_POW10 = np.power(10.0, _EXPONENTS)
# class of each decimal exponent at nine digits and positive sign
_EXP_CLASS = 18 * np.where((_EXPONENTS >= -4) & (_EXPONENTS <= 8), _EXPONENTS + 4,
                           13 + 2 * (_EXPONENTS < 0) + (abs(_EXPONENTS) >= 100)) + 16


def symmetric_setup(cfg, seed):
    """Gain scalar and aggregate objective parameters of a symmetric study."""
    beta = symmetric_beta(cfg, seed)
    return beta, symmetric_aggregates(cfg, beta, power_cost_params(cfg))


def grid_blocks(agg, n_range):
    """grid_cells over n_range in blocks of whole n rows, about BLOCK_ROWS
    cells each (one row at least), in n_range's order."""
    ns = np.asarray(n_range, dtype=float)
    rows = max(1, BLOCK_ROWS // (agg.m + 1))
    for start in range(0, len(ns), rows):
        yield grid_cells(agg, ns[start:start + rows])


def grid_columns(cells, mofs):
    """write_table columns (n, m_of, ee, sum rate) of a grid_cells block: n
    coded by row over the block's n values, m_of over mofs, arange(m + 1)."""
    nn, mm, *terms = cells
    return ((nn[:, 0], np.repeat(np.arange(len(nn)), mm.shape[1])),
            (mofs, mm.ravel()), *(t.ravel() for t in terms))


def run_ee_surface(spec):
    """Objective surface over (n, m_of) for each fiber/FSO cost set.

    Returns {(mu_of, mu_fso): PlanOptimum} with the per-set argmax; the CSV
    holds one row per grid cell for all three sets. The argmaxes head the
    CSV, so a first pass over the grid blocks finds them and a second one
    writes the rows; neither holds a whole grid.
    """
    cfg = spec.config
    beta = symmetric_beta(cfg, spec.seed)
    ns = parse_range(*SURFACE_N)
    aggs = {(mu_of, mu_fso): symmetric_aggregates(cfg, beta, power_cost_params(
        replace(cfg, mu_of=mu_of, mu_fso=mu_fso))) for mu_of, mu_fso in SURFACE_COST_SETS}
    optima = {costs: best_of([grid_search(cells) for cells in grid_blocks(agg, ns)])
              for costs, agg in aggs.items()}

    mu_ofs, mu_fsos = np.array(SURFACE_COST_SETS).T
    mofs = np.arange(cfg.m + 1)

    def columns():
        for costs, agg in enumerate(aggs.values()):
            for cells in grid_blocks(agg, ns):
                at = np.full(cells[0].size, costs)
                yield (mu_ofs, at), (mu_fsos, at), *grid_columns(cells, mofs)

    lines = [stamp("ee_surface", spec.seed, cfg), beta_line(beta, cfg)]
    for (mu_of, mu_fso), opt in optima.items():
        lines.append(f"argmax mu_of={_F % mu_of} mu_fso={_F % mu_fso} "
                     f"n_star={_F % opt.n_star} m_of_star={opt.m_of_star} "
                     f"ee_star={_F % opt.ee_star}")
    write_table(spec.output_path, lines,
                ("mu_of", "mu_fso", "n", "m_of", "ee_bits_per_joule", "sum_rate_bps_hz"),
                columns())
    return optima


def run_rate_cdf(spec):
    """Sum-rate and per-user-rate CDFs for the compared capacity splits.

    All splits are evaluated on the same random drops (common random
    numbers), one topology and shadowing realization per drop. Drop i draws
    from derive_rng(seed, "drop", i), i jumps of the seed's drop stream.
    Drops are evaluated in blocks of at most BLOCK_GAINS gain entries: one
    (B, M, K) gain stack per block, drawn into buffers that every block of
    the run reuses, with all S splits at once as an (S, B, M) distortion
    stack and an (S, B, K) rate stack. The results do not depend on the
    block size. The table codes n, m_of and kind by CDF, and the cumulative
    probability i / s of the i-th of s sorted values over (1..S) / S.

    Returns {(n, m_of): (sorted sum rates, sorted per-user rates)}.
    """
    cfg = spec.config
    sig = signal_params(cfg)
    splits = compared_splits_for(cfg.m)
    # split x 1 x M capacities, broadcast over the drops of a block
    caps = np.stack([FronthaulPlan.fso_first(cfg.m, m_of, cfg.c_fso, n).capacities()
                     for n, m_of in splits])[:, None, :]
    per_block = min(spec.drops, max(1, BLOCK_GAINS // (cfg.m * cfg.k)))
    draw_block = fading_blocks(cfg, per_block, spec.seed)
    sums, users = [], []
    for start in range(0, spec.drops, per_block):
        _, fading = draw_block(start, min(start + per_block, spec.drops))
        dist = quantization_noise_var(
            received_signal_power(fading.beta, sig), caps)
        rates = achievable_rates(fading.beta, sig, dist)
        sums.append(rates.sum(axis=-1))
        users.append(rates.reshape(len(splits), -1))
    sums = np.sort(np.concatenate(sums, axis=1))
    users = np.sort(np.concatenate(users, axis=1))
    result = {c: (sums[j], users[j]) for j, c in enumerate(splits)}

    cdfs = [v for pair in result.values() for v in pair]
    ns, mofs, kinds = (np.array(c) for c in zip(*(
        (n, m_of, kind) for n, m_of in splits for kind in ("sum_rate", "per_user_rate"))))
    cdf = np.repeat(np.arange(len(cdfs)), [v.size for v in cdfs])
    write_table(spec.output_path,
                [stamp("rate_cdf", spec.seed, cfg),
                 f"drops={spec.drops} common random drops across splits"],
                ("n", "m_of", "kind", "value", "cum_prob"),
                [((ns, cdf), (mofs, cdf), (kinds, cdf), np.concatenate(cdfs),
                  _cum_prob([v.size for v in cdfs]))])
    return result


def _cum_prob(sizes):
    """Coded i / s for each size s: (1..S) / S at i * (S / s) - 1, the same
    rational, so the same double; S is the largest size, which all divide."""
    top = max(sizes)
    return (np.arange(1, top + 1) / top,
            np.concatenate([np.arange(1, s + 1) * (top // s) - 1 for s in sizes]))


def run_ee_vs_sumrate(spec):
    """Energy efficiency against sum rate, traced by sweeping transmit power.

    The swept control is the rho_u * eta product over SWEEP_RHO_ETA_W,
    evaluated on the symmetric model in one call for every sweep point and
    compared split: the aggregate carries one eta per point.

    Returns {(n, m_of): array of (rho_eta_w, sum_rate, ee) rows}.
    """
    cfg = spec.config
    beta = symmetric_beta(cfg, spec.seed)
    pc = power_cost_params(cfg)
    lo, hi, count = SWEEP_RHO_ETA_W
    if cfg.rho_u_w <= lo:
        raise ValueError("config value 'rho_u_mw' must exceed "
                         f"{_F % (lo * 1e3)} mW for the power sweep")
    # eta = product / rho_u must stay within [0, 1]
    hi = min(hi, cfg.rho_u_w)
    sweep = np.linspace(lo, hi, count)
    splits = compared_splits_for(cfg.m)
    ns, mofs = (np.array(c) for c in zip(*splits))
    agg = symmetric_aggregates(cfg, beta, pc, eta=sweep[:, None] / cfg.rho_u_w)
    # (point, split) from the objective, (split, point) in the table
    ee, sum_rate = (t.T for t in symmetric_terms(ns, mofs, agg))
    curves = {c: np.column_stack((sweep, sum_rate[i], ee[i]))
              for i, c in enumerate(splits)}
    split = np.repeat(np.arange(len(splits)), count)

    write_table(spec.output_path,
                [stamp("ee_vs_sumrate", spec.seed, cfg),
                 f"sweep rho_u*eta over [{_F % lo}, {_F % hi}] W, {count} points",
                 beta_line(beta, cfg)],
                ("n", "m_of", "rho_eta_w", "sum_rate_bps_hz", "ee_bits_per_joule"),
                [((ns, split), (mofs, split), np.tile(sweep, len(splits)),
                  sum_rate.ravel(), ee.ravel())])
    return curves
