"""Scenario runners: EE surfaces, rate CDFs and rate/EE trade-off curves.

Every scenario is a pure function of its spec and seed; re-running writes
byte-identical CSV files. Output files start with a provenance comment
carrying the scenario tag, the seed and a hash of the effective config.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import (SystemConfig, fading_blocks, signal_params,
                     symmetric_aggregates, symmetric_beta)
from .energy import symmetric_terms
from .fronthaul import FronthaulPlan, quantizer, received_signal_power
from .optimizer import grid_cells, optimal_m_of_closed_form, parse_range
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

# Rows rendered per piece by write_table. Four float columns of mixed
# exponents peak at about 610 bytes per row (2.5 MB here, by tracemalloc,
# while the first piece makes the table's work memory), whatever the
# table's length.
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
    """_cell_texts of column j's values, rendered in pieces of BLOCK_ROWS (so
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
        pieces = [_cell_texts([values[i:i + BLOCK_ROWS]], [sep], buffers)[0]
                  for i in starts]
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
    padding dropped, are the piece's rows. The plain columns are rendered
    together (_cell_texts), so their numbers take one _float_text call.
    """
    plain = [j for j, text in enumerate(texts) if text is None]
    made = iter(_cell_texts([block[j] for j in plain], [seps[j] for j in plain],
                            buffers))
    texts = [next(made) if text is None else text.take(col, axis=0)
             for col, text in zip(block, texts)]
    # the rows, filled column by column in work memory, are read in row
    # order, and translate drops the padding in one pass
    width = sum(t.shape[1] for t in texts)
    rows = _work(buffers, "rows", (width, len(texts[0])), np.uint8).T
    np.concatenate(texts, axis=1, out=rows)
    return rows.tobytes().translate(None, b"\xff")


def _cell_texts(columns, seps, buffers):
    """For each column, the rows of a byte matrix: each value's text, then
    the column's sep, then _PAD bytes.

    The floats, and integers below 1e9 in magnitude (whose '%s' is their
    '%.9g'), of all the columns go through one _float_text call, if there
    are more than _FEW_VALUES. _python_cells formats what it leaves
    undecided and every other value, as the row loop does.
    """
    numeric = [j for j, c in enumerate(columns)
               if c.dtype.kind in "iuf" and c.itemsize <= 8]
    lengths = [len(columns[j]) for j in numeric]
    if sum(lengths) <= _FEW_VALUES:
        numeric = lengths = []
    texts = [np.empty((len(c), 0), np.uint8) for c in columns]
    rests = [slice(None)] * len(columns)
    if numeric:
        x = _work(buffers, "values", (sum(lengths),), np.float64)
        np.concatenate([columns[j] for j in numeric], out=x)
        made, ok = _float_text(x, [seps[j] for j in numeric], lengths, buffers)
        for j, text, start in zip(numeric, made, np.cumsum([0] + lengths)):
            decided = ok[start:start + len(text)]
            if columns[j].dtype.kind != "f":
                decided &= np.abs(x[start:start + len(text)]) < 1e9
            texts[j], rests[j] = text, np.flatnonzero(~decided)
    for j, (column, rest) in enumerate(zip(columns, rests)):
        values = column[rest]
        if not len(values):
            continue
        cells = _python_cells(values, _F if values.dtype.kind == "f" else "%s", seps[j])
        width = max(map(len, cells))
        if width > texts[j].shape[1]:
            pad = np.full((len(column), width - texts[j].shape[1]), _PAD, np.uint8)
            texts[j] = np.concatenate((texts[j], pad), axis=1)
        width = texts[j].shape[1]
        texts[j][rest] = np.frombuffer(b"".join(c.ljust(width, b"\xff") for c in cells),
                                       np.uint8).reshape(len(cells), width)
    return texts


def _python_cells(values, fmt, sep):
    """fmt % value, then sep, of each value as bytes: the row loop's cells."""
    return [(fmt % (v,)).encode() + sep for v in values.tolist()]


def _float_text(x, seps, lengths, buffers):
    """'%.9g' text of float64 values where numpy can decide it: for each
    segment of x (of the given lengths), a byte matrix whose rows hold each
    value's text, then the segment's sep, then _PAD bytes; and the mask of
    the values decided.

    The sign and binary exponent of a value name its decimal exponent e
    within one (_SCALE, _E_KEY): s = |x| 10^(8 - e), divided by ten where
    it reaches 1e9, lies in [1e8, 1e9) within about 1e-6. So rint(s) is the
    correctly rounded 9-digit mantissa unless s is within 1e-4 of a tie,
    and a mantissa that rounds to 1e9 carries into e. Undecided are the
    values near a tie, zero, subnormal or non-finite, and those whose
    binary exponent spans a decimal exponent beyond +-290; the rows of
    these hold other text.

    A value's class is the layout of its sign and e (_text_layouts),
    whatever its digits. A segment takes the text of its most common class
    in one gather and its other values by index; trailing zeros of the
    mantissa after the decimal point, and a point left without digits,
    then become _PAD.
    """
    with np.errstate(invalid="ignore"):  # undecided values make NaN
        key = x.view(np.int64) >> 52  # the sign and biased exponent bits
        e_key = _E_KEY.take(key)
        s = x * _SCALE.take(key)
        del key
        up = s >= 1e9
        np.divide(s, 10.0, out=s, where=up)
        e_key += up
        del up
        r = np.rint(s)
        ok = np.abs(s - r) < 0.4999
        del s
        np.fmax(r, 1e8, out=r)  # NaN of undecided values: 1e8, one digit
        carry = r == 1e9
        np.copyto(r, 1e8, where=carry)
        e_key += carry
        mid = r.astype(np.intp)
    del r, carry
    # the mantissa's three groups of three digits
    lo = mid.copy()
    mid //= 1000
    hi = mid // 1000
    lo -= 1000 * mid
    mid -= 1000 * hi
    zeros = _ZEROS3.take(lo, mode="clip") + (lo == 0) * (
        _ZEROS3.take(mid, mode="clip") + (mid == 0) * _ZEROS3.take(hi, mode="clip"))
    cls = _CLASS.take(e_key)
    # six source words a value, word by word: the three groups, the
    # exponent, then '.', 'e', '-' and the segment's sep, then _PAD
    src = _work(buffers, "source", (6, len(x)), np.uint32)
    for word, (table, index) in enumerate(((_DIGITS4, hi), (_DIGITS4, mid),
                                           (_DIGITS4, lo), (_EXP_WORDS, e_key))):
        table.take(index, out=src[word], mode="clip")
    src[5] = _PADS
    del hi, mid, lo, e_key
    texts = []
    for sep, start, n in zip(seps, np.cumsum([0] + lengths), lengths):
        part = slice(start, start + n)
        src[4, part] = np.frombuffer(b".e-" + sep, np.uint32)[0]
        texts.append(_segment_text(src[:, part].view(np.uint8).reshape(6, n, 4),
                                   cls[part], zeros[part]))
    return texts, ok


def _segment_text(src, cls, zeros):
    """A segment's byte matrix in _float_text, from its source bytes (word,
    value, byte), classes and the trailing zeros of its mantissas. It is
    built character by character, so its columns are contiguous, and it
    drops the characters that every row strips."""
    counts = np.bincount(cls)
    common = counts.argmax()
    width = _LENGTH.take(np.flatnonzero(counts)).max() + 1
    words, places, strip = (t[:, :width] for t in (_WORD, _PLACE, _STRIP))
    text = src[words[common], :, places[common]]
    first = np.argmax(strip[common] < _KEEP)  # the decimal point, if any
    if strip[common, first] < _KEEP:
        np.copyto(text[first:], _PAD, where=strip[common, first:, None] <= zeros)
    kept = strip[common] > zeros.min()
    rest = np.flatnonzero(cls != common)
    if rest.size:
        rows = cls[rest]
        part = src[words.take(rows, axis=0).T, rest, places.take(rows, axis=0).T]
        part[strip.take(rows, axis=0).T <= zeros[rest]] = _PAD
        text[:, rest] = part
        kept |= (part != _PAD).any(axis=1)
    return (text if kept.all() else text[kept]).T


def _text_layouts():
    """Source byte of each character of each '%.9g' text class at nine
    digits; the trailing-zero count from which each character becomes
    _PAD (_KEEP: never); and the text length of each class.

    Class layout * 2 + negative. Layouts 0-12 are fixed notation at decimal
    exponents -4..8; 13 and 14 exponent notation with two and three
    exponent digits. Class 30 is empty, all _PAD. The six source words of a
    value in _float_text hold the nine mantissa digits in three groups of
    three, each followed by a '0'; the exponent's sign and '%03d' of its
    magnitude; '.', 'e', '-' and the separator; then _PAD. Mantissa digit k
    after the decimal point becomes _PAD where the mantissa has 9 - k
    trailing zeros or more, and so does the point before the first of them.
    Each layout row ends with the separator, then _PAD.
    """
    zero, dot, e, minus, sep = 3, 16, 17, 18, 19
    digit = [0, 1, 2, 4, 5, 6, 8, 9, 10]
    texts = []
    for layout in range(15):
        exp = layout - 4
        if layout >= 13:
            text = digit[:1] + [dot] + digit[1:] + [e, 12] + [13, 14, 15][14 - layout:]
        elif exp < 0:
            text = [zero, dot] + [zero] * (-exp - 1) + digit
        else:
            text = digit[:exp + 1] + [dot] * (exp < 8) + digit[exp + 1:]
        texts += [text + [sep], [minus] + text + [sep]]
    texts.append([])  # the empty class, of undecided values
    layouts = np.full((len(texts), max(map(len, texts))), _PAD_SOURCE)
    stops = np.full(layouts.shape, _KEEP, np.uint8)
    for row, stop, text in zip(layouts, stops, texts):
        row[:len(text)] = text
        point = text.index(dot) if dot in text else len(text)
        for i in range(point + 1, len(text)):
            stop[i] = 9 - digit.index(text[i]) if text[i] in digit else _KEEP
        stop[point] = stop[point + 1] if point < len(text) else _KEEP
    return layouts, stops, np.array([max(len(t) - 1, 0) for t in texts])


def _exponent_tables():
    """_float_text's tables over the 4096 keys of sign and biased binary
    exponent (a float64's top twelve bits as int64: negative for a negative
    value, so the negative keys take the table's last half), and over the
    1203 keys of sign and decimal exponent e: e + 300, plus 601 if
    negative, and 1202 for undecided values.

    _SCALE: 10^(8 - e), signed as the key's values, where e is the decimal
    exponent of the smallest magnitude of the key; NaN where the values are
    undecided. _E_KEY: that e's key. _CLASS: the text class of each
    exponent key, the empty class 30 for undecided values; _EXP_WORDS: its
    source word, the exponent's sign and '%03d' of its magnitude.
    """
    key = np.arange(4096)
    biased, negative = key % 2048, key >= 2048
    e = np.floor((biased - 1023) * np.log10(2.0)).astype(np.intp)
    decided = (biased > 0) & (biased < 2047) & (np.abs(e) <= 290)
    e[~decided] = 0
    scale = np.where(negative, -1.0, 1.0) * np.power(10.0, 8 - e)
    scale[~decided] = np.nan
    e_key = np.where(decided, e + 300 + 601 * negative, 1202)
    exps = np.arange(1202) % 601 - 300
    layout = np.where(np.abs(exps - 2) <= 6, exps + 4, 13 + (np.abs(exps) >= 100))
    classes = np.append(2 * layout + (np.arange(1202) >= 601), 30)
    words = b"".join(b"%c%03d" % (b"+-"[x < 0], abs(x)) for x in exps.tolist())
    return scale, e_key, classes, np.frombuffer(words + b"\xff" * 4, np.uint32)


_PAD = 0xFF
# Python formats this many values faster than _float_text's fixed cost
_FEW_VALUES = 64
# the source byte of _PAD, and the trailing-zero count that strips nothing
_PAD_SOURCE, _KEEP = 20, 10
_LAYOUT, _STRIP, _LENGTH = _text_layouts()
_WORD, _PLACE = np.divmod(_LAYOUT, 4)
# '%03d0' of each three-digit group as one uint32, and its trailing zeros
_DIGITS4 = np.frombuffer(b"".join(b"%03d0" % g for g in range(1000)), np.uint32)
_ZEROS3 = sum((np.arange(1000) % p == 0).astype(np.uint8) for p in (10, 100, 1000))
_PADS = np.frombuffer(b"\xff" * 4, np.uint32)[0]
_SCALE, _E_KEY, _CLASS, _EXP_WORDS = _exponent_tables()


def symmetric_setup(cfg, seed):
    """Gain scalar and aggregate objective parameters of a symmetric study."""
    beta = symmetric_beta(cfg, seed)
    return beta, symmetric_aggregates(cfg, beta)


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
    CSV: each is the endpoint step over the n grid, which evaluates the
    m_of = 0 and m columns alone (the best fiber count is one of them), and
    a pass over the grid blocks then writes the rows without holding a
    whole grid.
    """
    cfg = spec.config
    beta = symmetric_beta(cfg, spec.seed)
    ns = parse_range(*SURFACE_N)
    aggs = {(mu_of, mu_fso): symmetric_aggregates(
        replace(cfg, mu_of=mu_of, mu_fso=mu_fso), beta) for mu_of, mu_fso in SURFACE_COST_SETS}
    optima = {costs: optimal_m_of_closed_form(ns, agg) for costs, agg in aggs.items()}

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
    # the law of split x 1 x M capacities, broadcast over the drops of a block
    distortion = quantizer(np.stack([
        FronthaulPlan.fso_first(cfg.m, m_of, cfg.c_fso, n).capacities()
        for n, m_of in splits])[:, None, :])
    per_block = min(spec.drops, max(1, BLOCK_GAINS // (cfg.m * cfg.k)))
    draw_block = fading_blocks(cfg, per_block, spec.seed)
    sums, users = [], []
    for start in range(0, spec.drops, per_block):
        _, fading = draw_block(start, min(start + per_block, spec.drops))
        dist = distortion(received_signal_power(fading.beta, sig))
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
    lo, hi, count = SWEEP_RHO_ETA_W
    if cfg.rho_u_w <= lo:
        raise ValueError("config value 'rho_u_mw' must exceed "
                         f"{_F % (lo * 1e3)} mW for the power sweep")
    # eta = product / rho_u must stay within [0, 1]
    hi = min(hi, cfg.rho_u_w)
    sweep = np.linspace(lo, hi, count)
    splits = compared_splits_for(cfg.m)
    ns, mofs = (np.array(c) for c in zip(*splits))
    agg = symmetric_aggregates(cfg, beta, eta=sweep[:, None] / cfg.rho_u_w)
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
