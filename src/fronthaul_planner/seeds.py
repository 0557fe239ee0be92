"""Deterministic seed derivation for every random component.

One master seed drives the whole run. Each consumer derives its own
generator from a named stream (plus an index for repeated uses such as
Monte-Carlo chunks or topology drops), so components never share generator
state and any piece of a run can be reproduced or parallelized in
isolation. derive_states gives the generator states of a range of indices
at once, bit-equal to one derive_rng call per index.
"""

import numpy as np

# Fixed stream tags. Changing them invalidates reproducibility of stored runs.
STREAMS = {
    "topology": 1,
    "shadowing": 2,
    "mc_channel": 4,
    "mc_noise": 5,
    "mc_quant": 6,
    "drop": 7,
    "validate_user": 99,
}


def derive_rng(seed, stream, index=0):
    """Return a Generator for the named stream of a master seed.

    seed may already be a Generator, in which case it is returned as-is
    (callers that pre-derive a stream pass it straight through). index None
    keys the stream by its tag alone, as the validate user pick is keyed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if stream not in STREAMS:
        raise ValueError(f"unknown seed stream '{stream}'")
    tag = STREAMS[stream]
    key = (tag,) if index is None else (tag, int(index))
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


# numpy's SeedSequence hash constants (4-word pool) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _words(value):
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence splits it."""
    return [(value >> s) & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


def _pool(entropy):
    """SeedSequence's 4-word pool of each column; entropy is a list of uint32 rows."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    return pool


def derive_states(seed, stream, start, stop):
    """PCG64 states of derive_rng(seed, stream, i) for i in range(start, stop).

    Each state equals derive_rng(seed, stream, i).bit_generator.state. The
    SeedSequence hash runs once over all indices with the same number of
    32-bit words, vectorized with numpy; PCG64's seeding then takes two
    128-bit steps per index.
    """
    if stream not in STREAMS:
        raise ValueError(f"unknown seed stream '{stream}'")
    seed, start = int(seed), int(start)
    if seed < 0 or start < 0:
        raise ValueError("expected non-negative integer")
    run = _words(seed)
    run += [0] * (4 - len(run)) + [STREAMS[stream]]  # a spawn key pads the seed to 4 words
    states = []
    while start < stop:
        n_words = len(_words(start))
        end = min(stop, 1 << 32 * n_words)
        index = np.arange(start, end, dtype=object)
        # the seed's words hash once; the index words broadcast over the range
        pool = _pool([np.array([w], np.uint32) for w in run]
                     + [(index >> s & _MASK32).astype(np.uint32)
                        for s in range(0, 32 * n_words, 32)])
        out, const = [], _INIT_B
        for word in pool + pool:  # generate_state(4, uint64): 8 words
            word = word ^ const
            const = const * _MULT_B & _MASK32
            word = word * const
            out.append((word ^ (word >> 16)).astype(np.uint64))
        seed_hi, seed_lo, inc_hi, inc_lo = (
            (out[j + 1] << 32 | out[j]).tolist() for j in range(0, 8, 2))
        for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            states.append({"bit_generator": "PCG64",
                           "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0})
        start = end
    return states
