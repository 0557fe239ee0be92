"""Deterministic seed derivation for every random component.

One master seed drives the whole run. Each consumer derives its own
generator from a named stream (plus an index for repeated uses such as
Monte-Carlo chunks or topology drops), so components never share generator
state and any piece of a run can be reproduced or parallelized in
isolation.
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
}


def derive_rng(seed, stream, index=0):
    """Return a Generator for the named stream of a master seed.

    seed may already be a Generator, in which case it is returned as-is
    (callers that pre-derive a stream pass it straight through).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if stream not in STREAMS:
        raise ValueError(f"unknown seed stream '{stream}'")
    ss = np.random.SeedSequence(int(seed), spawn_key=(STREAMS[stream], int(index)))
    return np.random.default_rng(ss)
