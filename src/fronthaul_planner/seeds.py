"""Deterministic seed derivation for every random component.

One master seed drives the whole run. Each consumer derives its own
generator from a named stream (plus an index for repeated uses such as
Monte-Carlo trial blocks or drops), so components never share generator
state and any piece of a run can be reproduced or parallelized in
isolation. Index i of a stream is i jumps of the stream's index-0
generator, numpy's documented PCG64.jumped(i), so one generator reaches
every index of a stream by setting a state and advancing it.
"""

import numpy as np

# Fixed stream tags. Changing them invalidates reproducibility of stored runs.
# Tags 1, 2, 3, 5 and 6 belonged to retired streams and stay unused.
STREAMS = {
    "mc_channel": 4,
    "drop": 7,
    "validate_user": 99,
}

# The step of one PCG64.jumped jump: an advance of JUMP draws.
JUMP = 0x9e3779b97f4a7c15f39cc0605cedc835


def _jump(bit_generator, state, index):
    """Put a PCG64 bit_generator at index jumps past state, as
    PCG64.jumped(index) of a generator at state is. The one jump rule, private
    so Monte-Carlo worker threads call no traced public function; it checks
    the index, as PCG64.advance takes a negative one without an error."""
    if index < 0:
        raise ValueError("stream index must be non-negative")
    bit_generator.state = state
    bit_generator.advance(index * JUMP)


def derive_rng(seed, stream, index=0):
    """Return a Generator for the named stream of a master seed.

    seed may already be a Generator, in which case it is returned as-is
    (callers that pre-derive a stream pass it straight through). Index i is
    i jumps of the stream's index-0 generator, keyed (tag, 0).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if stream not in STREAMS:
        raise ValueError(f"unknown seed stream '{stream}'")
    key = (STREAMS[stream], 0)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))
    if index:
        _jump(rng.bit_generator, rng.bit_generator.state, int(index))
    return rng
