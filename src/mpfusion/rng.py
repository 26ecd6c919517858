"""Counter-based random streams.

All randomness in the package flows through Philox-4x64-10 (the Random123
counter-based generator as shipped by numpy).  Streams are separated by
*key*, not by sequential state: a stream is identified by the pair

    key = (master_seed, purpose << 32 | index)

so any worker can open any stream directly and results never depend on the
order in which streams are consumed.  Distinct keys give statistically
independent streams by construction.
"""

from __future__ import annotations

import numpy as np

from .graph import _is_integer

_WORD = 0xFFFFFFFFFFFFFFFF
_HALF = 2 ** 32     # purpose and index each fill one half of the key word

# purpose words, one per independent use of randomness
PU_ACTIVITY = 1
OBSERVATIONS = 2
PROBES = 3
COUPLING_DRAW = 4
GENERIC = 6


def stream(master_seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Open the (purpose, index) substream of a master seed.

    Deterministic: the same triple always yields the same stream, no matter
    how many other streams were opened before it.  All three must be
    integers, not bools or floats that would be truncated onto another key;
    purpose and index must each fit in 32 bits, since wider values would
    alias other keys.
    """
    if not all(map(_is_integer, (master_seed, purpose, index))):
        raise ValueError(f"stream keys must be integers, got {(master_seed, purpose, index)}")
    if not 0 <= master_seed <= _WORD:
        raise ValueError(f"master seed must fit in 64 bits, got {master_seed}")
    if not (0 <= purpose < _HALF and 0 <= index < _HALF):
        raise ValueError(
            f"purpose and index must lie in [0, 2**32), got {purpose}, {index}")
    key = np.array([master_seed, (purpose << 32) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
