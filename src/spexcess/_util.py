"""Small internal helpers."""

import numpy as np

CACHE_BLOCK_BYTES = 1 << 16  # stacked n x n operands held at once: these stay in cache
SWEEP_BLOCK_BYTES = 1 << 20  # the regularity sweep's gathered distances, masks and counts


def readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array immutable and return it (shared-read concurrency model)."""
    a.setflags(write=False)
    return a
