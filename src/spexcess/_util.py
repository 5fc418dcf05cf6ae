"""Small internal helpers."""

import numpy as np

CACHE_BLOCK_BYTES = 1 << 16  # stacked n x n operands held at once: these stay in cache


def readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array immutable and return it (shared-read concurrency model)."""
    a.setflags(write=False)
    return a
