"""Per-component random streams derived from one root seed.

Each component (weights, data, shuffle, ...) gets its own generator so that
adding or removing a component never shifts the draws of the others.
"""

from __future__ import annotations

import hashlib

import numpy as np


def component_seed(seed: int, *labels) -> int:
    """Stable 64-bit seed for a named component under the root ``seed``."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "little")


def component_rng(seed: int, *labels) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(component_seed(seed, *labels)))
