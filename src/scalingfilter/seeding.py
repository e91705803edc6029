"""Deterministic seed derivation.

One run seed is split into independent per-subsystem seeds so that
pipelines composed of several seeded stages stay reproducible end to end.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def derive_seed(root_seed: int, *labels) -> int:
    """Derive a 64-bit child seed from a root seed and a label path.

    Distinct label paths give statistically independent streams; the same
    (root_seed, labels) always gives the same child.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root_seed)).encode("ascii"))
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def rng_for(root_seed: int, *labels) -> np.random.Generator:
    """A fresh PCG64 generator seeded from the derived child seed."""
    import numpy as np  # loaded by the commands that draw, not by every one that derives a seed

    return np.random.Generator(np.random.PCG64(derive_seed(root_seed, *labels)))
