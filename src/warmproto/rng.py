"""Seeded random generation with explicit state.

Every random draw in the package flows through generators built here;
nothing touches numpy's global state. Equal seeds produce bit-identical
streams on every platform, which is what makes seed sweeps and paired
method comparisons meaningful.
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the independent stream identified by (seed, *key).

    Gives episodes, class centers and parameter initialization their own
    reproducible streams without consuming from one another.
    """
    spawn = tuple(int(k) for k in key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=int(seed), spawn_key=spawn)))
