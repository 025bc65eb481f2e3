"""Seeded randomness for deterministic experiments.

Every experiment takes a ``seed`` and derives per-component generators from
it, so that (a) runs are reproducible and (b) adding a new random consumer
does not perturb existing streams (each consumer gets its own namespaced
child generator).
"""

from __future__ import annotations

import hashlib
import random


class SeededRng:
    """Namespaced deterministic random generator.

    >>> rng = SeededRng(42)
    >>> a = rng.child("traffic")
    >>> b = rng.child("traffic")
    >>> a.uniform(0, 1) == b.uniform(0, 1)
    True
    """

    def __init__(self, seed: int, namespace: str = "root") -> None:
        self.seed = seed
        self.namespace = namespace
        digest = hashlib.sha256(f"{seed}:{namespace}".encode()).digest()
        self._random = random.Random(int.from_bytes(digest[:8], "big"))

    def child(self, name: str) -> "SeededRng":
        """Derive an independent generator for a sub-component."""
        return SeededRng(self.seed, f"{self.namespace}/{name}")

    # Thin delegation layer; only the primitives the code base uses.
    def uniform(self, a: float, b: float) -> float:
        """Uniform float in [a, b]."""
        return self._random.uniform(a, b)

    def lognormvariate(self, mu: float, sigma: float) -> float:
        """Log-normally distributed float."""
        return self._random.lognormvariate(mu, sigma)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()
