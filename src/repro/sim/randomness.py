"""Seeded randomness for deterministic experiments.

Every experiment takes a ``seed`` and derives per-component generators from
it, so that (a) runs are reproducible and (b) adding a new random consumer
does not perturb existing streams (each consumer gets its own namespaced
child generator).
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


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

    def expovariate(self, rate: float) -> float:
        """Exponentially distributed float with the given rate."""
        return self._random.expovariate(rate)

    def lognormvariate(self, mu: float, sigma: float) -> float:
        """Log-normally distributed float."""
        return self._random.lognormvariate(mu, sigma)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normally distributed float."""
        return self._random.gauss(mu, sigma)

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b]."""
        return self._random.randint(a, b)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly chosen element of the sequence."""
        return self._random.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """k distinct elements chosen uniformly."""
        return self._random.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        """Shuffle the list in place."""
        self._random.shuffle(seq)

    def randbytes(self, n: int) -> bytes:
        """n pseudo-random bytes."""
        return bytes(self._random.getrandbits(8) for _ in range(n))

    def jitter(self, value: float, fraction: float) -> float:
        """``value`` perturbed uniformly by up to ``+-fraction``."""
        return value * (1.0 + self._random.uniform(-fraction, fraction))
