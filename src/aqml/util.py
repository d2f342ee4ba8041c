"""Seeded RNG streams and query-charge bookkeeping shared by the pipelines."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


def check_seed(seed: int) -> int:
    """The root seed as one 32-bit word; a seed outside [0, 2^32 - 1]
    raises ValueError (masking it would give two seeds one stream)."""
    if not 0 <= int(seed) <= 0xFFFFFFFF:
        raise ValueError(f"seed must lie in [0, {0xFFFFFFFF}], got {seed}")
    return int(seed)


def stream(seed: int, *names) -> np.random.Generator:
    """Named RNG stream derived from a root seed (see `check_seed`).

    Streams are independent for distinct name tuples and stable across runs,
    so adding trials never perturbs existing streams.
    """
    words = [check_seed(seed)]
    for name in names:
        digest = hashlib.sha256(str(name).encode()).digest()
        words.append(int.from_bytes(digest[:4], "big"))
    return np.random.default_rng(np.random.SeedSequence(words))


@dataclass
class QueryCounter:
    """Accumulates charged oracle queries, keyed by channel name."""

    charges: dict = field(default_factory=dict)

    def charge(self, channel: str, amount: int) -> None:
        self.charges[channel] = self.charges.get(channel, 0) + int(amount)

    @property
    def total(self) -> int:
        return sum(self.charges.values())

    def merge(self, other: "QueryCounter") -> None:
        for key, val in other.charges.items():
            self.charge(key, val)


def fmt_float(x: float) -> str:
    """17 significant digit serialization used by every CSV writer."""
    return format(float(x), ".17g")
