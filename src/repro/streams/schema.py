"""Stream schemas with analytic value distributions.

Every attribute declares its domain and distribution (uniform or Zipf on
an integer domain).  That makes two things possible:

* sources can *draw* values matching the declared distribution, and
* the interest algebra can *compute* the probability mass of an interval
  predicate, which is exactly the selectivity used for the query-graph
  edge weights (bytes/second of shared interest) in §3.2.2.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable


UNIFORM = "uniform"
ZIPF = "zipf"


@lru_cache(maxsize=256)
def _zipf_table(n: int, s: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-rank weights and prefix sums for a Zipf(n, s) domain.

    ``prefix[r]`` is the mass of ranks ``0 .. r - 1``, summed left to
    right from 0.0.  A selectivity reads two prefix entries and a draw
    bisects the prefix, so neither makes a pass over the domain.
    Cached because both are hot: query-graph construction evaluates
    O(queries^2) selectivities, and a source draws once per Zipf
    attribute per tuple.
    """
    weights = tuple(1.0 / (r + 1) ** s for r in range(n))
    prefix = [0.0]
    for w in weights:
        prefix.append(prefix[-1] + w)
    return weights, tuple(prefix)


@dataclass(frozen=True, slots=True)
class Attribute:
    """One stream attribute with an explicit value model.

    Attributes:
        name: Attribute name, unique within its schema.
        lo, hi: Inclusive domain bounds.  Values are real for uniform
            attributes and integral for Zipf attributes.
        distribution: ``"uniform"`` or ``"zipf"``.
        zipf_s: Skew exponent for Zipf attributes (ignored otherwise).
            The value ``lo + r`` has weight ``1 / (r + 1) ** zipf_s``.
    """

    name: str
    lo: float
    hi: float
    distribution: str = UNIFORM
    zipf_s: float = 1.0

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"attribute {self.name}: hi < lo")
        if self.distribution not in (UNIFORM, ZIPF):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.distribution == ZIPF and self.hi - self.lo > 5_000_000:
            raise ValueError("zipf domain too large to normalise")

    # ------------------------------------------------------------------
    def selectivity(self, lo: float, hi: float) -> float:
        """Probability that a drawn value lands in ``[lo, hi]``."""
        lo = max(lo, self.lo)
        hi = min(hi, self.hi)
        if hi < lo:
            return 0.0
        if self.distribution == UNIFORM:
            width = self.hi - self.lo
            if width == 0:
                return 1.0
            return (hi - lo) / width
        n = int(self.hi - self.lo) + 1
        __, prefix = _zipf_table(n, self.zipf_s)
        first = max(0, math.ceil(lo - self.lo))
        last = min(n - 1, math.floor(hi - self.lo))
        if last < first:
            return 0.0
        return (prefix[last + 1] - prefix[first]) / prefix[n]

    def sampler(self, rng) -> Callable[[], float]:
        """A zero-argument draw from the declared distribution, bound to
        ``rng`` once, so a source pays no per-value set-up.

        A uniform value is ``lo + (hi - lo) * rng.random()``, the very
        expression of ``rng.uniform(lo, hi)``.  A Zipf value is one
        ``rng.random()`` and one bisect of the cached prefix table:
        ``prefix[1:]`` is exactly the cumulative list that
        ``Random.choices(range(n), weights=weights)`` accumulates on
        every call (the same left-to-right float additions), so the draw
        returns the same value and consumes the same RNG state as that
        call, without its O(n) pass.
        """
        random = rng.random
        lo = self.lo
        if self.distribution == UNIFORM:
            span = self.hi - self.lo
            return lambda: lo + span * random()
        n = int(self.hi - self.lo) + 1
        prefix = _zipf_table(n, self.zipf_s)[1]
        total = prefix[n]
        return lambda: lo + bisect_right(prefix, random() * total, 1, n) - 1

    def draw(self, rng) -> float:
        """Sample one value from the declared distribution (see
        :meth:`sampler`)."""
        return self.sampler(rng)()


@dataclass(frozen=True, slots=True)
class StreamSchema:
    """Static description of one data stream.

    Attributes:
        stream_id: Unique stream name (e.g. ``"nyse.trades"``).
        attributes: Ordered attribute definitions.
        tuple_size: Serialised size of one tuple, in bytes.
        rate: Average tuple arrival rate, tuples/second.
    """

    stream_id: str
    attributes: tuple[Attribute, ...]
    tuple_size: float = 64.0
    rate: float = 100.0

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate attribute names in {self.stream_id}")
        if self.tuple_size <= 0 or self.rate < 0:
            raise ValueError("tuple_size must be > 0 and rate >= 0")

    @property
    def bytes_per_second(self) -> float:
        """Average raw stream volume in bytes/second."""
        return self.tuple_size * self.rate

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(f"{self.stream_id} has no attribute {name!r}")

    def attribute_names(self) -> list[str]:
        """Attribute names in declaration order."""
        return [a.name for a in self.attributes]
