"""Elements, vectors, weights and distances over the rings Z_{2^s}."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class BudgetExceededError(RuntimeError):
    """A requested computation does not fit its configured search budget."""


@dataclass(frozen=True)
class RingSpec:
    """The ambient ring Z_{2^s}."""

    s: int

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError(f"ring exponent must be >= 1, got {self.s}")

    @property
    def modulus(self) -> int:
        return 1 << self.s


Z2 = RingSpec(1)
Z4 = RingSpec(2)


class WeightMetric(Enum):
    HAMMING = "hamming"
    LEE = "lee"
    HOMOGENEOUS = "homogeneous"
    EUCLIDEAN = "euclidean"

    @classmethod
    def parse(cls, name: str) -> "WeightMetric":
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown metric {name!r}; expected one of {valid}") from None

    def check_ring(self, ring: RingSpec) -> None:
        # The Lee table min(x, 2^s - x) is the classical one only on Z4; on Z2 it
        # degenerates to Hamming, which is what the binary engines rely on.
        if self is WeightMetric.LEE and ring.s > 2:
            raise ValueError("Lee weight is defined here for Z2 and Z4 only")

    def element_weights(self, ring: RingSpec) -> np.ndarray:
        """Per-element weight lookup table of length 2^s."""
        self.check_ring(ring)
        m = ring.modulus
        x = np.arange(m, dtype=np.int64)
        if self is WeightMetric.HAMMING:
            return (x != 0).astype(np.int64)
        if self is WeightMetric.LEE:
            return np.minimum(x, m - x)
        if self is WeightMetric.HOMOGENEOUS:
            return np.array([homogeneous_weight(int(v), ring) for v in x], dtype=np.int64)
        return np.minimum(x * x, (m - x) * (m - x))


def homogeneous_weight(x: int, ring: RingSpec) -> int:
    """Homogeneous weight of a single element of Z_{2^s}.

    Zero gets weight 0, the unique element of order two gets 2^(s-1), and every
    other nonzero element gets 2^(s-2).  At s = 2 this is the Lee weight, and at
    s = 1 it is the Hamming weight (the only nonzero element is 2^(s-1)).
    """
    m = ring.modulus
    if not 0 <= x < m:
        raise ValueError(f"element {x} out of range for Z_{m}")
    if x == 0:
        return 0
    half = m >> 1
    if x == half:
        return half
    return m >> 2


@dataclass(frozen=True)
class ZqVector:
    """An immutable vector with coordinates in Z_{2^s}."""

    ring: RingSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.ring.modulus
        for c in self.coords:
            if not 0 <= c < m:
                raise ValueError(f"coordinate {c} out of range for Z_{m}")

    @classmethod
    def of(cls, ring: RingSpec, coords: Sequence[int]) -> "ZqVector":
        m = ring.modulus
        return cls(ring, tuple(int(c) % m for c in coords))

    def __len__(self) -> int:
        return len(self.coords)

    def __sub__(self, other: "ZqVector") -> "ZqVector":
        _check_compatible(self, other)
        m = self.ring.modulus
        return ZqVector(self.ring, tuple((a - b) % m for a, b in zip(self.coords, other.coords)))

    def __add__(self, other: "ZqVector") -> "ZqVector":
        _check_compatible(self, other)
        m = self.ring.modulus
        return ZqVector(self.ring, tuple((a + b) % m for a, b in zip(self.coords, other.coords)))


def _check_compatible(u: ZqVector, v: ZqVector) -> None:
    if u.ring != v.ring:
        raise ValueError("vectors live in different rings")
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")


def weight(v: ZqVector, metric: WeightMetric) -> int:
    """Total weight of a vector: the sum of per-coordinate weights."""
    table = metric.element_weights(v.ring)
    return int(sum(int(table[c]) for c in v.coords))


def distance(u: ZqVector, v: ZqVector, metric: WeightMetric) -> int:
    """Distance between two vectors: the weight of their difference."""
    _check_compatible(u, v)
    return weight(u - v, metric)


_GRAY_IMAGE = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}


def gray_map(v: ZqVector) -> ZqVector:
    """Coordinate-wise Gray image of a Z4 vector, a binary vector of twice the length.

    The map 0->00, 1->01, 2->11, 3->10 carries Lee weight to Hamming weight.
    """
    if v.ring.s != 2:
        raise ValueError("the Gray map is defined on Z4 vectors")
    bits: list[int] = []
    for c in v.coords:
        bits.extend(_GRAY_IMAGE[c])
    return ZqVector(Z2, tuple(bits))


def format_vector(v: ZqVector) -> str:
    """Render a vector in the one-line text format: digits separated by spaces."""
    return " ".join(str(c) for c in v.coords)


def parse_vector(line: str, ring: RingSpec) -> ZqVector:
    """Parse the one-line vector text format, rejecting out-of-range coordinates."""
    parts = line.split()
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"malformed vector line: {line!r}") from None
    m = ring.modulus
    for c in coords:
        if not 0 <= c < m:
            raise ValueError(f"coordinate {c} out of range for Z_{m}")
    return ZqVector(ring, coords)
