"""Combinatorics of genus-2 theta characteristics.

A characteristic is a 4-bit vector split into halves ``a`` and ``b``.  The
canonical column orders fix the labels 1..10 for the even ones and 1..6 for
the odd ones; every catalog in the package refers to these labels, never to
raw bit patterns, so nothing downstream can silently permute tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import DerivationError


@dataclass(frozen=True, order=True)
class Characteristic:
    a: tuple[int, int]
    b: tuple[int, int]

    def __post_init__(self):
        for half in (self.a, self.b):
            if len(half) != 2 or any(x not in (0, 1) for x in half):
                raise ValueError(f"bad characteristic half {half}")

    @staticmethod
    def from_bits(bits: Iterable[int]) -> "Characteristic":
        a1, a2, b1, b2 = bits
        return Characteristic((a1, a2), (b1, b2))

    @property
    def bits(self) -> tuple[int, int, int, int]:
        return (*self.a, *self.b)

    def __add__(self, other: "Characteristic") -> "Characteristic":
        return Characteristic.from_bits(
            tuple((x + y) % 2 for x, y in zip(self.bits, other.bits)))

    def is_even(self) -> bool:
        a1, a2 = self.a
        b1, b2 = self.b
        return (a1 * b1 + a2 * b2) % 2 == 0

    def sign(self) -> int:
        """e(m) = (-1)^(a.b)"""
        return 1 if self.is_even() else -1


def char_sum(ms: Iterable[Characteristic]) -> Characteristic:
    total = Characteristic((0, 0), (0, 0))
    for m in ms:
        total = total + m
    return total


# Canonical column orders (columns read top to bottom as a1 a2 b1 b2).
EVEN_CHARS: tuple[Characteristic, ...] = tuple(
    Characteristic.from_bits(bits) for bits in [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0),
        (0, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1), (1, 1, 0, 0), (1, 1, 1, 1),
    ])

ODD_CHARS: tuple[Characteristic, ...] = tuple(
    Characteristic.from_bits(bits) for bits in [
        (0, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0), (1, 0, 1, 1),
        (1, 1, 0, 1), (1, 1, 1, 0),
    ])

def even(i: int) -> Characteristic:
    """Even characteristic by 1-based canonical label."""
    return EVEN_CHARS[i - 1]


def odd(i: int) -> Characteristic:
    """Odd characteristic by 1-based canonical label."""
    return ODD_CHARS[i - 1]


def is_azygetic(m1: Characteristic, m2: Characteristic, m3: Characteristic) -> bool:
    """Pairwise distinct with sign product e(m1)e(m2)e(m3)e(m1+m2+m3) == -1."""
    if len({m1, m2, m3}) < 3:
        return False
    return m1.sign() * m2.sign() * m3.sign() * (m1 + m2 + m3).sign() == -1


def azygetic_quadruple(i: int, j: int) -> tuple[int, int, int, int]:
    """Labels of the four even characteristics azygetic with the odd pair (i, j)."""
    if not (1 <= i < j <= 6):
        raise ValueError("need odd labels 1 <= i < j <= 6")
    quad = tuple(k for k in range(1, 11)
                 if is_azygetic(odd(i), odd(j), even(k)))
    if len(quad) != 4:
        raise DerivationError(
            f"odd pair ({i},{j}) yields {len(quad)} azygetic even characteristics, not 4")
    return quad


def five_term_decompositions(i: int) -> list[frozenset[int]]:
    """All 5-subsets of even labels summing to the odd characteristic ``i``.

    Each odd characteristic admits exactly 12 such decompositions.
    """
    target = odd(i)
    out = [frozenset(c) for c in combinations(range(1, 11), 5)
           if char_sum(even(k) for k in c) == target]
    return sorted(out, key=sorted)


def catalog() -> dict:
    """JSON-ready dump of the canonical orders and derived combinatorics."""
    return {
        "even": [list(m.bits) for m in EVEN_CHARS],
        "odd": [list(m.bits) for m in ODD_CHARS],
        "azygetic_quadruples": {
            f"{i},{j}": list(azygetic_quadruple(i, j))
            for i, j in combinations(range(1, 7), 2)
        },
        "five_term_decompositions": {
            str(i): [sorted(s) for s in five_term_decompositions(i)]
            for i in range(1, 7)
        },
    }
