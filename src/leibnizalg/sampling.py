"""Deterministic rational sampling for seeded oracle checks.

All randomized checks in the package and its test suite draw from here so
that a seed pins the exact sequence of vectors on every platform.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exactlin import Vector

# |numerator| and denominator bounds of every sampled scalar
_NUM_BOUND = 9
_DEN_BOUND = 4


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-_NUM_BOUND, _NUM_BOUND), rng.randint(1, _DEN_BOUND))


def rational_vector(rng: random.Random, dim: int) -> Vector:
    return tuple(rational(rng) for _ in range(dim))
