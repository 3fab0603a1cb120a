"""Section 7.1 — the rounding graphs G_d and the scale ladder.

For a guess d of the detour weight, the graph G_d replaces every edge e
of G \\ P with a path of ⌈w(e)/μ_d⌉ unit-weight edges, μ_d = εd/(2ζ).
We never materialise G_d: the simulator runs hop-BFS on G with the
per-edge *delay* ⌈w/μ_d⌉, which is exactly BFS on G_d (Observations
7.3/7.4 are verified directly as unit tests of :func:`subdivided_hops`
and :func:`scale_length`).

To keep everything exact we work in integer arithmetic: ε = eps_num /
eps_den, so μ_d = eps_num·d / (2ζ·eps_den) and

    ⌈w/μ_d⌉ = ⌈ w · 2ζ·eps_den / (eps_num·d) ⌉

is an integer ceiling division.  Lengths are integer counts of the unit
1/U with U = 2ζ·eps_den, the same U on every scale: μ_d is eps_num·d
units, a weight w is w·U units, and a hop count h in G_d is the length
h·eps_num·d.  :func:`to_length` turns a unit count into the exact
Fraction it stands for where a length leaves the solver's local
arithmetic (the wire and the API edge); floats appear only in the final
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Union

from ..congest.words import INF

#: A length at the solver's edge: an exact Fraction, or the INF int.
Length = Union[Fraction, int]

#: Largest denominator of ε̂; it bounds the length unit U = 2ζ·eps_den.
EPS_MAX_DENOMINATOR = 10 ** 6


def epsilon_as_fraction(epsilon: float) -> Fraction:
    """A conservative rational ε̂ ≤ ε (so guarantees only tighten) with
    denominator at most :data:`EPS_MAX_DENOMINATOR`."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    frac = Fraction(epsilon).limit_denominator(EPS_MAX_DENOMINATOR)
    exact = Fraction(str(epsilon))
    if frac > exact:
        frac = Fraction(math.floor(exact * EPS_MAX_DENOMINATOR),
                        EPS_MAX_DENOMINATOR)
    return frac


@dataclass(frozen=True)
class Scale:
    """One rung of the d = 2, 4, 8, ... ladder."""

    d: int
    zeta: int
    eps: Fraction

    @cached_property
    def unit(self) -> int:
        """U = 2ζ·eps_den — lengths are integer counts of 1/U."""
        return 2 * self.zeta * self.eps.denominator

    @cached_property
    def mu_units(self) -> int:
        """μ_d in units of 1/U: eps_num·d."""
        return self.eps.numerator * self.d

    @cached_property
    def mu(self) -> Fraction:
        """μ_d = εd / (2ζ) — the rounding unit."""
        return Fraction(self.mu_units, self.unit)

    def delay(self, weight: int) -> int:
        """⌈w/μ_d⌉ — hops an edge of weight w occupies in G_d."""
        return -(-weight * self.unit // self.mu_units)

    def units(self, hops: int) -> int:
        """h·μ_d in units of 1/U — the G_d length of an exact-h walk."""
        return hops * self.mu_units

    def length(self, hops: int) -> Fraction:
        """h·μ_d — the G_d length of an exact-h walk."""
        return Fraction(self.units(hops), self.unit)

    @cached_property
    def hop_budget(self) -> int:
        """ζ* = ⌈ζ(1 + 2/ε)⌉ — Observation 7.4's hop bound."""
        num, den = self.eps.numerator, self.eps.denominator
        return -(-self.zeta * (num + 2 * den) // num)


def to_length(units: int, unit: int) -> Length:
    """The exact length a unit count stands for (INF stays INF)."""
    return Fraction(units, unit) if units < INF else INF


def to_units(length: Length, unit: int) -> int:
    """Inverse of :func:`to_length` for a length whose denominator
    divides ``unit`` (INF stays INF)."""
    if length >= INF:
        return INF
    return length.numerator * (unit // length.denominator)


def scale_ladder(zeta: int, epsilon: float,
                 max_length: int) -> List[Scale]:
    """All scales d = 2^1 .. 2^⌈log(max_length)⌉ (Lemma 7.5's loop).

    ``max_length`` should upper-bound any relevant path weight (m·W in
    the paper; callers pass the instance's total edge weight).

    Raises ``ValueError`` when the largest length the solver forms from
    one scaled BFS — a path distance (≤ ``max_length``) plus the top
    scale's hop budget in G_d — would reach ``INF`` in units of 1/U: it
    would read as unreachable.  This also bounds ``max_length · U``.
    """
    eps = epsilon_as_fraction(epsilon)
    scales = []
    d = 2
    top = max(2, max_length)
    while True:
        scales.append(Scale(d=d, zeta=zeta, eps=eps))
        if d >= top:
            break
        d *= 2
    last = scales[-1]
    if max_length * last.unit + last.units(last.hop_budget) >= INF:
        raise ValueError(
            f"max_length={max_length} with epsilon={eps} overflows the "
            f"integer length units (U={last.unit}); use a coarser "
            f"epsilon or smaller weights")
    return scales


def subdivided_hops(weights: List[int], scale: Scale) -> int:
    """Hop count of a G_d path corresponding to edge weights ``weights``
    (Observation 7.4's quantity Σ ⌈w/μ⌉)."""
    return sum(scale.delay(w) for w in weights)


def scale_length(weights: List[int], scale: Scale) -> Fraction:
    """G_d length of the same path — Observation 7.3's quantity."""
    return scale.length(subdivided_hops(weights, scale))
