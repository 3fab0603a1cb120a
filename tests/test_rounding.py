"""Tests for the Section 7.1 rounding machinery (approx.rounding)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.approx.long_detour_approx import (
    compute_landmark_distances_weighted,
)
from repro.approx.rounding import (
    Scale,
    epsilon_as_fraction,
    scale_ladder,
    scale_length,
    subdivided_hops,
    to_length,
    to_units,
)
from repro.congest.spanning_tree import build_spanning_tree
from repro.congest.words import INF
from repro.graphs import path_with_chords_instance


class TestEpsilonFraction:
    def test_exact_binary_fractions(self):
        assert epsilon_as_fraction(0.25) == Fraction(1, 4)
        assert epsilon_as_fraction(0.5) == Fraction(1, 2)

    def test_never_exceeds_requested(self):
        for eps in (0.1, 0.3, 0.7, 0.99):
            assert epsilon_as_fraction(eps) <= Fraction(str(eps))

    def test_denominator_bounded(self):
        # 1/3 as a float: the closest small fraction, 1/3, exceeds the
        # decimal 0.3333333333333333, so ε̂ steps down to a multiple of
        # 10^-6 instead of keeping the 10^16 decimal denominator.
        for eps in (1 / 3, 2 / 3, 0.1, 0.123457, 0.999999):
            frac = epsilon_as_fraction(eps)
            assert frac.denominator <= 10 ** 6
            assert 0 < frac <= Fraction(str(eps))
            assert Fraction(str(eps)) - frac < Fraction(1, 10 ** 6)
        assert epsilon_as_fraction(1 / 3) == Fraction(333333, 10 ** 6)

    def test_out_of_range_rejected(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                epsilon_as_fraction(bad)


class TestScale:
    def scale(self, d=8, zeta=4, eps="1/2"):
        return Scale(d=d, zeta=zeta, eps=Fraction(eps))

    def test_mu_formula(self):
        s = self.scale()
        assert s.mu == Fraction(1, 2) * 8 / (2 * 4)  # εd/(2ζ) = 1/2

    def test_delay_is_ceiling(self):
        s = self.scale()  # μ = 1/2
        assert s.delay(1) == 2
        assert s.delay(3) == 6

    def test_delay_rounds_up(self):
        s = Scale(d=3, zeta=4, eps=Fraction(1, 2))  # μ = 3/16
        assert s.delay(1) == math.ceil(16 / 3)

    def test_length_of_hops(self):
        s = self.scale()
        assert s.length(6) == 3

    def test_hop_budget_formula(self):
        s = self.scale()  # ζ(1 + 2/ε) = 4 · 5 = 20
        assert s.hop_budget == 20

    def test_observation_7_3_distances_do_not_shrink(self):
        # Σ delay(w)·μ ≥ Σ w for any weight multiset.
        s = Scale(d=10, zeta=7, eps=Fraction(1, 3))
        for weights in ([1], [2, 5], [1, 1, 1, 9], [13]):
            assert scale_length(weights, s) >= sum(weights)

    def test_observation_7_4_hop_and_length_bounds(self):
        # For a ≤ ζ-hop path of weight r ∈ [d/2, d]: hops ≤ ζ(1+2/ε)
        # and G_d length ≤ (1+ε)·r.
        zeta = 5
        for eps in (Fraction(1, 2), Fraction(1, 4)):
            for weights in ([3, 3], [2, 2, 1, 1], [6], [4, 4, 2]):
                r = sum(weights)
                assert len(weights) <= zeta
                d = 1
                while d < r:
                    d *= 2
                assert d / 2 <= r <= d
                s = Scale(d=d, zeta=zeta, eps=eps)
                hops = subdivided_hops(weights, s)
                assert hops <= s.hop_budget
                assert scale_length(weights, s) <= (1 + eps) * r


class TestLadder:
    def test_covers_max_length(self):
        ladder = scale_ladder(zeta=4, epsilon=0.5, max_length=100)
        assert ladder[-1].d >= 100
        assert ladder[0].d == 2

    def test_doubling(self):
        ladder = scale_ladder(zeta=4, epsilon=0.5, max_length=33)
        ds = [s.d for s in ladder]
        assert ds == [2, 4, 8, 16, 32, 64]

    def test_logarithmic_count(self):
        ladder = scale_ladder(zeta=10, epsilon=0.25, max_length=10 ** 6)
        assert len(ladder) <= 21

    def test_every_r_has_a_scale(self):
        # For every candidate detour weight r ≥ 1 there is a scale with
        # d/2 ≤ r ≤ d.
        ladder = scale_ladder(zeta=3, epsilon=0.5, max_length=500)
        for r in range(1, 501):
            assert any(s.d / 2 <= r <= s.d for s in ladder), r


class TestUnitHeadroom:
    """Lengths are integer counts of 1/U; a finite length must stay
    below INF in those units, or it would read as unreachable."""

    def test_ladder_rejects_lengths_at_inf(self):
        # ε = 0.123457 keeps a six-digit denominator, so U is large.
        eps = epsilon_as_fraction(0.123457)
        unit = 2 * 10 * eps.denominator
        assert eps.denominator > 10 ** 5
        with pytest.raises(ValueError, match="overflows"):
            scale_ladder(zeta=10, epsilon=0.123457,
                         max_length=INF // unit)
        # max_length·U alone is below INF here, but a path distance plus
        # the top scale's longest BFS length (≥ d·(1+ε/2) ≥ max_length
        # in G units) is not.
        with pytest.raises(ValueError, match="overflows"):
            scale_ladder(zeta=10, epsilon=0.123457,
                         max_length=INF // unit // 2)

    def test_ladder_accepts_large_exact_inputs(self):
        ladder = scale_ladder(zeta=10, epsilon=0.123457,
                              max_length=10 ** 9)
        top = ladder[-1]
        assert 10 ** 9 * top.unit + top.units(top.hop_budget) < INF

    def test_landmark_chains_rejected_before_any_round(self):
        # ζ = 1, ε = 1/2: U = 4 and the top scale's longest BFS length
        # is 5·2^56 units, below INF; four chained ones are not.
        scales = scale_ladder(zeta=1, epsilon=0.5, max_length=1 << 56)
        instance = path_with_chords_instance(8, seed=1, weighted=True)
        net = instance.build_network()
        tree = build_spanning_tree(net)
        rounds = net.ledger.rounds
        with pytest.raises(ValueError, match="landmarks overflow"):
            compute_landmark_distances_weighted(
                net, tree, [0, 1, 2, 3], scales,
                avoid_edges=instance.path_edge_set())
        assert net.ledger.rounds == rounds


epsilons = st.one_of(
    st.fractions(min_value=Fraction(1, 10 ** 6),
                 max_value=Fraction(999_999, 10 ** 6),
                 max_denominator=10 ** 6),
    st.floats(min_value=0.001, max_value=0.999).map(epsilon_as_fraction),
)
scales = st.builds(
    Scale,
    d=st.integers(min_value=1, max_value=1 << 20),
    zeta=st.integers(min_value=1, max_value=500),
    eps=epsilons,
)


class TestIntegerUnits:
    """The integer-unit accessors agree exactly with the Fraction API."""

    @given(scales, st.integers(min_value=0, max_value=10 ** 5))
    @settings(max_examples=200, deadline=None)
    def test_units_are_exact_lengths(self, scale, hops):
        mu = scale.eps * scale.d / (2 * scale.zeta)
        assert scale.mu == mu
        assert Fraction(scale.mu_units, scale.unit) == mu
        assert scale.length(hops) == hops * mu
        assert Fraction(scale.units(hops), scale.unit) == scale.length(hops)
        assert to_length(scale.units(hops), scale.unit) == scale.length(hops)
        assert to_units(scale.length(hops), scale.unit) == scale.units(hops)

    @given(scales)
    @settings(max_examples=200, deadline=None)
    def test_hop_budget_matches_formula(self, scale):
        assert scale.hop_budget == math.ceil(
            scale.zeta * (1 + Fraction(2) / scale.eps))

    @given(scales, st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_observation_7_3_in_units(self, scale, weight):
        # delay·μ_d ≥ w, and the ceiling is tight: one hop fewer falls
        # short of w.
        delay = scale.delay(weight)
        assert delay * scale.mu_units >= weight * scale.unit
        assert delay * scale.mu >= weight
        assert (delay - 1) * scale.mu_units < weight * scale.unit

    @given(st.integers(min_value=1, max_value=10 ** 6))
    def test_inf_survives_round_trip(self, unit):
        assert to_length(INF, unit) == INF
        assert to_units(INF, unit) == INF
