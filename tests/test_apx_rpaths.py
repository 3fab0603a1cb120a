"""End-to-end tests for Theorem 3 (approx.apx_rpaths): the (1+ε) sandwich
|st ⋄ e| ≤ x ≤ (1+ε)|st ⋄ e| against the centralized oracle, plus a
golden fixture that pins the exact values and ledgers.

Regenerate the fixture (only when a change is *meant* to move Theorem 3's
values or ledgers) with ``PYTHONPATH=src python -m tests.test_apx_rpaths``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.approx.apx_rpaths import solve_apx_rpaths
from repro.approx.intervals import interval_partition
from repro.baselines import replacement_lengths
from repro.congest.words import INF
from tests.conftest import family_instances


def assert_sandwich(instance, report, epsilon):
    truth = replacement_lengths(instance)
    for i, (got, want) in enumerate(zip(report.lengths, truth)):
        if want >= INF:
            assert got == float("inf"), (instance.name, i)
        else:
            assert want - 1e-9 <= got <= (1 + epsilon) * want + 1e-9, \
                (instance.name, i, got, want)


class TestSandwichWeighted:
    @pytest.mark.parametrize("idx", range(4))
    @pytest.mark.parametrize("epsilon", [0.5, 0.25])
    def test_full_landmarks(self, idx, epsilon):
        instance = family_instances(weighted=True)[idx]
        report = solve_apx_rpaths(
            instance, epsilon=epsilon,
            landmarks=list(range(instance.n)))
        assert_sandwich(instance, report, epsilon)

    @pytest.mark.parametrize("idx", range(4))
    def test_sampled_landmarks(self, idx):
        instance = family_instances(weighted=True)[idx]
        report = solve_apx_rpaths(instance, epsilon=0.5, seed=idx,
                                  landmark_c=3.0)
        assert_sandwich(instance, report, 0.5)


class TestSandwichUnweighted:
    @pytest.mark.parametrize("idx", range(6))
    def test_accepts_unweighted(self, idx):
        instance = family_instances()[idx]
        report = solve_apx_rpaths(
            instance, epsilon=0.5,
            landmarks=list(range(instance.n)))
        assert_sandwich(instance, report, 0.5)


class TestReport:
    def test_scale_count_logarithmic(self):
        instance = family_instances(weighted=True)[1]
        report = solve_apx_rpaths(instance, epsilon=0.5,
                                  landmarks=[0])
        total = sum(w for _, _, w in instance.edges)
        import math
        assert report.scale_count <= math.ceil(math.log2(total)) + 1

    def test_phase_breakdown(self):
        instance = family_instances(weighted=True)[0]
        report = solve_apx_rpaths(instance, epsilon=0.5,
                                  landmarks=list(range(instance.n)))
        breakdown = report.ledger.breakdown()
        assert "short-detour(P7.1)" in breakdown
        assert "long-detour(P7.11)" in breakdown

    def test_tighter_epsilon_never_looser(self):
        instance = family_instances(weighted=True)[2]
        loose = solve_apx_rpaths(instance, epsilon=0.5,
                                 landmarks=list(range(instance.n)))
        tight = solve_apx_rpaths(instance, epsilon=0.1,
                                 landmarks=list(range(instance.n)))
        truth = replacement_lengths(instance)
        for lo, hi, want in zip(tight.lengths, loose.lengths, truth):
            if want < INF:
                assert lo <= (1 + 0.1) * want + 1e-9


class TestIntervalPartition:
    def test_partition_covers(self):
        parts = interval_partition(10, 4)
        assert parts == [(0, 3), (4, 7), (8, 10)]

    def test_single_interval(self):
        assert interval_partition(3, 10) == [(0, 3)]

    def test_contiguity(self):
        parts = interval_partition(23, 5)
        for (l1, r1), (l2, r2) in zip(parts, parts[1:]):
            assert l2 == r1 + 1
        assert parts[0][0] == 0 and parts[-1][1] == 23

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            interval_partition(5, 0)


class TestIntervalWidthAblation:
    @pytest.mark.parametrize("width", [2, 5, 100])
    def test_any_width_preserves_sandwich(self, width, monkeypatch):
        # Force the interval width by monkeypatching the partition the
        # driver computes from n — the case analysis must hold for any
        # contiguous partition.
        import repro.approx.short_detour_approx as sda
        original = sda.interval_partition
        monkeypatch.setattr(
            sda, "interval_partition",
            lambda hop, _w: original(hop, width))
        instance = family_instances(weighted=True)[0]
        report = solve_apx_rpaths(
            instance, epsilon=0.5,
            landmarks=list(range(instance.n)))
        assert_sandwich(instance, report, 0.5)


# -- golden fixture -----------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "data" / "theorem3_golden.json"
GOLDEN_EPSILONS = (0.5, 0.25, 0.1)
GOLDEN_FABRICS = ("fast", "vector")
LEDGER_FIELDS = ("name", "rounds", "messages", "words", "max_link_words",
                 "violations")


def _exact(value):
    """``[type, "num/den"]`` — the value and its type, nothing rounded."""
    frac = Fraction(value)
    return [type(value).__name__,
            f"{frac.numerator}/{frac.denominator}"]


def theorem3_record(instance, epsilon, fabric):
    """Everything a Theorem 3 solve reports, in exact JSON form."""
    report = solve_apx_rpaths(instance, epsilon=epsilon, seed=1,
                              fabric=fabric)
    return {
        "lengths": [repr(x) for x in report.lengths],
        "short": [_exact(x) for x in report.extras["short"]],
        "long": [_exact(x) for x in report.extras["long"]],
        "ledger": [[stats.as_dict()[f] for f in LEDGER_FIELDS]
                   for stats in report.ledger.phases()],
    }


def golden_cells():
    for idx, instance in enumerate(family_instances(weighted=True)):
        for epsilon in GOLDEN_EPSILONS:
            yield f"{idx}:{instance.name}:eps={epsilon}", instance, epsilon


class TestTheorem3Golden:
    """Lengths, exact ``extras`` values with their types and the full
    per-phase ledger must match the committed fixture on both fabrics.

    ``TestWeightedApproxSolver`` compares the fabrics with each other;
    both share the ``repro.approx`` arithmetic, so only a fixed record
    catches a drift in that arithmetic.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_fixture_covers_every_cell(self, golden):
        assert sorted(golden) == sorted(key for key, _, _ in golden_cells())

    @pytest.mark.parametrize("fabric", GOLDEN_FABRICS)
    def test_matches_fixture(self, golden, fabric):
        for key, instance, epsilon in golden_cells():
            got = theorem3_record(instance, epsilon, fabric)
            assert got == golden[key], (key, fabric)


if __name__ == "__main__":
    records = {}
    for key, instance, epsilon in golden_cells():
        by_fabric = [theorem3_record(instance, epsilon, fabric)
                     for fabric in GOLDEN_FABRICS]
        assert all(r == by_fabric[0] for r in by_fabric), key
        records[key] = by_fabric[0]
    # One line per field keeps the fixture small and its diffs readable.
    cells = [
        f" {json.dumps(key)}: {{\n" + ",\n".join(
            f"  {json.dumps(field)}: {json.dumps(value)}"
            for field, value in record.items()) + "\n }"
        for key, record in records.items()
    ]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(cells) + "\n}\n")
    print(f"wrote {len(records)} cells to {GOLDEN}")
