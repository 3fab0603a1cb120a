"""Characterization of the five CI perf gates.

Each case feeds one bench's gate the committed ``benchmarks/BENCH_*.json``
(as both the run and the baseline) with a few fields edited, and pins
which families the gate flags.  No measurement runs here.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import _util  # noqa: E402

BENCHES = ("fabric", "solver", "serve", "dynamic", "scale")
DELETE = object()


def _module(bench):
    return importlib.import_module(f"bench_{bench}")


def _committed(bench):
    return json.loads((BENCH_DIR / f"BENCH_{bench}.json").read_text())


def _edit(payload, edits):
    for path, value in edits.items():
        *parents, key = path.split("/")
        node = payload
        for part in parents:
            node = node[part]
        if value is DELETE:
            del node[key]
        else:
            node[key] = value


def flagged(bench, run, baseline):
    """Sorted labels (family, or single-row section) the gate flags."""
    problems = _util.check(run, _module(bench).RULES, baseline)
    return sorted({p.split(":")[0] for p in problems})


@pytest.mark.parametrize("bench", BENCHES)
def test_committed_baseline_passes_its_own_gate(bench):
    assert flagged(bench, _committed(bench), _committed(bench)) == []


F = "families"
V = "vector_families"
CASES = [
    # -- fabric: plain tolerance on replay ratios, doubled on vector ----
    ("fabric", "gate-family-below-3x",
     {f"{F}/scaling-expander/speedup_fast": 2.9}, {},
     ["scaling-expander"]),
    ("fabric", "vector-below-5x",
     {f"{V}/vector-hard/speedup_vector": 4.9},
     {f"{V}/vector-hard/speedup_vector": 6.0}, ["vector-hard"]),
    ("fabric", "plain-tolerance-inside",
     {f"{F}/expander/speedup_fast": 2.8}, {}, []),
    ("fabric", "plain-tolerance-outside",
     {f"{F}/expander/speedup_fast": 2.7}, {}, ["expander"]),
    ("fabric", "doubled-tolerance-inside",
     {f"{V}/vector-expander/speedup_vector": 17.5}, {}, []),
    ("fabric", "doubled-tolerance-outside",
     {f"{V}/vector-expander/speedup_vector": 16.9}, {},
     ["vector-expander"]),
    ("fabric", "missing-replay-family",
     {f"{F}/power-law": DELETE}, {}, ["power-law"]),
    ("fabric", "missing-vector-family",
     {f"{V}/vector-hard": DELETE}, {}, ["vector-hard"]),
    # -- solver: every ratio doubled; oracle build is one row ----------
    ("solver", "solve-below-5x",
     {f"{F}/solve-expander-256-3way/speedup_vector": 4.9},
     {f"{F}/solve-expander-256-3way/speedup_vector": 6.0},
     ["solve-expander-256-3way"]),
    ("solver", "doubled-tolerance-inside",
     {f"{F}/solve-hard-instance/speedup_vector": 15.0}, {}, []),
    ("solver", "doubled-tolerance-outside",
     {f"{F}/solve-hard-instance/speedup_vector": 14.0}, {},
     ["solve-hard-instance"]),
    ("solver", "oracle-build-below-2x",
     {"oracle_build/speedup_vector": 1.9},
     {"oracle_build/speedup_vector": 3.0}, ["oracle_build"]),
    ("solver", "oracle-build-ratio-inside",
     {"oracle_build/speedup_vector": 8.0}, {}, []),
    ("solver", "oracle-build-ratio-outside",
     {"oracle_build/speedup_vector": 7.5}, {}, ["oracle_build"]),
    ("solver", "oracle-build-without-baseline-row",
     {"oracle_build/speedup_vector": 3.0}, {"oracle_build": DELETE}, []),
    ("solver", "missing-family",
     {f"{F}/solve-power-law-2048": DELETE}, {}, ["solve-power-law-2048"]),
    # -- serve: ratios only within one quick mode ----------------------
    ("serve", "oracle-hit-below-20x",
     {"quick": False, f"{F}/oracle-hit/speedup": 19.0}, {},
     ["oracle-hit"]),
    ("serve", "batched-below-1x",
     {"quick": False, f"{F}/zipf-batched/speedup": 0.9}, {},
     ["zipf-batched"]),
    ("serve", "daemon-below-5x",
     {"quick": False, f"{F}/daemon-loop/speedup": 4.9}, {},
     ["daemon-loop"]),
    ("serve", "daemon-p95-at-ceiling",
     {f"{F}/daemon-loop/p95_ms": 75.0}, {}, []),
    ("serve", "daemon-p95-over-ceiling",
     {f"{F}/daemon-loop/p95_ms": 80.0}, {}, ["daemon-loop"]),
    ("serve", "plain-tolerance-inside",
     {f"{F}/adversarial-batched/speedup": 1.55}, {}, []),
    ("serve", "plain-tolerance-outside",
     {f"{F}/adversarial-batched/speedup": 1.45}, {},
     ["adversarial-batched"]),
    ("serve", "quick-mismatch-skips-ratio",
     {"quick": False, f"{F}/adversarial-batched/speedup": 1.45}, {}, []),
    ("serve", "missing-family",
     {f"{F}/zipf-batched": DELETE}, {}, ["zipf-batched"]),
    # -- dynamic: incremental ratio per mode, storm contract -----------
    ("dynamic", "incremental-below-5x",
     {"quick": False, f"{F}/incremental-invalidation/speedup": 4.9}, {},
     ["incremental-invalidation"]),
    ("dynamic", "plain-tolerance-inside",
     {f"{F}/incremental-invalidation/speedup": 6.0}, {}, []),
    ("dynamic", "plain-tolerance-outside",
     {f"{F}/incremental-invalidation/speedup": 5.9}, {},
     ["incremental-invalidation"]),
    ("dynamic", "quick-mismatch-skips-ratio",
     {"quick": False, f"{F}/incremental-invalidation/speedup": 5.9}, {},
     []),
    ("dynamic", "storm-no-stale",
     {f"{F}/storm-degraded/stale": 0}, {}, ["storm-degraded"]),
    ("dynamic", "storm-p95-over-ceiling",
     {f"{F}/storm-degraded/p95_ms": 75.5}, {}, ["storm-degraded"]),
    ("dynamic", "storm-not-converged",
     {f"{F}/storm-degraded/converged": False}, {}, ["storm-degraded"]),
    # -- scale: diet floors, CPU-tier fan-out, peak RSS ----------------
    ("scale", "diet-below-floor",
     {f"{F}/diet-65536/ratio": 1.4}, {}, ["diet-65536"]),
    ("scale", "diet-plain-tolerance-inside",
     {f"{F}/diet-65536/ratio": 1.7}, {f"{F}/diet-65536/ratio": 2.2}, []),
    ("scale", "diet-plain-tolerance-outside",
     {f"{F}/diet-65536/ratio": 1.6}, {f"{F}/diet-65536/ratio": 2.2},
     ["diet-65536"]),
    ("scale", "fanout-1-cpu-report-only",
     {f"{F}/fanout-kbfs-32768/speedup_fanout": 0.1}, {}, []),
    ("scale", "fanout-2-cpus-inside",
     {f"{F}/fanout-kbfs-32768/cpus": 2,
      f"{F}/fanout-kbfs-32768/speedup_fanout": 1.25}, {}, []),
    ("scale", "fanout-2-cpus-below-floor",
     {f"{F}/fanout-kbfs-32768/cpus": 2,
      f"{F}/fanout-kbfs-32768/speedup_fanout": 1.1}, {},
     ["fanout-kbfs-32768"]),
    ("scale", "fanout-3-cpus-below-floor",
     {f"{F}/fanout-kbfs-32768/cpus": 3,
      f"{F}/fanout-kbfs-32768/speedup_fanout": 1.1}, {},
     ["fanout-kbfs-32768"]),
    ("scale", "fanout-4-cpus-inside",
     {f"{F}/fanout-kbfs-32768/cpus": 4,
      f"{F}/fanout-kbfs-32768/speedup_fanout": 2.1}, {}, []),
    ("scale", "fanout-4-cpus-below-floor",
     {f"{F}/fanout-kbfs-32768/cpus": 4,
      f"{F}/fanout-kbfs-32768/speedup_fanout": 1.9}, {},
     ["fanout-kbfs-32768"]),
    ("scale", "fanout-ratio-both-multicore-inside",
     {f"{F}/fanout-kbfs-32768/cpus": 2,
      f"{F}/fanout-kbfs-32768/speedup_fanout": 2.1},
     {f"{F}/fanout-kbfs-32768/cpus": 2,
      f"{F}/fanout-kbfs-32768/speedup_fanout": 4.0}, []),
    ("scale", "fanout-ratio-both-multicore-outside",
     {f"{F}/fanout-kbfs-32768/cpus": 2,
      f"{F}/fanout-kbfs-32768/speedup_fanout": 1.9},
     {f"{F}/fanout-kbfs-32768/cpus": 2,
      f"{F}/fanout-kbfs-32768/speedup_fanout": 4.0},
     ["fanout-kbfs-32768"]),
    ("scale", "fanout-ratio-skipped-single-core-baseline",
     {f"{F}/fanout-kbfs-32768/cpus": 2,
      f"{F}/fanout-kbfs-32768/speedup_fanout": 1.3},
     {f"{F}/fanout-kbfs-32768/speedup_fanout": 4.0}, []),
    ("scale", "fanout-ratio-skipped-single-core-run",
     {f"{F}/fanout-kbfs-32768/speedup_fanout": 0.5},
     {f"{F}/fanout-kbfs-32768/cpus": 2,
      f"{F}/fanout-kbfs-32768/speedup_fanout": 4.0}, []),
    ("scale", "peak-rss-at-ceiling",
     {"peak_rss/self_mib": 3072.0}, {}, []),
    ("scale", "peak-rss-over-ceiling",
     {"peak_rss/self_mib": 3100.0}, {}, ["peak_rss"]),
    ("scale", "missing-solve-family",
     {f"{F}/solve-expander-65536": DELETE}, {},
     ["solve-expander-65536"]),
    ("scale", "missing-fanout-family",
     {f"{F}/fanout-kbfs-32768": DELETE}, {}, ["fanout-kbfs-32768"]),
    ("scale", "missing-diet-family",
     {f"{F}/diet-32768": DELETE}, {}, ["diet-32768"]),
]


@pytest.mark.parametrize(
    "bench,run_edits,baseline_edits,expected",
    [pytest.param(bench, run, base, want, id=f"{bench}-{name}")
     for bench, name, run, base, want in CASES])
def test_gate_flags(bench, run_edits, baseline_edits, expected):
    run, baseline = _committed(bench), _committed(bench)
    _edit(run, run_edits)
    _edit(baseline, baseline_edits)
    assert flagged(bench, run, baseline) == expected

