"""Tests of the benchmark's own arithmetic (no daemon, no solver).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math

import pytest

from perfbench import layers, loadgen, run
from perfbench.common import ROOT
from perfbench.serve import EpochLog, _op_ms
from perfbench.solve import SOLVES


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class FakePending:
    def __init__(self, outcome: str, resolved_at: float) -> None:
        self.outcome = outcome
        self.resolved_at = resolved_at

    def result(self):
        return self


def _stalling_submit(clock: FakeClock, stall_at: int, stall_s: float):
    """Each request is answered 1 ms after it is submitted; request
    ``stall_at`` blocks the sender for ``stall_s`` first."""
    calls = []

    def submit(item):
        if len(calls) == stall_at:
            clock.now += stall_s
        calls.append(item)
        return FakePending("ok", clock.now + 0.001)

    return submit


def test_latency_counts_from_due_time_across_a_stall():
    clock = FakeClock()
    submit = _stalling_submit(clock, stall_at=5, stall_s=0.25)
    samples = loadgen.open_loop(submit, range(20), rate=100.0,
                                seconds=0.2, clock=clock,
                                sleep=clock.sleep)
    assert len(samples) == 20
    # Before the stall the generator is on time.
    assert all(s.late_s == 0.0 for s in samples[:6])
    assert samples[0].latency_s == pytest.approx(0.001)
    # Request 6 was due 10 ms after request 5 but went out 250 ms late;
    # measured from submit it looks like 1 ms, from due it is not.
    late = samples[6]
    assert late.late_s == pytest.approx(0.24)
    assert late.pending.resolved_at - late.sent == pytest.approx(0.001)
    assert late.latency_s == pytest.approx(0.241)
    # The stalled request itself waited 250 ms inside submit.
    assert samples[5].latency_s == pytest.approx(0.251)
    # Behind schedule, the sender fires back to back: the backlog
    # shrinks by one interval per request.
    assert samples[19].late_s == pytest.approx(0.11)
    assert loadgen.latency_ms(samples, 50) > 100.0


@pytest.mark.parametrize("outcome", ["overloaded", "timeout", "error",
                                     "worker-lost", "shutdown"])
def test_refused_and_failed_requests_are_infinitely_slow(outcome):
    samples = [loadgen.Sample(i, float(i), float(i),
                              FakePending("ok", i + 0.002))
               for i in range(98)]
    samples += [loadgen.Sample(i, 0.0, 0.0, FakePending(outcome, 0.0))
                for i in range(2)]
    assert loadgen.failed_count(samples) == 2
    assert math.isinf(samples[-1].latency_s)
    assert loadgen.latency_ms(samples, 50) == pytest.approx(2.0)
    # 2 of 100 failed: the 99th percentile lands on a failure.
    assert loadgen.latency_ms(samples, 99) == loadgen.FAILED_LATENCY_MS


def test_stale_answers_count_as_served():
    s = loadgen.Sample(0, 1.0, 1.0, FakePending("stale", 1.5))
    assert s.served and s.latency_s == pytest.approx(0.5)


def test_percentile_interpolates_and_keeps_infinity():
    assert loadgen.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert loadgen.percentile([5.0], 99) == 5.0
    assert loadgen.percentile([1.0, 2.0, math.inf], 50) == 2.0
    assert math.isinf(loadgen.percentile([1.0, 2.0, math.inf], 75))
    with pytest.raises(ValueError):
        loadgen.percentile([], 50)


def test_closed_loop_keeps_the_window_and_counts_completions():
    clock = FakeClock()
    inflight = []

    def submit(item):
        clock.now += 0.01  # each request costs 10 ms of the phase
        inflight.append(item)
        return FakePending("ok", clock.now)

    report = loadgen.closed_loop(submit, range(10_000), clients=1,
                                 window=4, seconds=1.0, clock=clock)
    # 10 ms per request over a 1 s phase; the window's tail is drained
    # after the deadline and not counted.
    assert report.completed == pytest.approx(100, abs=4)
    assert report.qps == pytest.approx(report.completed / 1.0)
    assert len(report.samples) == len(inflight)


def _span(i, parent, name, start, wall, pid=1):
    return {"pid": pid, "id": i, "parent": parent, "name": name,
            "start": start, "wall": wall}


def test_self_time_subtracts_children():
    tree = layers.SpanTree([
        _span(0, -1, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 3.0),
        _span(2, 0, "b", 5.0, 4.0),
        _span(3, 2, "c", 6.0, 1.0),
    ])
    root = tree.find_roots("root")[0]
    assert tree.self_time(root) == pytest.approx(3.0)
    assert tree.self_time((1, 2)) == pytest.approx(3.0)
    assert tree.self_time((1, 3)) == pytest.approx(1.0)


def test_self_time_takes_the_union_of_overlapping_children():
    tree = layers.SpanTree([
        _span(0, -1, "root", 0.0, 10.0),
        _span(1, 0, "x", 1.0, 4.0),   # [1, 5)
        _span(2, 0, "y", 3.0, 4.0),   # [3, 7) overlaps x
        _span(3, 0, "z", 9.0, 3.0),   # [9, 12) clipped to [9, 10)
    ])
    assert tree.self_time((1, 0)) == pytest.approx(10.0 - 6.0 - 1.0)


def test_spans_of_different_processes_do_not_mix():
    tree = layers.SpanTree([
        _span(0, -1, "root", 0.0, 2.0, pid=1),
        _span(0, -1, "root", 0.0, 5.0, pid=2),
        _span(1, 0, "child", 0.0, 1.0, pid=2),
    ])
    assert sorted(tree.roots) == [(1, 0), (2, 0)]
    assert tree.self_time((1, 0)) == pytest.approx(2.0)
    assert tree.self_time((2, 0)) == pytest.approx(4.0)


def test_attribution_partitions_the_root_with_an_unattributed_row():
    spans = [
        _span(0, -1, "perfbench/solve", 0.0, 10.0),
        _span(1, 0, "solve/rpaths", 0.5, 9.0),
        _span(2, 1, "phase/knowledge(L2.5)", 1.0, 1.0),
        _span(3, 2, "kernel/broadcast", 1.2, 0.5),
        _span(4, 3, "phase/knowledge-broadcast", 1.3, 0.3),
        _span(5, 1, "phase/long-detour(P5.1)", 3.0, 6.0),
        _span(6, 5, "phase/landmark-distances(L5.4/5.6)", 3.0, 5.0),
        _span(7, 6, "kernel/multisource", 3.5, 2.0),
        _span(8, 7, "phase/kBFS-forward(L5.5)", 3.6, 1.8),
        _span(9, 6, "kernel/broadcast", 6.0, 1.5),
        _span(10, 9, "phase/pair-broadcast(L2.4)", 6.0, 1.5),
    ]
    tree = layers.SpanTree(spans)
    root = tree.find_roots("perfbench/solve")[0]
    phases = layers.attribute(tree, root, layers.theorem1_rule)
    assert phases == pytest.approx({
        "knowledge": 1.0,
        "kbfs": 2.0,
        "pair_broadcast": 1.5,
        # long-detour minus landmark-distances
        "segments": 1.0,
        # perfbench + solve/rpaths self, landmark-distances glue
        "unattributed": 1.0 + 2.0 + 1.5,
    })
    assert sum(phases.values()) == pytest.approx(10.0)
    kernels = layers.attribute(tree, root, layers.kernel_rule)
    assert kernels == pytest.approx({"broadcast": 2.0, "multisource": 2.0,
                                     "unattributed": 6.0})


def test_theorem3_rule_buckets():
    tree = layers.SpanTree([
        _span(0, -1, "perfbench/solve", 0.0, 4.0),
        _span(1, 0, "phase/approximators(L7.5)", 0.0, 1.0),
        _span(2, 0, "phase/landmark-distances(P7.11)", 1.0, 2.5),
    ])
    got = layers.attribute(tree, (1, 0), layers.theorem3_rule)
    assert got == pytest.approx({"approximators": 1.0,
                                 "landmark_distances": 2.5,
                                 "unattributed": 0.5})


def test_epoch_window_brackets_the_worker_epoch():
    log = EpochLog()
    log.record("g", 1, called=10.0, returned=10.1)
    log.record("g", 2, called=20.0, returned=20.1)
    # Sent before epoch 1 was visible, resolved after it began.
    assert log.window("g", 0, sent=10.05, resolved=10.5) == (0, 1)
    # Sent and resolved between bursts: exactly epoch 1.
    assert log.window("g", 0, sent=15.0, resolved=15.1) == (1, 1)
    assert log.window("g", 0, sent=25.0, resolved=25.1) == (2, 2)
    assert log.window("other", 0, sent=25.0, resolved=25.1) == (0, 0)


def test_op_ms_is_the_median_block_wall_over_the_first_answers():
    clock = FakeClock()
    calls = []

    def submit(item):
        calls.append(item)
        # 10 ms per answer with one 1 s stall; from the 31st on, 50 ms.
        if len(calls) == 7:
            clock.sleep(1.0)
        else:
            clock.sleep(0.01 if len(calls) <= 30 else 0.05)
        return FakePending("ok", clock())

    report = loadgen.closed_loop(submit, range(100), clients=1, window=1,
                                 seconds=2.0, clock=clock)
    # Six blocks of five over the first 30 answers: one spans the
    # stall, the median does not; later answers are not counted.
    assert _op_ms(report, answers=30, block=5) == pytest.approx(10.0)
    with pytest.raises(AssertionError):
        _op_ms(report, answers=1000, block=5)


def test_complete_fills_absent_layers_with_zero_only_when_traced():
    wanted = {"a_s": "s", "b": "count"}
    traced = {"a_s": {"value": 1.5, "unit": "s"}}
    run.complete(traced, wanted, trace=True)
    assert traced["b"] == {"value": 0.0, "unit": "count"}
    with pytest.raises(AssertionError):
        run.complete({"a_s": {"value": 1.5, "unit": "s"}}, wanted,
                     trace=False)
    with pytest.raises(AssertionError):
        run.complete({"a_s": {"value": 1.5, "unit": "ms"},
                      "b": {"value": 1.0, "unit": "count"}}, wanted,
                     trace=False)


def _expand(name):
    """spec.json's ``<thm1>`` and ``<solve>`` placeholders."""
    for marker, solves in (("<thm1>", SOLVES[:2]), ("<solve>", SOLVES)):
        if marker in name:
            return [name.replace(marker, s) for s in solves]
    return [name]


def test_spec_describes_every_manifest_metric():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    for key in ("end_to_end", "per_layer"):
        names = [m["name"] for m in manifest[key]]
        described = [n for raw in spec[key] for n in _expand(raw)]
        assert sorted(names) == sorted(described), key
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
