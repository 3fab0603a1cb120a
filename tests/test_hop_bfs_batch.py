"""Property test: a batch of pruned hop-BFS runs vs. the runs one by one.

:func:`repro.core.hop_bfs.pruned_max_hop_bfs_batch` runs every run the
vector kernel takes in one stacked round loop.  Observably that must be
the same as running the message lane, ``_hop_bfs_message``, on each run
in order: the same tables, the same per-phase ledger in the same
first-opened order, and the same dispatch counters as dispatching each
run alone.  Hypothesis draws small weighted digraphs and 1-6 runs of
mixed sense, select, hop limit, early exit and delay (including steps
longer than every hop limit, and now and then an int64-unsafe aux word
that sends one run of the batch to the message lane), so a failure
shrinks to a minimal run set.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.congest import CongestNetwork
from repro.core.hop_bfs import (
    _hop_bfs_message,
    hop_bfs_run,
    pruned_max_hop_bfs,
    pruned_max_hop_bfs_batch,
)
from repro.telemetry import counters as counters_mod
from repro.telemetry import tooling

#: First integer past the kernels' int64-safe value range.
BIG = 1 << 63
MAX_HOPS = 8


def _same(w):
    return w


def _odd(w):
    return 2 * w - 1


def _long(w):
    return w + MAX_HOPS  # every step outreaches every hop limit


def _triple(w):
    return 3 * w  # some steps fit the hop limit, some do not


DELAYS = (None, _same, _odd, _long, _triple)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(
        st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
        max_size=3 * n, unique=True))
    weights = draw(st.lists(st.integers(min_value=1, max_value=6),
                            min_size=len(pairs), max_size=len(pairs)))
    return n, [(u, v, w) for (u, v), w in zip(pairs, weights)]


@st.composite
def runs(draw, n, edges, k):
    vertex = st.integers(min_value=0, max_value=n - 1)
    seed_at = draw(st.lists(vertex, unique=True, max_size=n))
    oversized = draw(st.integers(min_value=0, max_value=7)) == 0
    seeds = {}
    for v in seed_at:
        idx = draw(st.integers(min_value=-3, max_value=9))
        seeds[v] = (idx, (BIG if oversized else 7) + 3 * idx)
    avoid = draw(st.lists(st.sampled_from([(u, v) for u, v, _ in edges])
                          if edges else st.nothing(), unique=True))
    record = draw(st.one_of(st.none(),
                            st.lists(st.integers(min_value=-1,
                                                 max_value=n),
                                     unique=True)))
    return hop_bfs_run(
        seeds, draw(st.integers(min_value=0, max_value=MAX_HOPS)),
        avoid_edges=frozenset(avoid),
        delay=draw(st.sampled_from(DELAYS)), record_for=record,
        phase=f"run-{k}", run_full_budget=draw(st.booleans()),
        sense=draw(st.sampled_from(("backward", "forward"))),
        select=draw(st.sampled_from(("max", "min"))))


@st.composite
def batches(draw):
    n, edges = draw(graphs())
    count = draw(st.integers(min_value=1, max_value=6))
    return n, edges, [draw(runs(n, edges, k)) for k in range(count)]


def _ledger(net):
    return [stats.as_dict() for stats in net.ledger.phases()]


def _dispatch_counts():
    counters = counters_mod.registry.snapshot()["counters"]
    return sorted(tooling.dispatch_rows(counters))


@given(batches())
@settings(max_examples=150, deadline=None)
def test_batch_equals_message_lane_run_by_run(batch):
    n, edges, calls = batch

    oracle = CongestNetwork(n, edges, fabric="fast")
    want = [_hop_bfs_message(oracle, **call) for call in calls]

    counters_mod.registry.reset()
    alone = CongestNetwork(n, edges, fabric="vector")
    for call in calls:
        pruned_max_hop_bfs(
            alone, call["seeds"], call["hop_limit"], call["avoid_edges"],
            call["delay"], call["record_for"], call["name"],
            call["run_full_budget"], call["sense"], call["select"])
    counts_alone = _dispatch_counts()

    counters_mod.registry.reset()
    net = CongestNetwork(n, edges, fabric="vector")
    got = pruned_max_hop_bfs_batch(net, calls)
    counts_batch = _dispatch_counts()
    counters_mod.registry.reset()

    assert got == want
    assert _ledger(net) == _ledger(oracle)
    assert counts_batch == counts_alone
