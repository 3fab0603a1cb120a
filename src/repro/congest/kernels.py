"""NumPy array kernels: whole-frontier CONGEST rounds without messages.

``fabric="vector"`` keeps the batched exchange engine for explicit
``exchange`` calls, but routes **every round loop of the Theorem 1
solver** through whole-structure computation over the frozen CSR
arrays (:meth:`~repro.congest.topology.CSRTopology.arrays` /
:meth:`~repro.congest.topology.CSRTopology.send_arrays`): the pruned
hop-BFS of Lemma 4.2 (a batch of runs at once), the k-source hop BFS of
Lemma 5.5, the
pipelined tree broadcast of Lemma 2.4 (per-item, plus a schedule-free
uniform-size path), the Lemma 2.5 path-chain flood, the descending
ζ-round DP pipeline of Lemma 4.4, the segment prefix/suffix sweeps of
Lemmas 5.7/5.9 and their one-hop shift, and the BFS spanning-tree
flood.  One synchronous round becomes a handful of vectorized
operations (frontier gathers via CSR range expansion, delay-shifted
scheduling buckets, segmented max/min via
``np.maximum.at``/``np.minimum.at``) instead of one Python tuple per
(sender, target) pair — and closed-form schedules (chain gaps, DP
rounds, disjoint sweep groups, uniform broadcasts) charge whole
executions in bulk via
:meth:`~repro.congest.metrics.RoundLedger.charge_rounds` without
walking rounds at all.

The contract, asserted by ``tests/test_kernel_equivalence.py`` and
``tests/test_solver_equivalence.py``, is **bit-identical
observables**: the kernels return exactly the result tables the
message engines return, and charge the
:class:`~repro.congest.metrics.RoundLedger` exactly the same per-phase
rounds, message counts, word totals, per-link maxima, and violation
counts.  The message engines stay the semantic oracles; the
conditions under which a kernel can guarantee parity for a given call
(functional auxiliary words, no ``record_link_totals`` cut analysis,
NumPy present, no key-encoding overflow, declarative sweep tasks) are
declared as per-primitive constraints in the registry of
:mod:`repro.congest.dispatch`, whose :func:`~repro.congest.dispatch.
dispatch` entry point routes every call and falls back to the message
path on the first failing constraint.  (The historical applicability
predicates lived here as deprecated shims for one release; they are
gone — the registry is the only gatekeeper.)

The pruned hop-BFS kernel takes a *batch*: Theorem 3's Lemma 7.5
floods every rounding graph G_d of the scale ladder in both senses,
2·|ladder| runs of ζ* rounds whose per-round work is small, so one
kernel call per run paid the per-round NumPy overhead that many times.
The batch stacks the runs into one graph (run r's vertex v is slot
r·n + v) and runs one round loop; a delay ring of min(max step,
ζ* + 1) × runs × n int64 cells replaces per-arrival-hop buckets.  Each
run's phase is opened and bulk-charged after the loop, in run order.
In a trace, the per-scale ``phase/scaled-bfs(d=…)`` and
``phase/scaled-bfs-rev(d=…)`` spans therefore keep their ledger deltas
but carry almost no wall time: the flood's wall time sits in the one
``kernel/hop_bfs`` span under ``phase/approximators(L7.5)``.

NumPy is imported lazily (module import never touches it), so the
message engines remain importable — and fully functional — without it.

The topology exports the kernels gather over follow the int32 memory
diet (:class:`~repro.congest.topology.TopologyArrays`): indptr/
indices/steps arrive as int32 whenever the value ranges permit and
are **read-only**.  Kernels treat them as addressing data; any
arithmetic that can outgrow int32 (hop sums against the budget, key
encodings ``d·k + rank``) is performed in int64, upcasting at the
gather site.  Value/distance arrays (INF sentinels at 2^60) always
stay int64.

Ledger parity leans on one structural invariant of the round-loop
kernels: in any round, each directed link carries at most one message,
and all messages of the round have the same word size.  The per-round
charge is therefore ``(M messages, M·size words, max_link = size,
violations = M·[size > bandwidth])`` — exactly what
:func:`~repro.congest.fastpath.exchange_batch` computes message by
message — and aggregating it over a whole schedule is exact because
phase stats only ever hold aggregates.  The per-item broadcast kernel
charges per-item sizes the same way the per-link FIFO engine does.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import (
    Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple,
)

from ..telemetry import trace as _trace
from .errors import BandwidthExceededError
from .words import INF, words_of

Value = Tuple[int, int]
EdgeSet = FrozenSet[Tuple[int, int]]

#: Wire size of the BFS kernel messages.  Both schedules send
#: ``(tag, int, int)`` tuples whose tag is at most 8 characters, so the
#: size is independent of the carried values.
HOP_MESSAGE_WORDS = words_of(("hopv", 0, 0))

#: Magnitude bound for values packed into int64 kernel arrays.
_INT64_SAFE = 1 << 62

_NUMPY = None
_NUMPY_CHECKED = False


def numpy_or_none():
    """NumPy module, or None when unavailable (checked once, lazily)."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        try:
            import numpy
            _NUMPY = numpy
        except ImportError:  # pragma: no cover - numpy is baked in CI
            _NUMPY = None
        _NUMPY_CHECKED = True
    return _NUMPY


def _kernel_span(kernel: str):
    """Wrap a vector kernel in a ``kernel/<name>`` span when tracing.

    When the first argument carries a ledger (the ``net``-taking
    kernels), the span joins it and reports the kernel's own
    rounds/messages/words deltas.  Tracing off costs one boolean.
    """
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _trace._ENABLED:
                return fn(*args, **kwargs)
            with _trace.span("kernel/" + kernel) as sp:
                ledger = getattr(args[0], "ledger", None) if args else None
                if ledger is not None:
                    sp.set_ledger(ledger)
                return fn(*args, **kwargs)
        return wrapper
    return deco


def vector_gate_reason(net) -> Optional[str]:
    """The global-gate fallback reason for ``net``, or None when the
    array kernels may run.

    Requires the vector fabric, NumPy, and no per-link total recording
    (the lower-bound cut analysis wants genuine per-message routing).
    The gates themselves are declared once, as data, in
    :data:`repro.congest.dispatch.GLOBAL_GATES`; the returned strings
    are members of the registry-derived reason set
    (:func:`repro.telemetry.dispatch.known_reasons`).
    """
    from .dispatch import GLOBAL_GATES
    for gate in GLOBAL_GATES:
        if not gate.check(net, {}):
            return gate.reason
    return None


def vector_enabled(net) -> bool:
    """Should ``net`` route kernel-covered primitives through arrays?"""
    return vector_gate_reason(net) is None


def _fits_int64(value: int) -> bool:
    return -_INT64_SAFE < value < _INT64_SAFE


def _expand_ranges(np, starts, counts, total: int):
    """Concatenated ``[starts[i], starts[i]+counts[i])`` slot indices."""
    shifts = np.concatenate(
        (np.zeros(1, dtype=np.int64),
         np.cumsum(counts, dtype=np.int64)[:-1]))
    return np.repeat(starts - shifts, counts) + np.arange(
        total, dtype=np.int64)


def charge_uniform_rounds(net, rounds: int, messages: int, size: int,
                          senders: Sequence[int],
                          targets: Sequence[int]) -> None:
    """Bulk-charge a whole schedule of equal-size, distinct-link rounds.

    ``messages`` is the total over all ``rounds``; every message has
    ``size`` words and rides a link of its own, so the aggregate charge
    (``rounds`` rounds, ``messages·size`` words, per-round link max of
    ``size``, one violation per oversized message) is exactly what
    per-round :func:`~repro.congest.fastpath.exchange_batch` calls
    would accumulate.  Under strict mode an oversized message aborts
    the schedule inside its first round, exactly like the message
    engines: the first round is charged alone and the same
    first-overload error raised over the round-1 ``(sender, target)``
    pairs (the callers pass exactly the links of round 1).
    """
    if rounds <= 0:
        return
    ledger = net.ledger
    if messages and size > net.bandwidth_words:
        if net.strict:
            first = len(senders)
            ledger.charge_round(first, first * size, size, first)
            _raise_first_overload(net, senders, targets, size)
        ledger.charge_rounds(rounds, messages, messages * size, size,
                             messages)
    else:
        ledger.charge_rounds(rounds, messages, messages * size,
                             size if messages else 0, 0)


def _charge_uniform_round(net, messages: int, size: int) -> None:
    """Charge one round of equal-size messages on distinct links.

    Mirrors :func:`~repro.congest.fastpath.exchange_batch` for the BFS
    kernels' schedules (at most one message per directed link): the
    ledger is charged *before* a strict-mode overload raises, exactly
    like the message engines, so post-mortem ledgers stay truthful.
    """
    if messages:
        violations = messages if size > net.bandwidth_words else 0
        net.ledger.charge_round(messages, messages * size, size,
                                violations)
    else:
        net.ledger.charge_round(0, 0, 0)


def _raise_first_overload(net, senders, targets, size: int) -> None:
    """Cold path: raise the same first-overload error the fabric would.

    ``exchange_batch`` reports the overloaded link with the smallest
    receiver-major link id; replicate that ordering over the round's
    (sender, target) pairs.
    """
    topology = net.topology
    best = None
    for u, x in zip(senders, targets):
        lid = topology.link_id(int(u), int(x))
        if best is None or lid < best[0]:
            best = (lid, int(u), int(x))
    assert best is not None
    raise BandwidthExceededError(best[1], best[2], size,
                                 net.bandwidth_words)


# -- pruned hop-BFS (Lemma 4.2) ---------------------------------------------


@_kernel_span("hop_bfs")
def pruned_max_hop_bfs_vector(
    net,
    runs: Sequence[Tuple[Mapping[str, object], object]],
) -> List[Dict[int, List[Optional[Value]]]]:
    """Whole-frontier rounds of a batch of pruned hop-BFS runs (Lemma 4.2).

    ``runs`` holds ``(call, plan)`` pairs: ``call`` carries the keywords
    of the message path ``repro.core.hop_bfs._hop_bfs_message``, and
    ``plan`` the send-arrays triple the dispatcher's prepare hook built
    (before anything is charged, so a pathological delay function
    overflows first and the dispatcher falls back).  Returns one table
    per run, bit-identical to the message path run on each call in
    order, with the same per-phase ledger.

    All runs share one round loop.  Run r's vertex v is slot r·n + v of
    a stacked graph whose send plan concatenates the per-run plans; a
    min-select run stores negated path indices, so one ``np.maximum.at``
    serves both senses.  Arrivals wait in a delay ring of
    min(max step, max hop limit + 1) rows of runs·n cells (int32 when
    the path indices fit), one row per pending arrival hop, so a round
    is one CSR range expansion, one segmented max and one row settle
    however long the delays are.  Runs never interact: each keeps its
    own hop budget and early exit, and the loop stops once every run
    is quiescent.

    Nothing is charged inside the loop.  Afterwards each run's phase is
    opened in order and charged in bulk: its rounds (the full budget,
    or up to the round that found it quiescent) and its messages (its
    senders' out-degrees over the rounds they sent in, summed per run).
    Under a strict overload the first run that sent anything is charged
    its first round and raises the message path's error, so later runs
    are never charged, as in the message path.
    """
    np = numpy_or_none()
    n = net.n
    count = len(runs)
    width = count * n
    size = HOP_MESSAGE_WORDS
    # Keys are (signed) path indices: int32 halves the ring when they
    # fit, and the dtype's minimum marks "nothing arrived".
    widest = max((abs(value[0]) for call, _ in runs
                  for value in call["seeds"].values()), default=0)
    key_dtype = np.int32 if widest <= np.iinfo(np.int32).max else np.int64
    sent_none = int(np.iinfo(key_dtype).min)
    limits = [call["hop_limit"] for call, _ in runs]
    horizon = max(max(limits), 0)
    uniform = min(limits) == horizon

    # The stacked send plan (int64: slot ids outgrow the int32 diet).
    edge_base = 0
    indptr_parts, index_parts, step_parts = [], [], []
    for r, (_, (plan_ptr, plan_idx, plan_steps)) in enumerate(runs):
        indptr_parts.append(plan_ptr[:-1].astype(np.int64) + edge_base)
        index_parts.append(plan_idx.astype(np.int64) + r * n)
        step_parts.append(plan_steps.astype(np.int64, copy=False))
        edge_base += len(plan_idx)
    indptr_parts.append(np.array([edge_base], dtype=np.int64))
    indptr = np.concatenate(indptr_parts)
    indices = np.concatenate(index_parts)
    steps = np.concatenate(step_parts)
    max_step = int(steps.max()) if steps.size else 1
    unit_steps = max_step == 1
    # Arrivals are due at most max_step - 1 hops after the round that
    # sends them, so a ring of max_step rows holds every pending hop;
    # when that outreaches the horizon, rows are indexed by hop (no
    # wrap).  One extra cell past the ring swallows the arrivals past
    # their run's budget.
    wrap = max_step <= horizon
    ring_rows = max_step if wrap else horizon + 1
    dump = ring_rows * width
    ring_flat = np.full(dump + 1, sent_none, dtype=key_dtype)
    ring = ring_flat[:dump].reshape(ring_rows, width)
    limit_of = None if uniform else np.repeat(
        np.asarray(limits, dtype=np.int64), n)

    seed_slots, seed_keys, records = [], [], []
    for r, (call, _) in enumerate(runs):
        seeds = call["seeds"]
        sign = 1 if call["select"] == "max" else -1
        seed_slots.append(np.fromiter(seeds.keys(), dtype=np.int64,
                                      count=len(seeds)) + r * n)
        seed_keys.append(sign * np.fromiter(
            (value[0] for value in seeds.values()), dtype=np.int64,
            count=len(seeds)))
        record_for = call["record_for"]
        record = set(range(n) if record_for is None else record_for)
        records.append((record, [u for u in record if 0 <= u < n]))
    fr = np.concatenate(seed_slots)
    keys = np.concatenate(seed_keys).astype(key_dtype)
    rec_slots = np.concatenate([
        np.asarray(verts, dtype=np.int64) + r * n
        for r, (_, verts) in enumerate(records)])
    # last[r]: the latest hop run r settled anything at (-1: nothing);
    # an early-exit run stops before the round after it.
    early_exit = not all(call["run_full_budget"] for call, _ in runs)
    last = np.full(count, -1, dtype=np.int64)
    last[fr // n] = 0
    if limit_of is not None:
        live = limit_of[fr] > 0
        fr, keys = fr[live], keys[live]
    sends = np.zeros(width, dtype=np.int64)
    snapshots = []
    pending = 0  # no arrival is scheduled past this hop

    for d in range(1, horizon + 1):
        if not fr.size and d > pending:
            break
        if fr.size:
            counts = indptr[fr + 1] - indptr[fr]
            total = int(counts.sum())
            sends[fr] += 1
            if total:
                slots = _expand_ranges(np, indptr[fr], counts, total)
                targets = indices[slots]
                sent_keys = np.repeat(keys, counts)
                if unit_steps:
                    pending = d
                else:
                    arrive = (d - 1) + steps[slots]
                    keep = arrive <= (horizon if uniform
                                      else limit_of[targets])
                    if wrap:
                        arrive %= ring_rows
                    targets = np.where(keep, arrive * width + targets,
                                       dump)
                    pending = min(d - 1 + max_step, horizon)
                np.maximum.at(ring_flat, targets, sent_keys)
        row = ring[d % ring_rows]
        snapshots.append(row[rec_slots])
        fr = np.flatnonzero(row != sent_none)
        keys = row[fr]
        row[fr] = sent_none
        if early_exit:
            last[fr // n] = d
        if limit_of is not None:
            live = limit_of[fr] > d
            fr, keys = fr[live], keys[live]

    # Each sender sends once per out-edge in every round it is settled.
    messages = (sends * np.diff(indptr)).reshape(count, n).sum(axis=1)
    settled = (np.stack(snapshots) if snapshots
               else np.zeros((0, rec_slots.size), dtype=key_dtype))
    overload = net.strict and size > net.bandwidth_words
    out: List[Dict[int, List[Optional[Value]]]] = []
    col = 0
    for r, (call, plan) in enumerate(runs):
        limit = limits[r]
        rounds = (limit if call["run_full_budget"]
                  else min(limit, int(last[r]) + 1))
        sent = int(messages[r])
        senders = targets = ()
        if overload and sent:
            senders, targets = _seed_links(np, call["seeds"], plan)
        with net.ledger.phase(call["name"]):
            charge_uniform_rounds(net, rounds, sent, size, senders,
                                  targets)
        seeds = call["seeds"]
        record, verts = records[r]
        tables: Dict[int, List[Optional[Value]]] = {
            u: [None] * (limit + 1) for u in record}
        for u, value in seeds.items():
            if u in record:
                tables[u][0] = value
        block = settled[:max(limit, 0), col:col + len(verts)]
        col += len(verts)
        sign = 1 if call["select"] == "max" else -1
        aux_of = {value[0]: value[1] for value in seeds.values()}
        value_of = {key: (sign * key, aux_of[sign * key])
                    for key in np.unique(block).tolist()
                    if key != sent_none}
        value_of[sent_none] = None
        for u, column in zip(verts, block.T.tolist()):
            tables[u][1:1 + len(column)] = map(value_of.__getitem__,
                                               column)
        out.append(tables)
    return out


def _seed_links(np, seeds, plan):
    """A run's round-1 ``(senders, targets)``: its seeds' send links."""
    plan_ptr, plan_idx, _ = plan
    frontier = np.fromiter(seeds.keys(), dtype=np.int64, count=len(seeds))
    starts = plan_ptr[frontier].astype(np.int64)
    counts = plan_ptr[frontier + 1].astype(np.int64) - starts
    total = int(counts.sum())
    slots = _expand_ranges(np, starts, counts, total)
    return np.repeat(frontier, counts), plan_idx[slots]


# -- k-source hop BFS (Lemma 5.5) -------------------------------------------


@_kernel_span("multisource")
def multi_source_hop_bfs_vector(
    net,
    sources: Sequence[int],
    hop_limit: int,
    direction: str,
    avoid_edges: EdgeSet,
    delay: Optional[Callable[[int], int]],
    name: str,
    max_rounds: Optional[int],
    plan=None,
) -> List[List[int]]:
    """Whole-frontier rounds of the k-source hop BFS (Lemma 5.5).

    The per-vertex priority queue of the message path is equivalent to
    "announce the lexicographically smallest (distance, rank) pair not
    yet announced": stale heap entries can never become valid again,
    so the queue's valid entries are exactly the un-announced current
    distances.  The kernel tracks that as a (k, n) un-announced mask
    plus an incrementally-maintained per-vertex minimal key
    ``d·k + rank`` — arrivals lower it via ``np.minimum.at``, and only
    the columns that just announced recompute their minimum.
    """
    np = numpy_or_none()
    n = net.n
    k = len(sources)
    if k == 0:
        with net.ledger.phase(name):
            return []
    if plan is None:
        plan = net.topology.send_arrays(direction, avoid_edges, delay)
    indptr, indices, steps = plan
    size = HOP_MESSAGE_WORDS
    overload = net.strict and size > net.bandwidth_words
    # Valid queue entries all have distance <= hop_limit, so
    # hop_limit + 1 is a safe (non-overflowing) key sentinel.
    key_cap = (hop_limit + 1) * k

    with net.ledger.phase(name):
        dist = np.full((k, n), INF, dtype=np.int64)
        unannounced = np.zeros((k, n), dtype=bool)
        best_key = np.full(n, key_cap, dtype=np.int64)
        for rank, s in enumerate(sources):
            if dist[rank, s] > 0:
                dist[rank, s] = 0
                unannounced[rank, s] = True
                if rank < best_key[s]:  # d == 0: key is the rank
                    best_key[s] = rank
        rank_col = np.arange(k, dtype=np.int64)[:, None]
        dist_flat = dist.reshape(-1)
        unannounced_flat = unannounced.reshape(-1)
        rounds_used = 0

        unit_steps = delay is None or bool((steps == 1).all())

        while True:
            senders = np.nonzero(best_key < key_cap)[0]
            if not senders.size:
                break
            best = best_key[senders]
            d_s = best // k
            rank_s = best % k
            unannounced[rank_s, senders] = False
            # The announced pair left each sender's queue: recompute
            # those columns' minima (everyone else is unchanged).
            best_key[senders] = (
                np.where(unannounced[:, senders], dist[:, senders],
                         hop_limit + 1) * k + rank_col).min(axis=0)

            if unit_steps:
                # The hop-budget prune is per sender, not per edge:
                # filter before the CSR expansion.
                ok = d_s < hop_limit
                send_v = senders[ok]
                counts = indptr[send_v + 1] - indptr[send_v]
                sent = int(counts.sum())
                if sent:
                    slots = _expand_ranges(np, indptr[send_v], counts,
                                           sent)
                    target_e = indices[slots]
                    cand = np.repeat(d_s[ok] + 1, counts)
                    rank_e = np.repeat(rank_s[ok], counts)
            else:
                counts = indptr[senders + 1] - indptr[senders]
                total = int(counts.sum())
                if total:
                    slots = _expand_ranges(np, indptr[senders], counts,
                                           total)
                    cand = np.repeat(d_s, counts) + steps[slots]
                    keep = cand <= hop_limit
                    sent = int(keep.sum())
                    if sent:
                        send_v = np.repeat(senders, counts)[keep]
                        target_e = indices[slots][keep]
                        cand = cand[keep]
                        rank_e = np.repeat(rank_s, counts)[keep]
                else:
                    sent = 0
            _charge_uniform_round(net, sent, size)
            if sent and overload:
                _raise_first_overload(
                    net,
                    np.repeat(send_v, counts) if unit_steps else send_v,
                    target_e, size)
            rounds_used += 1
            if max_rounds is not None and rounds_used > max_rounds:
                break
            if sent:
                flat = rank_e * n + target_e
                before = dist_flat[flat]
                np.minimum.at(dist_flat, flat, cand)
                # A candidate below the pre-round distance re-enters
                # its vertex's queue.  Duplicate (rank, vertex) hits in
                # one round all pass this test when any does, exactly
                # like the sequential heap pushes — the stale larger
                # pushes are unobservable there, and the min-reductions
                # make them unobservable here.
                imp = cand < before
                if imp.any():
                    fi = flat[imp]
                    unannounced_flat[fi] = True
                    np.minimum.at(best_key, target_e[imp],
                                  cand[imp] * k + rank_e[imp])
        return dist.tolist()


# -- pipelined tree broadcast (Lemma 2.4) -----------------------------------


def _uniform_broadcast_schedule(net, tree, item_counts: List[int],
                                count: int, size: int) -> None:
    """Charge the whole FIFO broadcast schedule without routing items.

    When every item has the same word size, the ledger charge is fully
    determined by the *queue-length* dynamics: each active directed
    tree link pops exactly one item per round (``size`` words, its own
    link), so a round charges ``(a, a·size, size, a·[size > B])`` for
    ``a`` active links — no item identity needed.  The queue lengths
    themselves evolve by local conservation (one pop per active link;
    each delivery to ``v`` feeds every link out of ``v`` except the
    reverse one), which this helper iterates as whole-array updates:
    O(rounds) NumPy steps instead of O(items · links) Python steps.

    Total crossings are conserved — every item crosses every undirected
    tree link exactly once — which the final assertion double-checks
    before the bulk charge.
    """
    np = numpy_or_none()
    n = net.n
    nonroot = [v for v in range(n) if v != tree.root]
    if not nonroot or count == 0:
        return
    nr = np.asarray(nonroot, dtype=np.int64)
    par = np.asarray(tree.parent, dtype=np.int64)[nr]
    links = 2 * nr.size
    tail = np.empty(links, dtype=np.int64)
    head = np.empty(links, dtype=np.int64)
    tail[0::2] = nr
    head[0::2] = par
    tail[1::2] = par
    head[1::2] = nr
    rev = np.arange(links, dtype=np.int64)
    rev[0::2] += 1
    rev[1::2] -= 1
    counts_v = np.asarray(item_counts, dtype=np.int64)
    # Every origin pushes all of its items onto each of its tree links.
    queue = counts_v[tail].copy()
    rounds = 0
    total = 0
    while True:
        active = queue > 0
        moved = int(active.sum())
        if not moved:
            break
        rounds += 1
        total += moved
        delivered = np.bincount(head[active], minlength=n)
        queue += delivered[tail] - active[rev] - active
    assert total == count * (n - 1), "broadcast schedule lost items"
    violations = total if size > net.bandwidth_words else 0
    net.ledger.charge_rounds(rounds, total, total * size, size, violations)


@_kernel_span("broadcast")
def broadcast_messages_vector(net, tree, messages, name: str):
    """Frontier-batched rounds of the pipelined broadcast (Lemma 2.4).

    The per-link FIFO discipline is inherently sequential per queue, so
    this kernel vectorizes the *round*, not the queue: items travel as
    dense integer ids with their word size computed once (the message
    engine re-sizes the same payload on every link it crosses), rounds
    charge the ledger in one call, and deliveries apply in the exact
    receiver-major sender-ascending order the exchange engines
    guarantee — which is what makes the queue states, and therefore the
    ledgers, bit-identical.

    Uniform-size batches (the Lemma 5.4 pair broadcast, the Lemma 5.8
    segment summaries) skip the per-item queues entirely: the result is
    schedule-independent (``sorted(all_messages)``) and the ledger
    charge reduces to the queue-length dynamics, handled whole-array by
    :func:`_uniform_broadcast_schedule`.  Mixed sizes — and strict-mode
    overloads, which must abort mid-schedule with the exact first
    offender — keep the per-item path.
    """
    n = net.n
    bandwidth = net.bandwidth_words
    strict = net.strict

    with net.ledger.phase(name):
        all_messages: List[Tuple[int, Tuple]] = []
        sizes: List[int] = []
        item_counts = [0] * n
        for origin in sorted(messages):
            for payload in messages[origin]:
                item = (origin, payload)
                all_messages.append(item)
                sizes.append(words_of(item))
                item_counts[origin] += 1
        if sizes and min(sizes) == max(sizes) and not (
                strict and sizes[0] > bandwidth):
            _uniform_broadcast_schedule(net, tree, item_counts,
                                        len(all_messages), sizes[0])
            return sorted(all_messages)

        tree_nbrs = [tree.tree_neighbors(v) for v in range(n)]
        queues: Dict[Tuple[int, int], deque] = {}
        for v in range(n):
            for u in tree_nbrs[v]:
                queues[(v, u)] = deque()
        active: deque = deque()

        def push(link: Tuple[int, int], item_id: int) -> None:
            queue = queues[link]
            if not queue:
                active.append(link)
            queue.append(item_id)

        for item_id, (origin, _) in enumerate(all_messages):
            for u in tree_nbrs[origin]:
                push((origin, u), item_id)

        while active:
            total_words = 0
            max_link = 0
            violations = 0
            first_overload = None
            #: (receiver, sender, item) triples of this round, applied
            #: after the synchronous cut in receiver-major order.
            deliveries: List[Tuple[int, int, int]] = []
            for _ in range(len(active)):
                link = active.popleft()
                queue = queues[link]
                item_id = queue.popleft()
                if queue:
                    active.append(link)
                deliveries.append((link[1], link[0], item_id))
                size = sizes[item_id]
                total_words += size
                if size > max_link:
                    max_link = size
                if size > bandwidth:
                    violations += 1
            deliveries.sort()
            net.ledger.charge_round(len(deliveries), total_words,
                                    max_link, violations)
            if strict and violations:
                for v, sender, item_id in deliveries:
                    if sizes[item_id] > bandwidth:
                        first_overload = (sender, v, sizes[item_id])
                        break
                assert first_overload is not None
                raise BandwidthExceededError(*first_overload, bandwidth)
            for v, sender, item_id in deliveries:
                for u in tree_nbrs[v]:
                    if u != sender:
                        push((v, u), item_id)
        return sorted(all_messages)


# -- local landmark completion (Lemma 5.6) ----------------------------------


@_kernel_span("landmark_completion")
def landmark_completion_vector(net, closure, from_len, to_len):
    """Vectorized min-plus completion of Lemma 5.6 (local computation).

    Every vertex stitches its hop-bounded landmark distances with the
    broadcast closure; this is ledger-free local work, so the only
    contract is value equality with the scalar loops in
    ``repro.core.landmark_distances``.  All operands are bounded by
    the INF sentinel (2^60), so int64 sums are exact.  ``net`` is
    unused beyond the uniform dispatch signature (and the span join).
    """
    np = numpy_or_none()
    k = len(closure)
    closure_m = np.asarray(closure, dtype=np.int64)
    from_m = np.asarray(from_len, dtype=np.int64)
    to_m = np.asarray(to_len, dtype=np.int64)
    from_out = []
    to_out = []
    for a in range(k):
        # closure[a][a] == 0, so the min-plus row already includes the
        # direct hop-bounded distance the scalar loops seed with.
        best_f = (closure_m[a][:, None] + from_m).min(axis=0)
        best_t = (closure_m[:, a][:, None] + to_m).min(axis=0)
        from_out.append(np.where(best_f >= INF, INF, best_f).tolist())
        to_out.append(np.where(best_t >= INF, INF, best_t).tolist())
    return from_out, to_out


@_kernel_span("pairwise_min_sum")
def pairwise_min_sum_vector(net, m_rows, n_rows) -> List[int]:
    """``out[i] = clamp_inf(min_j m_rows[j][i] + n_rows[j][i])``.

    The Proposition 5.1 finish (ledger-free local computation); operands
    are clamped at INF = 2^60, so int64 sums are exact.  ``net`` is
    unused beyond the uniform dispatch signature (and the span join).
    """
    np = numpy_or_none()
    best = (np.asarray(m_rows, dtype=np.int64)
            + np.asarray(n_rows, dtype=np.int64)).min(axis=0)
    return np.where(best >= INF, INF, best).tolist()


# -- Lemma 2.5 path-chain flood ----------------------------------------------

#: Wire size of the chain tokens: ("chain", origin, hops, dist).
CHAIN_MESSAGE_WORDS = words_of(("chain", 0, 0, 0))

#: Wire size of the Lemma 5.9 shift tokens: ("Nshift", j, value).
N_SHIFT_MESSAGE_WORDS = words_of(("Nshift", 0, 0))


@_kernel_span("chain_flood")
def chain_flood_vector(
    net,
    path: Sequence[int],
    sampled: Sequence[int],
    prefix: Sequence[int],
) -> Dict[int, tuple]:
    """The Lemma 2.5 step-2 flood, computed from gap arithmetic.

    Charges within the caller's open phase (``knowledge(L2.5)``), like
    the inline round loop it replaces.  Tokens advance in lockstep, one
    per path link, so round ``r`` carries one ``CHAIN_MESSAGE_WORDS``
    message per sampled gap of length ≥ r; the records every position
    learns are pure prefix-weight differences.  Sampled positions are
    O(√n) w.h.p., so this is cheap scalar arithmetic — the point is
    skipping the O(max gap) per-token exchange rounds, not NumPy.
    """
    gaps = [b - a for a, b in zip(sampled, sampled[1:])]
    rounds = max(gaps, default=0)
    total = sum(gaps)
    senders = [path[a] for a in sampled[:-1]]
    targets = [path[a + 1] for a in sampled[:-1]]
    charge_uniform_rounds(net, rounds, total, CHAIN_MESSAGE_WORDS,
                           senders, targets)
    from_left: Dict[int, tuple] = {}
    for a, b in zip(sampled, sampled[1:]):
        origin = path[a]
        base = prefix[a]
        for pos in range(a + 1, b + 1):
            from_left[pos] = (origin, pos - a, prefix[pos] - base)
    return from_left


# -- Lemma 4.4 descending DP pipeline (Prop 4.1 Stage 3) ---------------------

#: Wire size of the Stage-3 tokens: ("dp", X value).
DP_MESSAGE_WORDS = words_of(("dp", 0))


@_kernel_span("dp_sweep")
def dp_sweep_vector(
    net,
    path: Sequence[int],
    x_geq: Sequence[Dict[int, int]],
    hop_count: int,
    zeta: int,
    name: str,
) -> List[int]:
    """The ζ−1 descending rounds of Lemma 4.4 as array shifts.

    Every round moves exactly ``hop_count`` two-word tokens, one per
    P-edge, so the whole schedule bulk-charges; the prefix-closed
    recurrence X[≤ i, ≥ i+d−1] = min(X[≤ i−1, ≥ i+d], X[i, ≥ i+d−1])
    is one shifted elementwise minimum per descending d.
    """
    np = numpy_or_none()
    h = hop_count

    def column(d: int):
        return np.fromiter(
            ((x_geq[i].get(i + d, INF) if i + d <= h else INF)
             for i in range(h + 1)),
            dtype=np.int64, count=h + 1)

    with net.ledger.phase(name):
        rounds = max(0, zeta - 1)
        charge_uniform_rounds(net, rounds, rounds * h, DP_MESSAGE_WORDS,
                               path[:h], path[1:h + 1])
        best = column(zeta)
        inf_head = np.full(1, INF, dtype=np.int64)
        for d in range(zeta, 1, -1):
            shifted = np.concatenate((inf_head, best[:-1]))
            best = np.minimum(shifted, column(d - 1))
        return best.tolist()


# -- pipelined path sweeps (Lemmas 4.4/5.7/5.9 engine) -----------------------

#: Wire size of a sweep token: ("sweep", carried int).
SWEEP_MESSAGE_WORDS = words_of(("sweep", 0))


@_kernel_span("path_sweeps")
def run_path_sweeps_vector(net, path, tasks, name: str) -> Dict:
    """Whole-schedule sweeps: returns ``{key: (final, trace)}``.

    The FIFO pipeline of one start-group is closed-form (token j
    crosses link m in round j + 1 + m), so the ledger bulk-charges the
    makespan and total token-hops; values are running minima of each
    task's ``local_min`` table along the visited positions — one
    ``np.minimum.accumulate`` per task.
    """
    np = numpy_or_none()
    with net.ledger.phase(name):
        out: Dict = {}
        groups: Dict[Tuple[int, int], List] = {}
        for task in tasks:
            if task.start == task.end:
                trace = {task.start: task.init} if task.deposit else {}
                out[task.key] = (task.init, trace)
                continue
            direction = 1 if task.end > task.start else -1
            groups.setdefault((task.start, direction), []).append(task)

        rounds = 0
        total = 0
        first_senders: List[int] = []
        first_targets: List[int] = []
        for (start, direction), members in groups.items():
            for j, task in enumerate(members):
                length = abs(task.end - task.start)
                total += length
                if j + length > rounds:
                    rounds = j + length
            first_senders.append(path[start])
            first_targets.append(path[start + direction])
        charge_uniform_rounds(net, rounds, total, SWEEP_MESSAGE_WORDS,
                               first_senders, first_targets)

        tables: Dict[int, object] = {}
        for (start, direction), members in groups.items():
            for task in members:
                table = tables.get(id(task.local_min))
                if table is None:
                    table = tables[id(task.local_min)] = np.asarray(
                        task.local_min, dtype=np.int64)
                if direction == 1:
                    seg = table[start + 1: task.end + 1]
                else:
                    seg = table[task.end: start][::-1]
                values = np.minimum(
                    task.init, np.minimum.accumulate(seg)).tolist()
                trace = {}
                if task.deposit:
                    trace[start] = task.init
                    pos = start
                    for value in values:
                        pos += direction
                        trace[pos] = value
                out[task.key] = (values[-1], trace)
        return out


# -- BFS spanning-tree flood -------------------------------------------------

#: Wire size of the flood control messages: ("offer",) / ("adopt",).
TREE_MESSAGE_WORDS = words_of(("offer",))


@_kernel_span("spanning_tree")
def spanning_tree_flood_vector(net, root: int, name: str):
    """Whole-frontier rounds of the BFS spanning-tree flood.

    Opens phase ``name`` and returns ``(parent, depth)`` lists (``-1``
    marks unreached vertices; the caller raises the disconnection
    error and assembles the tree).  Each level costs two rounds
    exactly like the message path: an offers round (one 1-word message
    per (frontier vertex, unreached neighbor) link) and a confirmation
    round (one per adopted vertex); adoption picks the smallest
    offering neighbor via a segmented minimum.
    """
    np = numpy_or_none()
    n = net.n
    arr = net.topology.arrays()
    indptr, indices = arr.nbr_indptr, arr.nbr_indices
    size = TREE_MESSAGE_WORDS
    overload = net.strict and size > net.bandwidth_words
    with net.ledger.phase(name):
        depth = np.full(n, -1, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int64)
        depth[root] = 0
        parent[root] = root
        #: per-vertex smallest offering neighbor (n = "no offer yet").
        chosen = np.full(n, n, dtype=np.int64)
        frontier = np.asarray([root], dtype=np.int64)
        level = 0
        while frontier.size:
            counts = indptr[frontier + 1] - indptr[frontier]
            total = int(counts.sum())
            if not total:
                break
            slots = _expand_ranges(np, indptr[frontier], counts, total)
            targets = indices[slots]
            unreached = depth[targets] < 0
            offer_targets = targets[unreached]
            if not offer_targets.size:
                break
            offer_senders = np.repeat(frontier, counts)[unreached]
            _charge_uniform_round(net, int(offer_targets.size), size)
            if overload:
                _raise_first_overload(net, offer_senders, offer_targets,
                                      size)
            np.minimum.at(chosen, offer_targets, offer_senders)
            adopted = np.unique(offer_targets)
            parent[adopted] = chosen[adopted]
            depth[adopted] = level + 1
            _charge_uniform_round(net, int(adopted.size), size)
            frontier = adopted
            level += 1
        return parent.tolist(), depth.tolist()


@_kernel_span("n_shift")
def n_shift_vector(net, path: Sequence[int], rows,
                   hop_count: int) -> List[List[int]]:
    """The Lemma 5.9 one-hop leftward shift, charged in bulk.

    Charges within the caller's open phase (``N-shift``).  Every round
    moves exactly ``hop_count`` three-word tokens one hop leftward and
    the shifted row is already local knowledge, so the whole k-round
    schedule bulk-charges and the result is pure slicing.
    """
    h = hop_count
    k = len(rows)
    charge_uniform_rounds(net, k, k * h, N_SHIFT_MESSAGE_WORDS,
                          path[1:h + 1], path[:h])
    return [list(row[1:h + 1]) for row in rows]
