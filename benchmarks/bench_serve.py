"""Serving-tier throughput: precomputed oracle vs. per-query solves.

Three workload families measure what the serving layer buys:

* ``oracle-hit`` — read-only traffic (the instance's own (s, t) pair,
  failed edge uniform over E) against a built
  :class:`~repro.serve.oracle.ReplacementPathOracle`.  The baseline is
  the operational status quo this tier replaces: re-running the full
  ``solve_rpaths`` pipeline per query.  The ISSUE-level claim — and
  the absolute CI floor — is a >= 20x queries/sec advantage; in
  practice the gap is orders of magnitude (one O(1) lookup vs. a full
  CONGEST execution).
* ``zipf-batched`` — zipf-skewed arbitrary-pair solve traffic through
  the :class:`~repro.serve.planner.BatchPlanner` (one k-source
  vector-fabric solve per failed-edge group), against the unbatched
  distributed status quo: one single-source fabric BFS per query, no
  memo.
* ``adversarial-batched`` — the memo-defeating failed-edge schedule,
  same baseline; only the k-source grouping amortizes anything here,
  so this family bounds the tier's worst case.
* ``daemon-loop`` — the serve daemon (long-lived worker processes
  that warm their shards once, :mod:`repro.serve.daemon`) under a
  closed-loop multi-client load via the admission front-end, against
  the cold ``pool_map`` status quo it replaces:
  ``ShardedQueryService.serve_parallel`` with no spill store, where
  every batch respawns the pool and rebuilds every oracle.  Gated on
  the ISSUE's >= 5x sustained-QPS floor plus a p95 latency ceiling;
  p50/p95/p99 land in the committed JSON.

Every family verifies every answer against the centralized oracle
before any throughput number is reported — a mismatch exits non-zero
regardless of speed.

Gate (used by the CI ``serve-smoke`` step; the rule table is
:data:`RULES`)::

    python benchmarks/bench_serve.py --quick \
        --json BENCH_serve.json \
        --compare benchmarks/BENCH_serve.json

* ``oracle-hit`` must hold the absolute >= 20x speedup floor;
* the batched families must not drop below 1x (batching must never
  lose to the per-query path);
* ``daemon-loop`` must hold its >= 5x floor and its p95 ceiling;
* any family's speedup more than the shared tolerance below its
  committed baseline ratio fails the gate.  Ratios, not absolute
  queries/sec, are compared: they are stable across runner hardware.
  Baselines are mode-stamped (``--quick`` vs. full); comparing across
  modes enforces only the absolute floors and ceilings.
"""

from __future__ import annotations

import time
from typing import Dict

from _util import Rule, quiet_gc, require, run

from repro.congest import bfs_distances
from repro.core.rpaths import solve_rpaths
from repro.graphs.generators import (
    path_with_chords_instance,
    random_instance,
)
from repro.serve import (
    BatchPlanner,
    ReplacementPathOracle,
    ServeDaemon,
    ServeFrontend,
    ShardedQueryService,
    generate_workload,
    hit_ratio,
    latency_summary_ms,
    run_load,
    verify_against_centralized,
)

#: Absolute queries/sec floor for oracle-hit traffic vs. per-query
#: ``solve_rpaths`` (the ISSUE acceptance criterion).
MIN_ORACLE_SPEEDUP = 20.0
ORACLE_FAMILY = "oracle-hit"

#: Batched planning must never lose to the per-query fabric path.
MIN_BATCH_SPEEDUP = 1.0
BATCH_FAMILIES = ("zipf-batched", "adversarial-batched")

#: Warm daemon vs. cold pool_map serving (the ISSUE acceptance
#: criterion for the daemon tier): sustained closed-loop QPS must be
#: at least this multiple of the per-batch-rebuild path.
MIN_DAEMON_SPEEDUP = 5.0
DAEMON_FAMILY = "daemon-loop"

#: Absolute p95 ceiling (ms) for ok requests in the daemon family —
#: the committed latency SLO the CI smoke step also enforces.
MAX_DAEMON_P95_MS = 75.0

RULES = (
    Rule("ratio", "speedup", same_mode=True),
    Rule("floor", "speedup", MIN_ORACLE_SPEEDUP, names=(ORACLE_FAMILY,)),
    Rule("floor", "speedup", MIN_BATCH_SPEEDUP, names=BATCH_FAMILIES),
    Rule("floor", "speedup", MIN_DAEMON_SPEEDUP, names=(DAEMON_FAMILY,)),
    Rule("ceiling", "p95_ms", MAX_DAEMON_P95_MS, names=(DAEMON_FAMILY,)),
)


def _verify_or_die(name: str, instance, answers) -> None:
    if not verify_against_centralized([instance], answers):
        raise AssertionError(
            f"{name}: serving answers contradict the centralized "
            "oracle")


def measure_oracle_hit(quick: bool) -> Dict[str, object]:
    """Oracle-hit qps vs. per-query solve_rpaths qps."""
    hops = 14 if quick else 24
    queries = 600 if quick else 4000
    solves = 1 if quick else 2
    instance = path_with_chords_instance(hops, seed=1,
                                         overlay_hub=True)

    build_start = time.perf_counter()
    oracle = ReplacementPathOracle.build(instance, solver="theorem1",
                                         seed=0)
    build_time = time.perf_counter() - build_start

    stream = generate_workload("uniform", instance, queries, seed=2)
    with quiet_gc():
        start = time.perf_counter()
        answers = [oracle.answer(q) for q in stream]
        serve_time = time.perf_counter() - start
    _verify_or_die(ORACLE_FAMILY, instance, answers)

    # Per-answer latency percentiles over a warm sample (the bulk loop
    # above owns the throughput number; individually timed answers
    # carry the clock overhead, so they are a separate pass).
    per_answer = []
    for q in stream[:200]:
        t0 = time.perf_counter()
        oracle.answer(q)
        per_answer.append(time.perf_counter() - t0)
    latency = latency_summary_ms(per_answer)

    # The status quo: every query re-runs the full pipeline.  A couple
    # of timed solves pin down the per-query rate.
    with quiet_gc():
        start = time.perf_counter()
        for i in range(solves):
            solve_rpaths(instance, seed=i)
        solve_time = (time.perf_counter() - start) / solves

    qps = queries / serve_time
    baseline_qps = 1.0 / solve_time
    return {
        "n": instance.n,
        "m": instance.m,
        "queries": queries,
        "qps": round(qps, 1),
        "baseline_qps": round(baseline_qps, 3),
        "speedup": round(qps / baseline_qps, 1),
        "p50_ms": round(latency["p50"], 4),
        "p95_ms": round(latency["p95"], 4),
        "p99_ms": round(latency["p99"], 4),
        "hit_ratio": round(hit_ratio(answers), 4),
        "build_seconds": round(build_time, 4),
        "build_rounds": oracle.build_rounds,
    }


def measure_batched(kind: str, quick: bool,
                    repeats: int = 2) -> Dict[str, object]:
    """Batched planner qps vs. per-query fabric BFS qps.

    Sized so the fabric work dominates fixed per-call overheads: below
    n ≈ 100 a single-source message BFS is so cheap that the k-source
    kernel's per-round array costs swamp the grouping win; from
    n ≈ 128 up the batched path wins and keeps growing with n.
    """
    n = 128 if quick else 256
    queries = 200 if quick else 600
    instance = random_instance(n, seed=3)
    stream = generate_workload(kind, instance, queries, seed=4)

    # Best-of-N with fresh state per repeat: the planner's (s, e) memo
    # must not carry over (it would turn the second repeat into pure
    # cache hits), and the first vector-kernel call pays one-time
    # NumPy warmup that should not be charged to the family.
    batched_time = float("inf")
    answers, plan = [], None
    for _ in range(repeats):
        oracle = ReplacementPathOracle.build(instance,
                                             solver="centralized")
        planner = BatchPlanner(oracle, fabric="vector")
        with quiet_gc():
            start = time.perf_counter()
            answers, plan = planner.answer_batch(stream)
            batched_time = min(batched_time,
                               time.perf_counter() - start)
    _verify_or_die(f"{kind}-batched", instance, answers)

    # Unbatched distributed status quo: one single-source BFS on the
    # fabric per query, no (s, e) memo, no grouping.
    unbatched_time = float("inf")
    for _ in range(repeats):
        net = instance.build_network(fabric="fast")
        with quiet_gc():
            start = time.perf_counter()
            for q in stream:
                bfs_distances(net, q.s,
                              avoid_edges=frozenset([q.edge]))
            unbatched_time = min(unbatched_time,
                                 time.perf_counter() - start)

    qps = queries / batched_time
    baseline_qps = queries / unbatched_time
    return {
        "n": instance.n,
        "m": instance.m,
        "queries": queries,
        "qps": round(qps, 1),
        "baseline_qps": round(baseline_qps, 1),
        "speedup": round(qps / baseline_qps, 3),
        "hit_ratio": round(hit_ratio(answers), 4),
        "batch_solves": plan.batch_solves,
        "solves_saved": plan.solves_saved,
    }


def measure_daemon_loop(quick: bool) -> Dict[str, object]:
    """Warm serve-daemon closed-loop QPS vs. cold pool_map serving.

    Both sides answer the same oracle-hit stream over the same
    catalog.  The cold side is ``serve_parallel`` with **no spill
    store**: each batch spawns a pool whose workers rebuild their
    oracles from scratch — exactly what every batch paid before the
    daemon existed.  The daemon side pays its warm once (reported, not
    timed) and then serves from long-lived workers through the
    admission front-end under ``concurrency`` closed-loop clients.
    """
    # Sized so oracle construction dominates the cold side, as it does
    # at deployment scale: below n ≈ 40 a theorem1 build is a few ms
    # and the cold pool path is mostly spawn overhead, which under-
    # states what warm workers save.
    n = 56 if quick else 72
    per_instance = 50 if quick else 200
    batches = 3
    concurrency = 4
    instances = [
        random_instance(n, seed=10 + i, name=f"daemon-{n}-{i}")
        for i in range(3)
    ]
    queries = []
    for i, inst in enumerate(instances):
        queries.extend(generate_workload(
            "uniform", inst, per_instance, seed=20 + i))

    cold = ShardedQueryService(instances, shards=2,
                               solver="theorem1", build_seed=0)
    batch_size = (len(queries) + batches - 1) // batches
    cold_answers = []
    with quiet_gc():
        start = time.perf_counter()
        for b in range(batches):
            chunk = queries[b * batch_size:(b + 1) * batch_size]
            report = cold.serve_parallel(chunk, jobs=2)
            cold_answers.extend(report.answers)
        cold_time = time.perf_counter() - start
    if not verify_against_centralized(instances, cold_answers):
        raise AssertionError(
            f"{DAEMON_FAMILY}: cold pool_map answers contradict the "
            "centralized oracle")

    warm_start = time.perf_counter()
    daemon = ServeDaemon(instances, workers=2, solver="theorem1",
                         build_seed=0).start()
    warm_time = time.perf_counter() - warm_start
    try:
        frontend = ServeFrontend(daemon, max_queue=512,
                                 max_inflight=128)
        try:
            with quiet_gc():
                results, load = run_load(
                    frontend, queries, mode="closed",
                    concurrency=concurrency)
        finally:
            frontend.close()
    finally:
        daemon.stop()
    if load.ok != load.sent:
        raise AssertionError(
            f"{DAEMON_FAMILY}: non-ok outcomes {load.outcomes}")
    answers = [r.answer for r in results]
    if not verify_against_centralized(instances, answers):
        raise AssertionError(
            f"{DAEMON_FAMILY}: daemon answers contradict the "
            "centralized oracle")

    qps = load.achieved_qps
    baseline_qps = len(queries) / cold_time
    return {
        "n": n,
        "instances": len(instances),
        "queries": len(queries),
        "concurrency": concurrency,
        "qps": round(qps, 1),
        "baseline_qps": round(baseline_qps, 1),
        "speedup": round(qps / baseline_qps, 2),
        "p50_ms": round(load.latency_ms["p50"], 4),
        "p95_ms": round(load.latency_ms["p95"], 4),
        "p99_ms": round(load.latency_ms["p99"], 4),
        "hit_ratio": round(hit_ratio(answers), 4),
        "warm_seconds": round(warm_time, 4),
        "cold_batches": batches,
    }


def measure(quick: bool) -> dict:
    return {"quick": quick, "families": {
        ORACLE_FAMILY: measure_oracle_hit(quick),
        "zipf-batched": measure_batched("zipf", quick),
        "adversarial-batched": measure_batched("adversarial", quick),
        DAEMON_FAMILY: measure_daemon_loop(quick),
    }}


def render(sections: Dict[str, dict]) -> str:
    from repro.analysis import format_records

    records = [{"family": name, **data}
               for name, data in sections["families"].items()]
    return format_records(
        records,
        ["family", "n", "queries", "qps", "baseline_qps", "speedup",
         "p50_ms", "p95_ms", "p99_ms", "hit_ratio"],
        title="serving tier — precomputed oracle / batched planner / "
              "warm daemon vs. per-query and cold-pool solves",
    )


# -- pytest-benchmark entry point --------------------------------------------


def bench_serve_tier(benchmark):
    """Quick-mode serving families (see module doc)."""
    from _util import report

    sections = benchmark.pedantic(lambda: measure(quick=True),
                                  rounds=1, iterations=1)
    report("serve", render(sections))
    require(sections, RULES)


# -- CLI (CI serve-smoke gate) -----------------------------------------------


if __name__ == "__main__":
    raise SystemExit(run(
        "serve", __doc__, measure, render, RULES, quick=True,
        header={"min_oracle_speedup": MIN_ORACLE_SPEEDUP,
                "min_batch_speedup": MIN_BATCH_SPEEDUP,
                "min_daemon_speedup": MIN_DAEMON_SPEEDUP,
                "max_daemon_p95_ms": MAX_DAEMON_P95_MS}))
