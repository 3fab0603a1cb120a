"""Dynamic graphs: incremental invalidation vs. rebuild-the-world.

Two families measure what the dynamic subsystem buys and costs:

* ``incremental-invalidation`` — a warm catalog of K instances takes a
  10% mutation burst on ONE of them.  The incremental path
  (:meth:`ShardedQueryService.apply_mutations`: epoch bump, one oracle
  rotated out, fallback memo carried forward, one rebuild) races the
  operational status quo it replaces: drop everything and rebuild all
  K oracles from scratch on the post-mutation catalog.  The ISSUE-level
  claim — and the absolute CI floor — is a >= 5x advantage; the ideal
  gap is K (only 1/K of the work is invalidated).
* ``storm-degraded`` — the serve daemon under concurrent mutation
  bursts with an artificially slowed re-warm (``rebuild_delay``), while
  closed-loop clients carry a staleness budget.  The gate is the
  degraded-mode contract: every request is *served* (fresh ``ok`` or
  within-budget ``stale`` — never an error), at least one answer is
  actually stale (the budget did real work), served p95 stays under
  the SLO ceiling during the storm, and the post-quiesce fresh answers
  are bit-identical to from-scratch solves (convergence).

Both families verify answers against the centralized oracle before any
number is reported — a wrong answer exits non-zero regardless of speed.

Gate (used by the CI ``dynamic-smoke`` step; the rule table is
:data:`RULES`)::

    python benchmarks/bench_dynamic.py --quick \
        --json BENCH_dynamic.json \
        --compare benchmarks/BENCH_dynamic.json

* ``incremental-invalidation`` must hold the absolute >= 5x floor and
  not regress more than the shared tolerance below its committed
  ratio (compared only against a baseline of the same ``--quick``
  mode);
* ``storm-degraded`` is gated on its absolute contract only (served
  ratio, stale > 0, p95 ceiling, convergence) — wall-clock ratios of
  a chaos run are not portable enough to baseline.
"""

from __future__ import annotations

import time
from typing import Dict

from _util import Rule, quiet_gc, require, run

from repro.dynamic import MutationStream, run_chaos
from repro.graphs.generators import random_instance
from repro.serve import (
    Query,
    ShardedQueryService,
    verify_against_centralized,
)

#: Absolute floor: incremental invalidation vs. full catalog rebuild
#: after a 10% single-instance mutation burst (the ISSUE criterion).
MIN_INCREMENTAL_SPEEDUP = 5.0
INCREMENTAL_FAMILY = "incremental-invalidation"

#: Served-request p95 ceiling (ms) during the storm — same SLO the
#: daemon families commit to.
MAX_STORM_P95_MS = 75.0
STORM_FAMILY = "storm-degraded"

RULES = (
    Rule("ratio", "speedup", names=(INCREMENTAL_FAMILY,), same_mode=True),
    Rule("floor", "speedup", MIN_INCREMENTAL_SPEEDUP,
         names=(INCREMENTAL_FAMILY,)),
    # At least one stale answer: the staleness budget did real work.
    Rule("floor", "stale", 1, names=(STORM_FAMILY,)),
    Rule("ceiling", "p95_ms", MAX_STORM_P95_MS, names=(STORM_FAMILY,)),
    Rule("true", "converged", names=(STORM_FAMILY,)),
)


def _probe(inst) -> Query:
    return Query(s=inst.s, t=inst.t, edge=inst.path_edges()[0],
                 instance=inst.name)


def measure_incremental(quick: bool) -> Dict[str, object]:
    """Delta-scoped re-solve vs. rebuilding every oracle."""
    count = 8
    n = 48 if quick else 72
    instances = [
        random_instance(n, seed=30 + i, name=f"dyn-{n}-{i}")
        for i in range(count)
    ]
    # Capacity holds the whole catalog: LRU eviction churn would
    # charge re-builds to both sides and blur the invalidation scope.
    service = ShardedQueryService(instances, shards=2, capacity=count,
                                  solver="theorem1", build_seed=0)
    service.serve([_probe(inst) for inst in instances])  # warm all K

    stream = MutationStream(seed=5)
    target = instances[0]
    burst = stream.storm(target, fraction=0.10)

    with quiet_gc():
        start = time.perf_counter()
        result = service.apply_mutations(target.name, burst)
        current = {inst.name: inst for inst in instances}
        current[target.name] = result.instance
        probes = [_probe(inst) for inst in current.values()]
        answers = service.serve(probes).answers
        incremental_time = time.perf_counter() - start
    if not result.applied:
        raise AssertionError(
            f"{INCREMENTAL_FAMILY}: the 10% burst applied nothing")
    if not verify_against_centralized(list(current.values()), answers):
        raise AssertionError(
            f"{INCREMENTAL_FAMILY}: post-mutation answers contradict "
            "the centralized oracle")

    # Status quo: no epochs, no scoping — every oracle is rebuilt
    # against the new topology.
    with quiet_gc():
        start = time.perf_counter()
        cold = ShardedQueryService(list(current.values()), shards=2,
                                   capacity=count, solver="theorem1",
                                   build_seed=0)
        cold_answers = cold.serve(probes).answers
        full_time = time.perf_counter() - start
    if not verify_against_centralized(list(current.values()),
                                      cold_answers):
        raise AssertionError(
            f"{INCREMENTAL_FAMILY}: full-rebuild answers contradict "
            "the centralized oracle")

    totals = service.serve([]).totals()
    return {
        "n": n,
        "instances": count,
        "mutations_applied": len(result.applied),
        "epoch": result.epoch,
        "incremental_seconds": round(incremental_time, 4),
        "full_rebuild_seconds": round(full_time, 4),
        "speedup": round(full_time / incremental_time, 2),
        "invalidations": totals.invalidations,
        "memo_carried": totals.memo_carried,
        "oracle_builds": totals.oracle_builds,
    }


def measure_storm(quick: bool) -> Dict[str, object]:
    """Degraded-mode serving during a mutation storm.

    ``rebuild_delay`` stretches every re-warm so the staleness budget
    is genuinely exercised; no kills or stalls here — this family
    isolates the staleness contract (the chaos CI step owns the
    crash-safety one).
    """
    n = 32
    count = 2 if quick else 3
    duration = 2.0 if quick else 4.0
    instances = [
        random_instance(n, seed=40 + i, name=f"storm-{n}-{i}")
        for i in range(count)
    ]
    report = run_chaos(
        instances, duration=duration, seed=7, workers=2,
        solver="centralized", kills=0, stalls=0,
        mutation_bursts=3, burst_size=4, max_staleness=8,
        rebuild_delay=0.25)

    unexpected = {k: v for k, v in report.outcomes.items()
                  if k not in ("ok", "stale")}
    if unexpected:
        raise AssertionError(
            f"{STORM_FAMILY}: non-served outcomes during the storm: "
            f"{unexpected}")
    if not report.converged:
        raise AssertionError(
            f"{STORM_FAMILY}: did not converge after quiesce: "
            f"{report.mismatches[:5]}")
    return {
        "n": n,
        "instances": count,
        "duration_seconds": round(report.duration, 2),
        "queries": report.queries_sent,
        "ok": report.outcomes.get("ok", 0),
        "stale": report.outcomes.get("stale", 0),
        "p50_ms": round(report.latency_ms.get("p50", 0.0), 4),
        "p95_ms": round(report.latency_ms.get("p95", 0.0), 4),
        "p99_ms": round(report.latency_ms.get("p99", 0.0), 4),
        "mutations_applied": report.mutations_applied,
        "max_epoch": max(report.epochs.values(), default=0),
        "verified": report.verified,
        "converged": report.converged,
    }


def measure(quick: bool) -> dict:
    return {"quick": quick, "families": {
        INCREMENTAL_FAMILY: measure_incremental(quick),
        STORM_FAMILY: measure_storm(quick),
    }}


def render(sections: Dict[str, dict]) -> str:
    from repro.analysis import format_records

    records = [{"family": name, **data}
               for name, data in sections["families"].items()]
    return format_records(
        records,
        ["family", "n", "instances", "mutations_applied", "speedup",
         "stale", "p95_ms", "memo_carried", "converged"],
        title="dynamic graphs — incremental invalidation and "
              "degraded-mode serving under storms",
    )


# -- pytest-benchmark entry point --------------------------------------------


def bench_dynamic_tier(benchmark):
    """Quick-mode dynamic families (see module doc)."""
    from _util import report

    sections = benchmark.pedantic(lambda: measure(quick=True),
                                  rounds=1, iterations=1)
    report("dynamic", render(sections))
    require(sections, RULES)


# -- CLI (CI dynamic-smoke gate) ----------------------------------------------


if __name__ == "__main__":
    raise SystemExit(run(
        "dynamic", __doc__, measure, render, RULES, quick=True,
        header={"min_incremental_speedup": MIN_INCREMENTAL_SPEEDUP,
                "max_storm_p95_ms": MAX_STORM_P95_MS}))
