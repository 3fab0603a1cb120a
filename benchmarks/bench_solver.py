"""End-to-end solver throughput: Theorems 1 and 3 across the fabrics.

PR 3's kernel bench (``bench_fabric.py``) measures the covered
*primitives*; this bench measures what users actually pay: one full
Theorem 1 execution — spanning tree, Lemma 2.5 knowledge, Prop 4.1
short detours, Prop 5.1 long detours — per fabric, plus the serving
tier's oracle-build funnel (``ShardedQueryService.warm``, one
``solve_rpaths`` per instance).  With every solver round loop now
running as an array kernel, ``fabric="vector"`` executes the whole
solve without per-message Python; the measured end-to-end speedups are
the Amdahl complement of PR 3's per-primitive numbers.

Families (all n ≥ 2048 except the 3-way reference family, which the
pre-fabric engine could not finish at that size in CI time, and the
Theorem 3 family, whose message-lane solve takes seconds at n = 128):

* ``solve-expander-2048`` — the gate family: the acceptance floor
  requires ≥ ``MIN_SOLVER_SPEEDUP``x vector-vs-fast here;
* ``solve-power-law-2048`` — hub-concentrated congestion;
* ``solve-hard-instance`` — the Section 6.3 lower-bound construction
  (n = 2286, h_st = 64): long-path phases (chain flood, DP pipeline,
  segment sweeps) carry real weight;
* ``solve-expander-256-3way`` — reference vs fast vs vector on one
  instance the reference engine can finish, keeping the historical
  baseline in the picture;
* ``apx-expander-weighted-128`` — Theorem 3 (``solve_apx_rpaths``,
  ε = 0.25) on a weighted expander: Lemma 7.5's scale ladder of pruned
  hop-BFS floods runs as one batch of the vector kernel.

The big families pass ``landmark_c = 0.5``: at the default c = 2 the
|L|² pair broadcast alone floods ~75M message-hops at n = 2048, which
the *message* engines cannot finish inside a CI budget (the vector
schedule kernel handles it in milliseconds — that asymmetry is the
point, but the gate still needs a finishing baseline).

Every family asserts bit-identical lengths, stage outputs, and
per-phase ledgers across its fabrics before any throughput is reported.

Gates (the CI ``perf-gate`` job runs ``--quick``; the rule table is
:data:`RULES`)::

    python benchmarks/bench_solver.py --json BENCH_solver.json \
        --compare benchmarks/BENCH_solver.json

* every family must hold ≥ 5x vector-vs-fast, and the Theorem 3
  family ≥ 10x;
* the oracle-build measurement must hold ≥ 2x vector-vs-fast;
* a measured ratio more than the (doubled — end-to-end runs inherit
  the kernel workloads' memory-bound noise profile) shared tolerance
  below its committed baseline ratio fails the gate.

``--quick`` times one solve per fabric instead of best-of-two and
shrinks the oracle-build catalog; the solve family set never shrinks
(the baseline comparison needs every family present).
"""

from __future__ import annotations

import time
from typing import Dict

from _util import Rule, hard_instance, quiet_gc, require, run

from repro.approx.apx_rpaths import solve_apx_rpaths
from repro.core.rpaths import solve_rpaths
from repro.graphs import (
    expander_instance,
    path_with_chords_instance,
    power_law_instance,
)

#: Acceptance floor: end-to-end vector-vs-fast on every solve family.
MIN_SOLVER_SPEEDUP = 5.0
GATE_FAMILY = "solve-expander-2048"

#: Acceptance floor: Theorem 3 vector-vs-fast (the batched scale
#: ladder; one flood per kernel call measured 5.4x).
MIN_APX_SPEEDUP = 10.0
APX_FAMILY = "apx-expander-weighted-128"

#: Acceptance floor for the serving tier's oracle-build funnel.
MIN_BUILD_SPEEDUP = 2.0

#: Best-of-N solves per fabric in the full (non-quick) CLI run.
REPEATS = 2

# End-to-end runs are dominated by the same memory-bound kernels as
# bench_fabric's vector families, so every ratio check inherits their
# doubled tolerance; the absolute floors catch genuine collapse.
RULES = (
    Rule("ratio", "speedup_vector", tolerance_x=2.0),
    Rule("floor", "speedup_vector", MIN_SOLVER_SPEEDUP),
    Rule("floor", "speedup_vector", MIN_APX_SPEEDUP, names=(APX_FAMILY,)),
    Rule("ratio", "speedup_vector", section="oracle_build", names=None,
         tolerance_x=2.0),
    Rule("floor", "speedup_vector", MIN_BUILD_SPEEDUP,
         section="oracle_build", names=None),
)


def _families():
    """(name, solver, instance, solver kwargs, fabrics) per family."""
    yield (GATE_FAMILY, solve_rpaths,
           expander_instance(2048, degree=4, seed=9),
           {"landmark_c": 0.5}, ("fast", "vector"))
    yield ("solve-power-law-2048", solve_rpaths,
           power_law_instance(2048, attach=3, seed=2),
           {"landmark_c": 0.5}, ("fast", "vector"))
    yield ("solve-hard-instance", solve_rpaths, hard_instance(8, 3, 2),
           {"landmark_c": 0.5}, ("fast", "vector"))
    yield ("solve-expander-256-3way", solve_rpaths,
           expander_instance(256, degree=4, seed=5),
           {}, ("reference", "fast", "vector"))
    yield (APX_FAMILY, solve_apx_rpaths,
           expander_instance(128, degree=4, seed=3, weighted=True),
           {"epsilon": 0.25, "landmark_c": 0.5}, ("fast", "vector"))


def _fingerprint(report):
    return (list(report.lengths), list(report.extras["short"]),
            list(report.extras["long"]),
            [stats.as_dict() for stats in report.ledger.phases()])


def measure_families(repeats: int) -> Dict[str, dict]:
    """One full solve per fabric per family; best-of-N rounds/sec."""
    results: Dict[str, dict] = {}
    for name, solve, instance, kwargs, fabrics in _families():
        rps: Dict[str, float] = {}
        prints = {}
        rounds = 0
        # Vector first: the message engines' multi-second runs grow and
        # fragment the heap, which measurably slows the array kernels
        # when they go second (same ordering as bench_fabric).
        for fabric in fabrics[::-1]:
            best = float("inf")
            reps = repeats if fabric != "vector" else max(repeats, 3)
            for _ in range(reps):
                with quiet_gc():
                    start = time.perf_counter()
                    report = solve(instance, seed=7, fabric=fabric,
                                   **kwargs)
                    best = min(best, time.perf_counter() - start)
            prints[fabric] = _fingerprint(report)
            rounds = report.rounds
            rps[fabric] = rounds / best
        if any(prints[f] != prints[fabrics[0]] for f in fabrics):
            raise AssertionError(
                f"{name}: fabrics disagree on results or ledger")
        row = {
            "n": instance.n,
            "m": instance.m,
            "hop_count": instance.hop_count,
            "rounds": rounds,
            "solver_kwargs": {k: v for k, v in kwargs.items()},
        }
        for fabric in fabrics:
            row[f"{fabric}_rps"] = round(rps[fabric], 1)
        row["speedup_vector"] = round(rps["vector"] / rps["fast"], 3)
        if "reference" in fabrics:
            row["speedup_fast"] = round(
                rps["fast"] / rps["reference"], 3)
        results[name] = row
    return results


def measure_oracle_build(quick: bool) -> dict:
    """The serving tier's build funnel: warm a sharded service per
    build fabric and compare wall time (identical oracle tables
    asserted first)."""
    from repro.serve.shard import ShardedQueryService

    sizes = (192,) if quick else (192, 256)
    catalog = []
    for n in sizes:
        catalog.append(expander_instance(
            n, degree=4, seed=1, name=f"bench-exp-{n}"))
        catalog.append(path_with_chords_instance(
            n // 2, seed=2, overlay_hub=True, name=f"bench-chords-{n}"))
    elapsed: Dict[str, float] = {}
    tables: Dict[str, list] = {}
    for fabric in ("vector", "fast"):
        service = ShardedQueryService(catalog, shards=1,
                                      capacity=len(catalog),
                                      build_fabric=fabric)
        with quiet_gc():
            start = time.perf_counter()
            service.warm()
            elapsed[fabric] = time.perf_counter() - start
        shard = service.shard_for(catalog[0].name)
        tables[fabric] = [
            shard.planner_for(inst.name).oracle.lengths
            for inst in catalog
        ]
    if tables["fast"] != tables["vector"]:
        raise AssertionError("oracle tables differ across build fabrics")
    return {
        "instances": len(catalog),
        "fast_seconds": round(elapsed["fast"], 3),
        "vector_seconds": round(elapsed["vector"], 3),
        "speedup_vector": round(elapsed["fast"] / elapsed["vector"], 3),
    }


def render(sections: Dict[str, dict]) -> str:
    from repro.analysis import format_records

    families, oracle_build = sections["families"], sections["oracle_build"]

    records = [{"family": name, **{k: v for k, v in data.items()
                                   if k != "solver_kwargs"}}
               for name, data in families.items()]
    table = format_records(
        records,
        ["family", "n", "hop_count", "rounds", "fast_rps",
         "vector_rps", "speedup_vector"],
        title="whole-solver throughput — solve_rpaths / "
              "solve_apx_rpaths end to end (best of N)",
    )
    build = (f"oracle build ({oracle_build['instances']} instances): "
             f"fast {oracle_build['fast_seconds']}s, vector "
             f"{oracle_build['vector_seconds']}s "
             f"({oracle_build['speedup_vector']}x)")
    return table + "\n" + build


def measure(quick: bool) -> Dict[str, dict]:
    return {"families": measure_families(1 if quick else REPEATS),
            "oracle_build": measure_oracle_build(quick)}


# -- pytest-benchmark entry point -------------------------------------------


def bench_solver_throughput(benchmark):
    """End-to-end rounds/sec, vector vs fast (see module doc)."""
    from _util import report

    families = benchmark.pedantic(
        lambda: measure_families(repeats=1),
        rounds=1, iterations=1)
    sections = {"families": families,
                "oracle_build": measure_oracle_build(quick=True)}
    report("solver", render(sections))
    require(sections, RULES)


# -- CLI (CI perf gate) ------------------------------------------------------


if __name__ == "__main__":
    raise SystemExit(run(
        "solver", __doc__, measure, render, RULES, quick=True, trace=True,
        header={"gate_family": GATE_FAMILY,
                "min_solver_speedup": MIN_SOLVER_SPEEDUP,
                "min_apx_speedup": MIN_APX_SPEEDUP,
                "min_build_speedup": MIN_BUILD_SPEEDUP}))
