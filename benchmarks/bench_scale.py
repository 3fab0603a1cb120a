"""Scale-out gate: int32 memory diet + shared-topology fan-out.

PR 8's tentpole is about *n*, not rounds/sec: push one solve to
n ≥ 65536 and keep it honest.  Three families measure the three
mechanisms that make that size workable:

* ``diet-32768`` / ``diet-65536`` — the int32 memory diet.  Every
  :class:`TopologyArrays` export picks the narrowest dtype its value
  range permits; the family reports the exported bytes against the
  int64-equivalent layout the pre-diet code shipped.  At n = 32768
  every group (indices, keys, weights) fits int32, so the ratio is a
  deterministic 2x; at n = 65536 the ``tail·n + head`` keys exceed
  int32 and promote, leaving ~1.69x.  Both ratios are byte arithmetic,
  not timing — the gate tolerance catches code drift, not noise.
* ``solve-expander-65536`` — one full ``solve_rpaths`` at the target
  size (landmark_c = 0.05 keeps |L|² pair broadcasts within a CI
  budget), serial vs ``parallel=2``.  The family *asserts* bit-equal
  lengths and per-phase ledgers — the fan-out's core contract — and
  reports the wall-clock speedup without gating it: only the landmark
  kBFS pair fans out, so Amdahl caps the whole-solve win well below
  the pool's own scaling.
* ``fanout-kbfs-32768`` — the fan-out mechanism in isolation: eight
  independent 32-source kBFS chunks, run serially and then width-4
  over ``pool_map`` with workers attaching the shared-memory topology
  zero-copy.  Tables and merged ledgers are asserted bit-equal; the
  speedup gate is CPU-conditional (a 1-core host *cannot* win — the
  measured ~0.5x there is pool overhead, which is why the knob
  defaults off) — ≥ 2x with 4+ cores, ≥ 1.2x with 2-3, report-only
  below that.

The run also exports its peak RSS (``resource.getrusage``) through
:func:`repro.telemetry.scale.record_peak_rss`, so a traced run shows
the high-water mark in ``repro trace summary``, and gates it against
an absolute ceiling — the memory diet's end-to-end "does n = 65536
still fit" check.

Gates (used by the ``perf-gate`` CI job; the rule table is
:data:`RULES`)::

    python benchmarks/bench_scale.py --json BENCH_scale.json \
        --compare benchmarks/BENCH_scale.json

* diet ratios must hold the absolute floors (1.9x / 1.5x) and stay
  within the plain shared tolerance of the committed baseline;
* the fan-out speedup must hold its CPU-tier floor, and is compared
  against the baseline only when both runs had ≥ 2 CPUs;
* peak RSS must stay under ``MAX_PEAK_RSS_MIB``;
* every bit-identity assertion fails the run outright.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from typing import Dict, List

from _util import Rule, bound_for, quiet_gc, require, run

from repro.congest.multisource import multi_source_hop_bfs
from repro.congest.topology import TopologyArrays
from repro.core.rpaths import solve_rpaths
from repro.graphs import expander_instance

#: Absolute diet-ratio floors (int64-equivalent bytes / exported bytes).
MIN_DIET_RATIO = {"diet-32768": 1.9, "diet-65536": 1.5}
#: The pytest entry's smaller diet family: its keys fit int32 like
#: diet-32768's, so it shares that floor.
PYTEST_DIET_FAMILY = "diet-16384"

SOLVE_FAMILY = "solve-expander-65536"
FANOUT_FAMILY = "fanout-kbfs-32768"

#: Fan-out worker width (the "≥ 2 workers" of the acceptance gate).
FANOUT_WIDTH = 4

#: Peak-RSS ceiling for the whole bench run (self, MiB).  The n=65536
#: solve currently peaks around 1.1 GiB; tripling it is the "still
#: fits a laptop" line, not a tight bound.
MAX_PEAK_RSS_MIB = 3072

#: CPU-conditional fan-out speedup floors, ``{min_cpus: floor}``
#: (report-only on a single CPU).
FANOUT_FLOORS = {4: 2.0, 2: 1.2}

RULES = (
    *(Rule("floor", "ratio", floor, names=(name,))
      for name, floor in MIN_DIET_RATIO.items()),
    Rule("floor", "ratio", MIN_DIET_RATIO["diet-32768"],
         names=(PYTEST_DIET_FAMILY,)),
    # Diet ratios are deterministic byte math: plain tolerance.
    Rule("ratio", "ratio", names=tuple(MIN_DIET_RATIO)),
    Rule("floor", "speedup_fanout", FANOUT_FLOORS, names=(FANOUT_FAMILY,)),
    # Timing ratios only compare across runs that could both actually
    # overlap work (>= 2 CPUs on each side).
    Rule("ratio", "speedup_fanout", names=(FANOUT_FAMILY,),
         tolerance_x=2.0, min_cpus=2),
    Rule("ceiling", "self_mib", MAX_PEAK_RSS_MIB, section="peak_rss",
         names=None),
)


def _phases(ledger) -> List[dict]:
    return [stats.as_dict() for stats in ledger.phases()]


# -- families -----------------------------------------------------------------


def measure_diet(instance) -> dict:
    """Exported bytes vs the int64-equivalent layout (deterministic)."""
    arr = instance.build_network(fabric="vector").topology.arrays()
    diet = arr.nbytes()
    int64_eq = sum(getattr(arr, field).size * 8
                   for field, _role in TopologyArrays.FIELDS)
    import numpy as np
    return {
        "n": instance.n,
        "m": instance.m,
        "diet_bytes": diet,
        "int64_bytes": int64_eq,
        "ratio": round(int64_eq / diet, 3),
        "index_dtype": np.dtype(arr.index_dtype).name,
        "key_dtype": np.dtype(arr.key_dtype).name,
        "weight_dtype": np.dtype(arr.weight_dtype).name,
    }


def measure_solve(instance) -> dict:
    """Whole solve at n=65536: serial vs parallel=2, bit-identity
    asserted, speedup report-only (Amdahl: only the landmark kBFS
    pair fans out)."""
    with quiet_gc():
        start = time.perf_counter()
        serial = solve_rpaths(instance, seed=7, fabric="vector",
                              landmark_c=0.05)
        serial_s = time.perf_counter() - start
    with quiet_gc():
        start = time.perf_counter()
        fanned = solve_rpaths(instance, seed=7, fabric="vector",
                              landmark_c=0.05, parallel=2)
        parallel_s = time.perf_counter() - start
    if fanned.lengths != serial.lengths:
        raise AssertionError(f"{SOLVE_FAMILY}: parallel lengths differ")
    if _phases(fanned.ledger) != _phases(serial.ledger):
        raise AssertionError(f"{SOLVE_FAMILY}: parallel ledger differs")
    return {
        "n": instance.n,
        "m": instance.m,
        "rounds": serial.rounds,
        "landmark_c": 0.05,
        "workers": 2,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup_parallel": round(serial_s / parallel_s, 3),
        "identical": True,
    }


def measure_fanout(instance, chunks: int = 8, chunk_size: int = 32,
                   hop_limit: int = 48) -> dict:
    """The fan-out mechanism in isolation: independent kBFS chunks,
    serial loop vs shared-memory pool, bit-identity asserted."""
    from repro.runtime import sharedmem

    topo = instance.build_network(fabric="vector").topology
    sources = [list(range(c * chunk_size, (c + 1) * chunk_size))
               for c in range(chunks)]

    serial_net = instance.build_network(fabric="vector")
    with quiet_gc():
        start = time.perf_counter()
        serial = [multi_source_hop_bfs(serial_net, chunk,
                                       hop_limit=hop_limit,
                                       phase="scale-fanout")
                  for chunk in sources]
        serial_s = time.perf_counter() - start

    fanned_net = instance.build_network(fabric="vector")
    with sharedmem.publish_topology(topo) as pub:
        with quiet_gc():
            start = time.perf_counter()
            fanned = sharedmem.fanout_kbfs(
                fanned_net, pub, FANOUT_WIDTH,
                [dict(sources=chunk, hop_limit=hop_limit,
                      phase="scale-fanout") for chunk in sources],
                site="serve-batch")
            fanout_s = time.perf_counter() - start
    if fanned != serial:
        raise AssertionError(f"{FANOUT_FAMILY}: pooled tables differ")
    if _phases(fanned_net.ledger) != _phases(serial_net.ledger):
        raise AssertionError(f"{FANOUT_FAMILY}: merged ledger differs")
    return {
        "n": instance.n,
        "chunks": chunks,
        "chunk_size": chunk_size,
        "hop_limit": hop_limit,
        "width": FANOUT_WIDTH,
        "cpus": os.cpu_count() or 1,
        "serial_seconds": round(serial_s, 3),
        "fanout_seconds": round(fanout_s, 3),
        "speedup_fanout": round(serial_s / fanout_s, 3),
        "identical": True,
    }


def measure() -> Dict[str, dict]:
    return {"families": measure_families(), "peak_rss": measure_peak_rss()}


def measure_families() -> Dict[str, dict]:
    families: Dict[str, dict] = {}
    mid = expander_instance(32768, degree=4, seed=5)
    families["diet-32768"] = measure_diet(mid)
    families[FANOUT_FAMILY] = measure_fanout(mid)
    del mid
    gc.collect()
    big = expander_instance(65536, degree=4, seed=3)
    families["diet-65536"] = measure_diet(big)
    families[SOLVE_FAMILY] = measure_solve(big)
    return families


def measure_peak_rss() -> dict:
    """Peak RSS of this process + its pool children, exported as the
    :data:`repro.telemetry.scale.RSS_GAUGE` gauge (``ru_maxrss`` is
    KiB on Linux)."""
    import resource

    from repro.telemetry import scale as _scale

    unit = 1024 if sys.platform != "darwin" else 1
    self_b = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit
    child_b = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               * unit)
    _scale.record_peak_rss(self_b)
    return {
        "self_mib": round(self_b / (1 << 20), 1),
        "children_mib": round(child_b / (1 << 20), 1),
    }


# -- reporting / gating -------------------------------------------------------


def render(sections: Dict[str, dict]) -> str:
    from repro.analysis import format_records

    families, peak_rss = sections["families"], sections["peak_rss"]
    diets = [{"family": name, **families[name]}
             for name in sorted(MIN_DIET_RATIO)]
    blocks = [format_records(
        diets,
        ["family", "n", "m", "diet_bytes", "int64_bytes", "ratio",
         "index_dtype", "key_dtype", "weight_dtype"],
        title="int32 memory diet — exported bytes vs int64 layout")]
    solve = families[SOLVE_FAMILY]
    fanout = families[FANOUT_FAMILY]
    blocks.append(format_records(
        [{"family": SOLVE_FAMILY, **solve}],
        ["family", "n", "rounds", "serial_seconds", "parallel_seconds",
         "speedup_parallel", "identical"],
        title="whole solve at n=65536 — serial vs parallel=2 "
              "(speedup report-only: Amdahl)"))
    blocks.append(format_records(
        [{"family": FANOUT_FAMILY, **fanout}],
        ["family", "n", "chunks", "width", "cpus", "serial_seconds",
         "fanout_seconds", "speedup_fanout", "identical"],
        title="shared-memory fan-out — independent kBFS chunks"))
    floor = bound_for(FANOUT_FLOORS, fanout)
    blocks.append(
        f"fan-out gate on {fanout['cpus']} cpu(s): "
        + (f">= {floor}x" if floor else "report-only (needs >= 2)")
        + f"; peak RSS self {peak_rss['self_mib']} MiB, "
          f"children {peak_rss['children_mib']} MiB "
          f"(ceiling {MAX_PEAK_RSS_MIB} MiB)")
    return "\n\n".join(blocks)


# -- pytest-benchmark entry point ---------------------------------------------


def bench_scale_memory_diet(benchmark):
    """Diet ratio at a size every CI shard can afford (see module doc
    for the full CLI gate; n=16384 keeps keys int32, so 2x exactly)."""
    from _util import report

    instance = expander_instance(16384, degree=4, seed=5)
    row = benchmark.pedantic(
        lambda: measure_diet(instance),
        rounds=1, iterations=1)
    report("scale", json.dumps(row, indent=2))
    require({"families": {PYTEST_DIET_FAMILY: row}}, RULES)


# -- CLI (CI perf gate) -------------------------------------------------------


if __name__ == "__main__":
    raise SystemExit(run(
        "scale", __doc__, measure, render, RULES, trace=True,
        header={"min_diet_ratio": MIN_DIET_RATIO,
                "fanout_width": FANOUT_WIDTH,
                "max_peak_rss_mib": MAX_PEAK_RSS_MIB}))
