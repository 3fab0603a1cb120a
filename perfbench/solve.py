"""The ``solve`` workload: three offline simulator solves, no daemon.

* ``thm1-expander`` — Theorem 1, vector fabric, expander n=2048,
  ``landmark_c=0.5``: k-source BFS (L5.5) is the largest phase, about
  37% of a traced solve against 20% on the hard instance.
* ``thm1-lowerbound`` — Theorem 1, vector fabric, the Section 6 hard
  instance ``build_hard_instance(8, 4, 2, ...)`` (n=2406): the |L|^2
  pair broadcast (L2.4) is the largest phase, about 39%.
* ``thm3-weighted`` — Theorem 3, vector fabric, weighted expander
  n=128, eps=0.25, ``landmark_c=0.5``: the scaled-BFS path in
  ``repro.approx``, a different code path again.

The inputs are small so that a pass takes ~2.5 s and a run takes the
median of about eight walls per solve: on a shared 2-CPU VM one
solve's wall moves by up to 20% from one repeat to the next, and with
two or three walls per solve (n=4096, the k=12 hard instance with
n=7486, n=256) the run's figure moved by 30% between runs.

The seed picks one of :data:`VARIANTS` hard-instance inputs (matrix
and bits).  Each variant's ledger fingerprint is
committed in ``fingerprints.json``; every solve must reproduce it and
return exact (Theorem 1) or (1+eps)-approximate (Theorem 3) lengths.

After one untimed warm-up pass, the untraced run reports ``op_ms``,
the mean over the three solves of each one's median wall; the traced
run reports those medians (``solve_s.*``) beside each solve's phase
and kernel split.
"""

from __future__ import annotations

import gc
import json
import random
import time
from typing import Dict, List

from . import layers
from .common import (ADD_UP_SHARE, ROOT, Result, median, peak_rss_mib,
                     trace_sink)

SOLVES = ("thm1-expander", "thm1-lowerbound", "thm3-weighted")
VARIANTS = 8
#: Instance generation takes ~0.2 s, so it is repeated more often than
#: the serve workloads' daemon start: the median of 5 moved by a factor
#: of two between runs.
SETUP_REPEATS = 11
EPSILON = 0.25
LANDMARK_C = 0.5
SOLVER_SEED = 7
FINGERPRINTS = ROOT / "perfbench" / "fingerprints.json"
FINGERPRINT_FIELDS = ("rounds", "messages", "words", "max_link_words",
                      "violations")

#: Theorem 1 phase buckets reported per solve (``core.<bucket>_s``).
CORE_BUCKETS = ("kbfs", "pair_broadcast", "landmark_completion",
                "short_detour", "knowledge", "segments", "spanning_tree",
                layers.UNATTRIBUTED)


def make_inputs(seed: int) -> Dict[str, object]:
    """The three solve inputs of variant ``seed % VARIANTS``.

    The variant is the Section 6 construction's own input: the k x k
    matrix M and the k^2 bits x, which move only a few edges of a fixed
    skeleton.  The two expanders stay fixed, so that their timings
    move with the program and the machine, not with the graph drawn.
    """
    from repro.graphs import expander_instance
    from repro.lowerbound import build_hard_instance

    rng = random.Random(seed % VARIANTS)
    k = 8
    matrix = [[rng.randrange(2) for _ in range(k)] for _ in range(k)]
    bits = [rng.randrange(2) for _ in range(k * k)]
    return {
        "thm1-expander": expander_instance(
            2048, degree=4, seed=0, name="thm1-expander"),
        "thm1-lowerbound": build_hard_instance(
            k, 4, 2, matrix, bits).instance,
        "thm3-weighted": expander_instance(
            128, degree=4, seed=0, weighted=True, name="thm3-weighted"),
    }


def run_solve(name: str, instance):
    from repro import telemetry
    from repro.approx.apx_rpaths import solve_apx_rpaths
    from repro.core.rpaths import solve_rpaths

    with telemetry.span("perfbench/solve", solve=name):
        if name.startswith("thm3"):
            return solve_apx_rpaths(instance, epsilon=EPSILON,
                                    seed=SOLVER_SEED, fabric="vector",
                                    landmark_c=LANDMARK_C)
        return solve_rpaths(instance, seed=SOLVER_SEED, fabric="vector",
                            landmark_c=LANDMARK_C)


def fingerprint(report) -> Dict[str, int]:
    ledger = report.ledger
    return {f: int(getattr(ledger, f)) for f in FINGERPRINT_FIELDS}


def lengths_ok(name: str, lengths: List[float], exact: List[int]) -> bool:
    from repro.congest.words import INF

    if len(lengths) != len(exact):
        return False
    if name.startswith("thm1"):
        return list(lengths) == list(exact)
    for got, want in zip(lengths, exact):
        if want >= INF:
            if got != float("inf"):
                return False
        elif not want <= got <= (1 + EPSILON) * want:
            return False
    return True


def _dispatch_totals() -> Dict[str, float]:
    from repro.telemetry import snapshot_counters
    from repro.telemetry.dispatch import dispatch_rows

    out = {"vector": 0.0, "all": 0.0}
    for _kernel, outcome, _reason, count in dispatch_rows(
            snapshot_counters()["counters"]):
        out["all"] += count
        if outcome == "vector":
            out["vector"] += count
    return out


def _setup(seed: int):
    times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        start = time.perf_counter()
        inputs = make_inputs(seed)
        times.append(time.perf_counter() - start)
    return inputs, median(times)


def _timed(name: str, instance):
    gc.collect()
    start = time.perf_counter()
    report = run_solve(name, instance)
    return report, time.perf_counter() - start


def _check(result: Result, name: str, report, expected,
           exact) -> None:
    result.attempted += 1
    got = fingerprint(report)
    ok = True
    if got != expected[name]:
        result.mismatch(f"{name}: ledger {got} != committed "
                        f"{expected[name]}")
        ok = False
    if not lengths_ok(name, report.lengths, exact[name]):
        result.mismatch(f"{name}: lengths disagree with the "
                        "centralized baseline")
        ok = False
    if not ok:
        result.failed += 1


def _exact(inputs) -> Dict[str, List[int]]:
    from repro.baselines.centralized import replacement_lengths

    return {name: replacement_lengths(inst)
            for name, inst in inputs.items()}


def _layer_metrics(spans, report_by_name, dispatch) -> Dict[str, float]:
    """Per-layer numbers of one traced pass."""
    tree = layers.SpanTree(spans)
    roots = {tree.spans[k]["attrs"]["solve"]: k
             for k in tree.find_roots("perfbench/solve")}
    out: Dict[str, float] = {}
    for name in SOLVES:
        root = roots[name]
        wall = float(tree.spans[root]["wall"])
        kernels = layers.attribute(tree, root, layers.kernel_rule)
        if name.startswith("thm1"):
            phases = layers.attribute(tree, root, layers.theorem1_rule)
            for bucket in CORE_BUCKETS:
                out[f"core.{bucket}_s.{name}"] = phases.get(bucket, 0.0)
            for kernel in ("multisource", "broadcast"):
                out[f"kernel.{kernel}_s.{name}"] = kernels.get(kernel,
                                                               0.0)
        else:
            phases = layers.attribute(tree, root, layers.theorem3_rule)
            for bucket in ("approximators", "landmark_distances",
                           layers.UNATTRIBUTED):
                out[f"approx.{bucket}_s"] = phases.get(bucket, 0.0)
            out["approx.unkerneled_s"] = kernels[layers.UNATTRIBUTED]
        for split in (phases, kernels):
            if abs(sum(split.values()) - wall) > ADD_UP_SHARE * wall:
                raise AssertionError(
                    f"{name}: layers sum to {sum(split.values()):.4f}s "
                    f"but the solve took {wall:.4f}s")
        vec, total = dispatch[name]
        out[f"dispatch.vector_frac.{name}"] = vec / total
        for field in ("rounds", "messages", "words"):
            out[f"congest.{field}.{name}"] = getattr(
                report_by_name[name].ledger, field)
    return out


def _traced_pass(result, inputs, expected, exact):
    from repro import telemetry
    from repro.telemetry.sink import read_trace

    walls, reports, dispatch = {}, {}, {}
    with trace_sink("solve") as sink:
        for name in SOLVES:
            before = _dispatch_totals()
            reports[name], walls[name] = _timed(name, inputs[name])
            after = _dispatch_totals()
            dispatch[name] = (after["vector"] - before["vector"],
                              after["all"] - before["all"])
            _check(result, name, reports[name], expected, exact)
        telemetry.flush()
        spans, _counters, _info = read_trace(sink)
    return walls, _layer_metrics(spans, reports, dispatch)


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    expected = json.loads(FINGERPRINTS.read_text())[str(seed % VARIANTS)]
    inputs, setup_s = _setup(seed)
    exact = _exact(inputs)
    walls: Dict[str, List[float]] = {name: [] for name in SOLVES}
    traced: Dict[str, List[float]] = {name: [] for name in SOLVES}
    per_layer: List[Dict[str, float]] = []
    # One untimed (but checked) pass first: the first solve of an input
    # in a process ran up to a third slower than the later ones.
    for name in SOLVES:
        _check(result, name, run_solve(name, inputs[name]), expected,
               exact)
    start = time.perf_counter()
    passes = 0
    while True:
        if trace and passes % 2 == 1:
            pass_walls, numbers = _traced_pass(result, inputs, expected,
                                               exact)
            per_layer.append(numbers)
            for name in SOLVES:
                traced[name].append(pass_walls[name])
        else:
            for name in SOLVES:
                report, wall = _timed(name, inputs[name])
                walls[name].append(wall)
                _check(result, name, report, expected, exact)
        passes += 1
        if time.perf_counter() - start >= seconds and (
                not trace or passes >= 2):
            break
    if trace:
        for key in per_layer[0]:
            value = median([p[key] for p in per_layer])
            unit = ("frac" if key.startswith("dispatch.") else "count"
                    if key.startswith("congest.") else "s")
            result.put(key, value, unit)
        for name in SOLVES:
            result.put(f"solve_s.{name}", median(walls[name]), "s")
        untraced = sum(median(walls[n]) for n in SOLVES)
        with_trace = sum(median(traced[n]) for n in SOLVES)
        result.put("trace.overhead_frac", with_trace / untraced - 1,
                   "frac")
        return result
    result.put("setup_s", setup_s, "s")
    result.put("peak_rss_mib", peak_rss_mib(), "MiB")
    result.put("served_frac", 1.0 - result.failed / result.attempted,
               "frac")
    result.put("op_ms", sum(median(walls[name]) for name in SOLVES)
               / len(SOLVES) * 1e3, "ms")
    return result


def record_fingerprints() -> Dict[str, Dict[str, Dict[str, int]]]:
    """Solve every variant once and return the ledger fingerprints,
    after checking the lengths against the centralized baseline."""
    out: Dict[str, Dict[str, Dict[str, int]]] = {}
    for variant in range(VARIANTS):
        inputs = make_inputs(variant)
        exact = _exact(inputs)
        row = {}
        for name in SOLVES:
            report = run_solve(name, inputs[name])
            if not lengths_ok(name, report.lengths, exact[name]):
                raise AssertionError(f"variant {variant} {name}: wrong "
                                     "lengths; refusing to record")
            row[name] = fingerprint(report)
        out[str(variant)] = row
    return out
