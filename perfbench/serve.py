"""The serve workloads: the daemon behind its admission front-end.

Both run ``ServeDaemon(workers=1)``, otherwise with its default
settings, over four fixed ``random_instance(128)`` graphs, driven
through ``ServeFrontend`` by the open- and closed-loop drivers of
:mod:`perfbench.loadgen`.  One worker process plus the front-end
process fill a 2-CPU machine without oversubscribing it; with two
workers the three processes contend and the latency percentiles of
repeated runs differ by a factor of two or more.

* ``serve-mixed`` — read-heavy ``mixed`` traffic (80% oracle hits,
  20% zipf fallbacks through the batch planner's k-source solve).
* ``serve-storm`` — uniform reads, about 90% with an epoch budget of 2
  and 10% demanding fresh answers, while a second thread applies a
  4-mutation burst to one instance every 2 s, round-robin.  The
  re-warm after each burst runs on the daemon's default ``fast``
  message engine, so stale serving and fresh-demand waits both show.

The untraced run of either drives a closed loop for the whole
``--seconds`` and reports its median wall time per answer over blocks
of answers (``op_ms``).  The traced run drives open loops instead — serve-mixed
at a nominal and at a peak rate below the measured knee, then a short
closed-loop capacity phase; serve-storm at a fixed rate — and reports
their due-time latencies with the per-layer split.

Every served answer is checked against a centralized SSSP on the
topology epoch it reports before any number is printed.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import loadgen
from .common import (SETUP_REPEATS, Result, median, peak_rss_mib,
                     trace_sink)

CATALOG = 4
N = 128
#: See the module docstring for why one worker.
WORKERS = 1
READ_FRACTION = 0.8
#: Queries per instance per generated chunk.
CHUNK = 50
#: Open-loop rates (queries/s), both below the closed-loop capacity
#: (2000-4000 qps on a 2-CPU machine with one worker).
NOMINAL_QPS = 250
PEAK_QPS = 1000
#: Capacity phase: clients x window outstanding stays under the
#: front-end's per-shard in-flight cap (64), so nothing is refused.
CAPACITY_CLIENTS = 2
CAPACITY_WINDOW = 16
#: ``op_ms`` is taken over the first ``OP_ANSWERS_PER_S x --seconds``
#: answers of the closed loop (a third to a half of what a run serves
#: on a 2-CPU machine), in blocks of ``OP_BLOCK``.
OP_ANSWERS_PER_S = 2000
OP_BLOCK = 1000
#: Storm traffic and writes.
STORM_QPS = 100
STORM_STALENESS = 2
STORM_FRESH_SHARE = 0.1
BURST_SIZE = 4
BURST_EVERY_S = 2.0
#: Unmeasured traffic before the first timed phase.
WARMUP_S = 1.0
#: Share of the run's seconds given to each serve-mixed phase.
MIXED_SPLIT = {"nominal": 0.45, "peak": 0.3, "capacity": 0.25}
#: Fixed-size closed loop timed with and without tracing.
OVERHEAD_QUERIES = 2000
OVERHEAD_REPEATS = 3
RTT_QUERIES = 2000


def make_catalog():
    """The served graphs.  Fixed across seeds: with four graphs the
    per-graph cost differences would not average out, so the seed
    drives the request and mutation streams instead."""
    from repro.graphs.generators import random_instance

    return [random_instance(N, seed=i, name=f"serve-{i}")
            for i in range(CATALOG)]


def query_stream(catalog, seed: int, kind: str,
                 shared: bool = False) -> Iterator[object]:
    """Endless interleave of per-instance query chunks.

    Each chunk draws a fresh zipf permutation, so which sources are
    hot changes every ``CHUNK`` queries per instance.  Short chunks
    keep the share of fallbacks that find the memo cold the same in
    every second of a run, instead of a burst of cold solves whenever
    a long chunk turns over.

    With ``shared`` every repeat of a query is the same object, so the
    samples a closed loop keeps for the checks grow with the distinct
    queries, not with how many requests the machine served, and do not
    move ``peak_rss_mib`` with the run's speed.  The traced runs keep
    repeats distinct: :class:`BatchLog` tells requests apart by
    identity.
    """
    from repro.serve.workload import mixed_workload, uniform_workload

    rng = random.Random(seed)
    seen: Dict[object, object] = {}
    while True:
        chunks = []
        for inst in catalog:
            chunk_seed = rng.randrange(2 ** 30)
            if kind == "mixed":
                chunks.append(mixed_workload(
                    inst, CHUNK, seed=chunk_seed,
                    read_fraction=READ_FRACTION))
            else:
                chunks.append(uniform_workload(inst, CHUNK,
                                               seed=chunk_seed))
        for group in zip(*chunks):
            for query in group:
                yield seen.setdefault(query, query) if shared else query


class Truth:
    """Memoized centralized distances per (instance, epoch)."""

    def __init__(self, catalog) -> None:
        self.instances = {(inst.name, inst.topology_version): inst
                          for inst in catalog}
        #: name -> the epoch the run started from.
        self.base = {inst.name: inst.topology_version
                     for inst in catalog}
        self._dist: Dict[tuple, List[int]] = {}

    def add(self, instance) -> None:
        self.instances[(instance.name, instance.topology_version)] = (
            instance)

    def length(self, query, epoch: int) -> Optional[int]:
        from repro.congest.words import INF

        inst = self.instances.get((query.instance, epoch))
        if inst is None:
            return None
        key = (query.instance, epoch, query.s, query.edge)
        dist = self._dist.get(key)
        if dist is None:
            dist = inst.dijkstra(query.s,
                                 avoid_edges=frozenset([query.edge]))
            self._dist[key] = dist
        return INF if dist[query.t] >= INF else dist[query.t]


class EpochLog:
    """When each instance's epochs started and became visible."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> [(epoch, apply called, apply returned)]
        self.rows: Dict[str, List[Tuple[int, float, float]]] = {}

    def record(self, name: str, epoch: int, called: float,
               returned: float) -> None:
        with self._lock:
            self.rows.setdefault(name, []).append(
                (epoch, called, returned))

    def window(self, name: str, base: int, sent: float,
               resolved: float) -> Tuple[int, int]:
        """Epochs the worker may have held while answering: at least
        the last one visible before ``sent`` (its invalidate message
        precedes the request in the worker's queue), at most the last
        one whose apply began before ``resolved``."""
        lo = hi = base
        for epoch, called, returned in self.rows.get(name, ()):
            if returned <= sent:
                lo = max(lo, epoch)
            if called <= resolved:
                hi = max(hi, epoch)
        return lo, hi


def verify(result: Result, samples: Sequence[loadgen.Sample],
           truth: Truth, epochs: Optional[EpochLog] = None) -> None:
    """Check every served answer on the epoch it reports."""
    for s in samples:
        if not s.served:
            continue
        p = s.pending
        lag = p.lag
        if lag > p.max_staleness:
            result.mismatch(f"{p.query.label}: lag {lag} over budget "
                            f"{p.max_staleness}")
            continue
        base = truth.base[p.query.instance]
        lo, hi = (base, base) if epochs is None else epochs.window(
            p.query.instance, base, s.sent, p.resolved_at)
        wants = {truth.length(p.query, e - lag)
                 for e in range(lo, hi + 1)}
        if p.length not in wants:
            result.mismatch(f"{p.query.label}: served {p.length}"
                            f" ({p.outcome}, lag {lag}), truth "
                            f"{sorted(w for w in wants if w is not None)}")


class Service:
    """One started daemon + front-end (the thing users talk to)."""

    def __init__(self, catalog) -> None:
        from repro.serve import ServeDaemon, ServeFrontend

        self.daemon = ServeDaemon(catalog, workers=WORKERS).start()
        self.frontend = ServeFrontend(self.daemon)

    def close(self) -> None:
        self.frontend.close()
        self.daemon.stop()


def setup():
    """Generate the catalog and start + warm the service, several
    times; keeps the last service running."""
    times = []
    service = None
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        catalog = make_catalog()
        service = Service(catalog)
        times.append(time.perf_counter() - start)
        if i < SETUP_REPEATS - 1:
            service.close()
    return catalog, service, median(times)


class BatchLog:
    """Benchmark-side wrapper on ``ServeDaemon.submit_batch``: when
    each batch went to the daemon and when its callback fired."""

    def __init__(self, daemon) -> None:
        self.batches: List[list] = []
        self.by_query: Dict[int, list] = {}
        inner = daemon.submit_batch

        def submit_batch(queries, callback, shard_id=None,
                         staleness=None):
            row = [len(queries), time.time(), None]
            self.batches.append(row)
            for q in queries:
                self.by_query[id(q)] = row

            def done(*args):
                row[2] = time.time()
                callback(*args)

            return inner(queries, done, shard_id=shard_id,
                         staleness=staleness)

        daemon.submit_batch = submit_batch

    def rtt_s(self, query) -> Optional[float]:
        row = self.by_query.get(id(query))
        if row is None or row[2] is None:
            return None
        return row[2] - row[1]


def _submitter(service: Service, budgeted: bool):
    """``submit(item)`` for plain queries, or for the (query, epoch
    budget) pairs of :func:`budgeted`."""
    frontend = service.frontend
    if not budgeted:
        return frontend.submit

    def submit(item):
        query, budget = item
        return frontend.submit(query, max_staleness=budget)

    return submit


def _open_phase(service: Service, stream, rate: float, seconds: float,
                budgeted: bool = False,
                depth: Optional[List[int]] = None):
    frontend = service.frontend
    submit = _submitter(service, budgeted)
    on_send = None
    if depth is not None:
        def on_send():
            depth.append(frontend.queue_depth())
    samples = loadgen.open_loop(submit, stream, rate, seconds,
                                on_send=on_send)
    loadgen.wait_all(samples)
    # The benchmark keeps every sample for the checks; freezing them
    # keeps later collector passes from rescanning what the program
    # itself would long have dropped.
    gc.freeze()
    return samples


def _warmup(service: Service, stream) -> None:
    _open_phase(service, stream, NOMINAL_QPS, WARMUP_S)


def _late_p99_ms(samples) -> float:
    return loadgen.percentile([s.late_s for s in samples], 99) * 1e3


def _attribution(result: Result, samples, log: BatchLog, spans,
                 phase: Tuple[float, float]) -> None:
    """Split the served requests' mean due-time latency into front-end
    self time, worker answer time (the workers' ``serve/answer-batch``
    spans in the phase) and the unspanned rest of the daemon round
    trip (queue IPC, worker scheduling, rebuild waits)."""
    lat, rtt, self_ms = [], [], []
    for s in samples:
        r = log.rtt_s(s.pending.query)
        if not s.served or r is None:
            continue
        lat.append(s.latency_s * 1e3)
        rtt.append(r * 1e3)
        self_ms.append(s.latency_s * 1e3 - r * 1e3)
    work = [float(sp["wall"]) * 1e3 for sp in spans
            if sp["name"] == "serve/answer-batch"
            and phase[0] <= float(sp["start"]) <= phase[1]]
    in_phase = [b for b in log.batches
                if b[2] is not None and phase[0] <= b[1] <= phase[1]]
    size_mean = sum(b[0] for b in in_phase) / len(in_phase)
    worker = sum(work) / len(work) if work else 0.0
    result.put("frontend.self_ms", median(self_ms), "ms")
    result.put("frontend.batches", len(in_phase), "count")
    result.put("frontend.batch_size_mean", size_mean, "count")
    result.put("serve.lat_mean_ms", sum(lat) / len(lat), "ms")
    result.put("serve.frontend_mean_ms", sum(self_ms) / len(self_ms),
               "ms")
    result.put("serve.worker_mean_ms", worker, "ms")
    result.put("serve.unattributed_mean_ms",
               sum(rtt) / len(rtt) - worker, "ms")


def _oracle_build_s(catalog) -> float:
    """``ReplacementPathOracle.build`` as the daemon configures it."""
    from repro.serve import ReplacementPathOracle

    times = []
    for inst in catalog:
        start = time.perf_counter()
        ReplacementPathOracle.build(inst, solver="theorem1", seed=0,
                                    fabric="fast")
        times.append(time.perf_counter() - start)
    return median(times)


def _closed_wall(service: Service, stream) -> float:
    """Median wall time of a fixed closed-loop batch, run
    ``OVERHEAD_REPEATS`` times."""
    walls = []
    for _ in range(OVERHEAD_REPEATS):
        items = [next(stream) for _ in range(OVERHEAD_QUERIES)]
        start = time.perf_counter()
        report = loadgen.closed_loop(service.frontend.submit, items,
                                     CAPACITY_CLIENTS, CAPACITY_WINDOW,
                                     seconds=3600.0)
        walls.append(time.perf_counter() - start)
        if loadgen.failed_count(report.samples):
            raise AssertionError("overhead probe: requests failed")
    return median(walls)


# -- serve-mixed --------------------------------------------------------------

def _mixed_phases(service: Service, stream, seconds: float,
                  depth: Optional[List[int]] = None):
    """The nominal and peak open loops, then the capacity closed loop;
    returns their samples plus the nominal phase's wall-clock window."""
    phase = {k: v * seconds for k, v in MIXED_SPLIT.items()}
    t0 = time.time()
    nominal = _open_phase(service, stream, NOMINAL_QPS,
                          phase["nominal"], depth=depth)
    window = (t0, time.time())
    peak = _open_phase(service, stream, PEAK_QPS, phase["peak"])
    capacity = loadgen.closed_loop(service.frontend.submit, stream,
                                   CAPACITY_CLIENTS, CAPACITY_WINDOW,
                                   phase["capacity"])
    return nominal, peak, capacity, window


def _check(result: Result, samples, truth: Truth,
           epochs: Optional[EpochLog] = None) -> None:
    """Count the requests and their failures; check every answer."""
    result.attempted += len(samples)
    result.failed += loadgen.failed_count(samples)
    verify(result, samples, truth, epochs)


def _op_ms(report, answers: int, block: int = OP_BLOCK) -> float:
    """Median wall time per answer over the closed loop's first
    ``answers`` answers, taken per block of ``block`` consecutive ones.

    A fixed count, not every answer of the run: the fallback memo keeps
    warming for the first ~150k answers (serve-mixed's time per answer
    falls by more than half), so a figure over all answers would move
    with how many a run got through.  The block median keeps a block
    that spans a stall — a fresh-demanding request waiting out a
    re-warm under serve-storm, a slow stretch of the machine — from
    moving it; the traced run reports the stalls (``serve.lat_p99_ms``,
    ``serve.refresh_s``)."""
    done = sorted(s.pending.resolved_at for s in report.samples
                  if s.served and s.pending.resolved_at <= report.deadline)
    if len(done) < max(answers, block):
        raise AssertionError(f"the closed loop served {len(done)} "
                             f"answers, under the {answers} op_ms needs")
    marks = [report.start] + done[:answers][block - 1::block]
    return median([(b - a) / block * 1e3
                   for a, b in zip(marks, marks[1:])])


def _closed_phase(service: Service, stream, seconds: float,
                  budgeted: bool = False):
    return loadgen.closed_loop(_submitter(service, budgeted), stream,
                               CAPACITY_CLIENTS, CAPACITY_WINDOW, seconds)


def _end_to_end(result: Result, setup_s: float, report,
                seconds: float) -> None:
    result.put("setup_s", setup_s, "s")
    result.put("served_frac", 1.0 - result.failed / result.attempted,
               "frac")
    result.put("op_ms", _op_ms(report, int(OP_ANSWERS_PER_S * seconds)),
               "ms")


def run_mixed(seed: int, seconds: float) -> Result:
    """End-to-end metrics: set-up, memory, the share served and the
    closed loop's wall time per answer (:func:`_op_ms`).  The open-loop
    latency percentiles of this workload move by a factor of two or
    more between repeated runs on a shared 2-CPU machine, so they are
    reported by the traced run as per-layer diagnostics."""
    result = Result()
    catalog, service, setup_s = setup()
    stream = query_stream(catalog, seed, "mixed", shared=True)
    try:
        _warmup(service, stream)
        report = _closed_phase(service, stream, seconds)
    finally:
        service.close()
    result.put("peak_rss_mib", peak_rss_mib(), "MiB")
    _check(result, report.samples, Truth(catalog))
    _end_to_end(result, setup_s, report, seconds)
    return result


def _kind_fracs(result: Result, samples) -> None:
    from repro.serve.queries import (BATCHED_SOLVE, FALLBACK_CACHED,
                                     HIT_KINDS)

    kinds = [s.pending.kind for s in samples if s.served]
    total = len(kinds)
    result.put("oracle.hit_frac",
               sum(k in HIT_KINDS for k in kinds) / total, "frac")
    result.put("oracle.memo_frac",
               sum(k == FALLBACK_CACHED for k in kinds) / total, "frac")
    result.put("planner.batched_frac",
               sum(k == BATCHED_SOLVE for k in kinds) / total, "frac")


def _daemon_rtt(result: Result, service: Service, stream) -> None:
    """``submit_batch`` -> callback round trips, one query at a time,
    bypassing the front-end."""
    daemon = service.daemon
    rtts = []
    for _ in range(RTT_QUERIES):
        q = next(stream)
        done = threading.Event()
        box = []

        def callback(lengths, kinds, lags, error, box=box, done=done):
            box.append(error)
            done.set()

        start = time.perf_counter()
        daemon.submit_batch([q], callback)
        if not done.wait(timeout=30.0) or box[0]:
            raise AssertionError(f"daemon round trip failed: {box}")
        rtts.append(time.perf_counter() - start)
    result.put("daemon.rtt_ms.p50", loadgen.percentile(rtts, 50) * 1e3,
               "ms")
    result.put("daemon.rtt_ms.p99", loadgen.percentile(rtts, 99) * 1e3,
               "ms")


def _shard_answer_us(result: Result, catalog, samples, size: int) -> None:
    """The worker's answer path in-process: ``OracleShard`` configured
    like a daemon worker, fed the same queries in same-sized
    batches."""
    from repro.serve import OracleShard

    shard = OracleShard(shard_id=0, capacity=CATALOG)
    for inst in catalog:
        shard.add_instance(inst)
    shard.warm()
    queries = [s.pending.query for s in samples]
    size = max(1, int(round(size)))
    start = time.perf_counter()
    for i in range(0, len(queries), size):
        shard.answer_batch(queries[i:i + size])
    result.put("shard.answer_us",
               (time.perf_counter() - start) / len(queries) * 1e6, "us")


def _overhead(seed: int, catalog, kind: str, traced_wall: float) -> float:
    """Untraced wall of the same fixed closed loop, on a fresh
    untraced service, relative to the traced one."""
    service = Service(catalog)
    try:
        stream = query_stream(catalog, seed + 1, kind)
        _warmup(service, stream)
        wall = _closed_wall(service, stream)
    finally:
        service.close()
    return traced_wall / wall - 1


def trace_mixed(seed: int, seconds: float) -> Result:
    from repro.telemetry.sink import read_trace

    result = Result()
    catalog = make_catalog()
    result.put("oracle.build_s", _oracle_build_s(catalog), "s")
    with trace_sink("serve") as sink:
        service = Service(catalog)
        try:
            stream = query_stream(catalog, seed + 1, "mixed")
            _warmup(service, stream)
            traced_wall = _closed_wall(service, stream)
            log = BatchLog(service.daemon)
            depth: List[int] = []
            before = service.daemon.stats()["totals"]
            nominal, peak, capacity, window = _mixed_phases(
                service, stream, seconds, depth=depth)
            after = service.daemon.stats()["totals"]
            _daemon_rtt(result, service, stream)
        finally:
            service.close()
        spans, _counters, _info = read_trace(sink)
    truth = Truth(catalog)
    for samples in (nominal, peak, capacity.samples):
        _check(result, samples, truth)
    result.put("serve.lat_p50_ms", loadgen.latency_ms(nominal, 50), "ms")
    result.put("serve.lat_p99_ms", loadgen.latency_ms(nominal, 99), "ms")
    result.put("serve.lat_p50_ms.peak", loadgen.latency_ms(peak, 50),
               "ms")
    result.put("serve.lat_p99_ms.peak", loadgen.latency_ms(peak, 99),
               "ms")
    result.put("serve.capacity_qps", capacity.qps, "1/s")
    _attribution(result, nominal, log, spans, window)
    _kind_fracs(result, nominal)
    result.put("frontend.queue_depth_max", max(depth), "count")
    result.put("planner.batch_solves",
               after["batch_solves"] - before["batch_solves"], "count")
    result.put("loadgen.late_p99_ms", _late_p99_ms(nominal), "ms")
    result.put("loadgen.sent", len(nominal), "count")
    _shard_answer_us(result, catalog, nominal,
                     result.metrics["frontend.batch_size_mean"]["value"])
    result.put("trace.overhead_frac",
               _overhead(seed, catalog, "mixed", traced_wall), "frac")
    return result


# -- serve-storm --------------------------------------------------------------

class Mutator(threading.Thread):
    """Applies a burst to one instance every ``BURST_EVERY_S``,
    round-robin over the catalog, until stopped."""

    def __init__(self, service: Service, catalog, seed: int,
                 truth: Truth, epochs: EpochLog) -> None:
        super().__init__(name="perfbench-mutator", daemon=True)
        from repro.dynamic import MutationStream

        self.daemon = service.daemon
        self.names = [inst.name for inst in catalog]
        self.stream = MutationStream(seed=seed)
        self.truth = truth
        self.epochs = epochs
        self.halt = threading.Event()
        self.applies: List[Tuple[str, float, float]] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            i = 0
            while not self.halt.wait(BURST_EVERY_S):
                name = self.names[i % len(self.names)]
                i += 1
                burst = self.stream.burst(self.daemon.instance_for(name),
                                          BURST_SIZE)
                called = time.time()
                res = self.daemon.apply_mutations(name, burst)
                returned = time.time()
                if not res.applied:
                    continue
                self.stream.note_applied(name, res.applied)
                self.truth.add(res.instance)
                self.epochs.record(name, res.epoch, called, returned)
                self.applies.append((name, called, returned))
        except BaseException as exc:  # reported by the main thread
            self.error = exc


def _during_storm(service, catalog, seed, truth, epochs, drive):
    """Run ``drive()`` while a :class:`Mutator` applies the bursts;
    returns what it returned and the mutator."""
    mutator = Mutator(service, catalog, seed, truth, epochs)
    mutator.start()
    try:
        out = drive()
    finally:
        mutator.halt.set()
        mutator.join()
    if mutator.error is not None:
        raise mutator.error
    return out, mutator


def _refresh_s(samples, mutator: Mutator) -> List[float]:
    """Per applied burst: apply returned -> first fresh ``ok`` for a
    request to that instance sent after it returned."""
    out = []
    for name, _called, returned in mutator.applies:
        firsts = [s.pending.resolved_at - returned for s in samples
                  if s.pending.outcome == "ok"
                  and s.pending.query.instance == name
                  and s.sent >= returned]
        if firsts:
            out.append(min(firsts))
    return out


def budgeted(stream, seed: int) -> Iterator[Tuple[object, int]]:
    """Pair each query with its epoch budget: 0 (fresh) with
    probability ``STORM_FRESH_SHARE``, else ``STORM_STALENESS``."""
    rng = random.Random(seed)
    # Shared like the queries of a ``shared`` stream (see there).
    pairs: Dict[Tuple[object, int], Tuple[object, int]] = {}
    for query in stream:
        fresh = rng.random() < STORM_FRESH_SHARE
        pair = (query, 0 if fresh else STORM_STALENESS)
        yield pairs.setdefault(pair, pair)


def run_storm(seed: int, seconds: float) -> Result:
    """End-to-end metrics: set-up, memory, the share served and the
    closed loop's wall time per answer while the bursts land.  The
    open-loop latency percentiles and refresh time follow the
    re-warm's duration, which moved 20-50% between repeated runs on a
    shared 2-CPU machine, so the traced run reports them per layer."""
    result = Result()
    catalog, service, setup_s = setup()
    truth = Truth(catalog)
    epochs = EpochLog()
    try:
        _warmup(service, query_stream(catalog, seed + 1, "uniform"))
        stream = budgeted(query_stream(catalog, seed, "uniform",
                                       shared=True), seed)
        report, mutator = _during_storm(
            service, catalog, seed, truth, epochs,
            lambda: _closed_phase(service, stream, seconds,
                                  budgeted=True))
    finally:
        service.close()
    if not mutator.applies:
        raise AssertionError("no burst was applied during the storm")
    result.put("peak_rss_mib", peak_rss_mib(), "MiB")
    _check(result, report.samples, truth, epochs)
    _end_to_end(result, setup_s, report, seconds)
    return result


def trace_storm(seed: int, seconds: float) -> Result:
    from repro.telemetry.sink import read_trace

    result = Result()
    catalog = make_catalog()
    truth = Truth(catalog)
    epochs = EpochLog()
    result.put("oracle.build_s", _oracle_build_s(catalog), "s")
    with trace_sink("storm") as sink:
        service = Service(catalog)
        try:
            stream = query_stream(catalog, seed + 1, "uniform")
            _warmup(service, stream)
            traced_wall = _closed_wall(service, stream)
            log = BatchLog(service.daemon)
            depth: List[int] = []
            t0 = time.time()
            storm = budgeted(query_stream(catalog, seed, "uniform"),
                             seed)
            samples, mutator = _during_storm(
                service, catalog, seed, truth, epochs,
                lambda: _open_phase(service, storm, STORM_QPS, seconds,
                                    budgeted=True, depth=depth))
            t1 = time.time()
            totals = service.daemon.stats()["totals"]
        finally:
            service.close()
        spans, _counters, _info = read_trace(sink)
    _check(result, samples, truth, epochs)
    refresh = _refresh_s(samples, mutator)
    if not refresh:
        raise AssertionError("no burst was followed by a fresh answer")
    stale = sum(1 for s in samples if s.pending.outcome == "stale")
    result.put("serve.lat_p50_ms", loadgen.latency_ms(samples, 50), "ms")
    result.put("serve.lat_p99_ms", loadgen.latency_ms(samples, 99), "ms")
    result.put("serve.refresh_s", median(refresh), "s")
    result.put("dynamic.stale_frac", stale / len(samples), "frac")
    apply_ms = [(ret - called) * 1e3 for _n, called, ret in mutator.applies]
    rebuilds = [float(sp["wall"]) for sp in spans
                if sp["name"] == "serve/oracle-build"
                and t0 <= float(sp["start"]) <= t1]
    _attribution(result, samples, log, spans, (t0, t1))
    result.put("frontend.queue_depth_max", max(depth), "count")
    result.put("dynamic.apply_ms", median(apply_ms), "ms")
    if not rebuilds:
        raise AssertionError("no re-warm ran during the storm")
    result.put("dynamic.rebuild_s", median(rebuilds), "s")
    for key in ("invalidations", "memo_carried", "stale_answers"):
        result.put(f"dynamic.{key}", totals[key], "count")
    result.put("loadgen.late_p99_ms", _late_p99_ms(samples), "ms")
    result.put("loadgen.sent", len(samples), "count")
    result.put("trace.overhead_frac",
               _overhead(seed, catalog, "uniform", traced_wall),
               "frac")
    return result


def _stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts for the daemon's
    shared-memory topologies, and wait for it to exit."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    try:
        if workload == "serve-mixed":
            return (trace_mixed if trace else run_mixed)(seed, seconds)
        return (trace_storm if trace else run_storm)(seed, seconds)
    finally:
        _stop_resource_tracker()
