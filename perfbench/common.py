"""Shared plumbing: result records, medians, memory, the trace sink."""

from __future__ import annotations

import contextlib
import os
import pathlib
import resource
import shutil
import statistics
from typing import Dict, Iterator, List, Sequence

#: Root of the checkout the benchmark runs in.
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Scratch space for trace files, inside the checkout (ignored by git).
TMP = ROOT / ".perfbench-tmp"

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3

#: Each end-to-end timing's layers plus its unattributed row must add
#: up to the traced wall time within this share.
ADD_UP_SHARE = 0.01


class Result:
    """Collects metrics and the correctness tally of one run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def mismatch(self, message: str) -> None:
        self.mismatches.append(message)

    def as_json(self) -> Dict[str, object]:
        return {"correct": not self.mismatches,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics}


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest reaped
    child (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@contextlib.contextmanager
def trace_sink(label: str) -> Iterator[pathlib.Path]:
    """A fresh trace directory with tracing on; removed afterwards.

    Worker processes started inside the block inherit
    ``$REPRO_TRACE_DIR`` and flush their own per-pid files into it.
    """
    from repro import telemetry

    path = TMP / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    telemetry.enable_tracing(str(path))
    try:
        yield path
    finally:
        telemetry.disable_tracing()
        telemetry.drain_spans()
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()
