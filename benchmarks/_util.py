"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artifact (see DESIGN.md's
per-experiment index).  Since pytest captures stdout, each bench also
writes its rendered table to ``benchmarks/results/<name>.txt`` so the
paper-shaped rows survive a plain ``pytest benchmarks/ --benchmark-only``
run; EXPERIMENTS.md-style reference numbers live in those artifacts.

Benches that sweep many cells go through the runtime executor
(:func:`scenario_speedup`), which runs the same cells serially and then
``jobs``-wide and reports the measured wall-clock speedup — on a
single-core host expect ~1x (the executor still overlaps nothing), on a
multi-core host the parallel path wins.

The five CI-gated benches (``bench_{fabric,solver,serve,dynamic,
scale}.py``) share one gate harness.  Each declares a measure
function, a render function and a table of :class:`Rule` rows;
:func:`run` is their common CLI (measure, render, ``--json``,
``--compare``) and :func:`check` evaluates the table, for the CLI
against a committed baseline and for the pytest entries without one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

#: Allowed relative drop of a ratio below its committed baseline.
TOLERANCE = 0.25
#: Cap on a multiplied tolerance (a doubled 0.25 stays 0.5).
MAX_TOLERANCE = 0.9


def report(name: str, text: str) -> str:
    """Print a rendered experiment table and persist it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}]\n{text}\n")
    return text


def scenario_speedup(names, jobs: int = 2, smoke: bool = False,
                     timeout: float = 300.0):
    """Run the named scenarios' cells serially, then ``jobs``-wide.

    Returns ``(serial_results, parallel_results, SpeedupStats)``; both
    executions bypass the result cache so the comparison is honest.
    """
    from repro.analysis import speedup_stats
    from repro.runtime import expand_cells, run_cells

    specs = expand_cells(names, smoke=smoke)
    t0 = time.perf_counter()
    serial = run_cells(specs, jobs=1, timeout=timeout)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_cells(specs, jobs=jobs, timeout=timeout)
    t_parallel = time.perf_counter() - t0
    return serial, parallel, speedup_stats(t_serial, t_parallel, jobs)


# -- measurement helpers ------------------------------------------------------


@contextmanager
def quiet_gc():
    """Collect up front, then keep the collector out of the timed region.

    Collection pauses land on whichever side happens to be running and
    were the dominant run-to-run noise on the large kernel workloads;
    pinning them outside the timer keeps best-of-N ratios stable
    enough for the gate's tolerance.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def hard_instance(k: int, d: int, p: int):
    """The Section 6.3 lower-bound instance with a fixed bit pattern."""
    from repro.lowerbound import build_hard_instance

    matrix = [[(a + b) % 2 for b in range(k)] for a in range(k)]
    x_bits = [i % 2 for i in range(k * k)]
    return build_hard_instance(k, d, p, matrix, x_bits).instance


def environment() -> Dict[str, object]:
    """Interpreter/NumPy/platform/CPU stamp for baseline attribution."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is baked in CI
        numpy_version = "absent"
    return {
        "python_version": platform.python_version(),
        "numpy_version": numpy_version,
        "platform": platform.platform(),
        "cpus": os.cpu_count() or 1,
    }


# -- gate rules ---------------------------------------------------------------


#: ``Rule.names`` value selecting every family of a section.
ALL = "*"


@dataclass(frozen=True)
class Rule:
    """One gate condition on ``field`` of some rows of a bench result.

    A bench result maps section names to either a dict of family rows
    (``names`` picks families: :data:`ALL` or a tuple of names) or one
    row (``names=None``; the row is labelled by its section).  Kinds:

    * ``"floor"`` — ``value >= bound`` (``> bound`` when ``strict``).
      ``bound`` may be CPU tiers ``{min_cpus: floor}`` read against the
      row's ``cpus``; a row below every tier is report-only.
    * ``"ceiling"`` — ``value <= bound``.
    * ``"true"`` — ``value`` is truthy.
    * ``"ratio"`` — ``value`` within ``TOLERANCE * tolerance_x``
      (capped at :data:`MAX_TOLERANCE`) of the baseline row's value.
      Checked only for rows the baseline has; with ``same_mode`` only
      when run and baseline share the ``quick`` flag, with ``min_cpus``
      only when both rows record at least that many ``cpus``.

    Families are selected from the run for bound rules and from the
    baseline for ratio rules; a family named by a rule but absent from
    the run is not a violation by itself — :func:`check` flags every
    family the run lost from a baseline section that a rule reads.
    """

    kind: str
    field: str
    bound: Union[float, Mapping[int, float], None] = None
    section: str = "families"
    names: Union[str, Tuple[str, ...], None] = ALL
    strict: bool = False
    tolerance_x: float = 1.0
    same_mode: bool = False
    min_cpus: int = 0


def bound_for(bound, row: Mapping) -> Optional[float]:
    """A rule bound for one row: the number, or its CPU tier (None =
    report-only)."""
    if not isinstance(bound, Mapping):
        return bound
    tiers = [cpus for cpus in bound if row["cpus"] >= cpus]
    return bound[max(tiers)] if tiers else None


def _rows(rule: Rule, payload: Mapping) -> Dict[str, Mapping]:
    section = payload.get(rule.section)
    if section is None:
        return {}
    if rule.names is None:
        return {rule.section: section}
    if rule.names == ALL:
        return dict(section)
    return {name: section[name] for name in rule.names
            if name in section}


def _missing(rules, result: Mapping, baseline: Mapping) -> List[str]:
    sections = dict.fromkeys(rule.section for rule in rules
                             if rule.names is not None)
    return [f"{name}: family missing from this run"
            for section in sections
            for name in baseline.get(section, {})
            if name not in result.get(section, {})]


def _ratio(rule: Rule, result: Mapping, baseline: Mapping) -> List[str]:
    if (rule.same_mode
            and bool(result.get("quick")) != bool(baseline.get("quick"))):
        return []
    tolerance = min(TOLERANCE * rule.tolerance_x, MAX_TOLERANCE)
    now_rows = _rows(rule, result)
    problems = []
    for label, base in _rows(rule, baseline).items():
        now = now_rows.get(label)
        if now is None or min(now.get("cpus", 1),
                              base.get("cpus", 1)) < rule.min_cpus:
            continue
        limit = base[rule.field] * (1.0 - tolerance)
        if now[rule.field] < limit:
            problems.append(
                f"{label}: {rule.field} {now[rule.field]:.2f} fell "
                f"below {limit:.2f} (baseline {base[rule.field]:.2f} "
                f"- {tolerance:.0%} tolerance)")
    return problems


def _bounded(rule: Rule, result: Mapping) -> List[str]:
    problems = []
    for label, row in _rows(rule, result).items():
        value = row[rule.field]
        bound = bound_for(rule.bound, row)
        if rule.kind == "true":
            if not value:
                problems.append(f"{label}: {rule.field} is {value!r}, "
                                "must be true")
        elif rule.kind == "ceiling":
            if value > bound:
                problems.append(f"{label}: {rule.field} {value:g} "
                                f"exceeds the {bound:g} ceiling")
        elif bound is not None and (value <= bound if rule.strict
                                    else value < bound):
            where = (f" for {row['cpus']} cpus"
                     if isinstance(rule.bound, Mapping) else "")
            relation = "is not above" if rule.strict else "is below"
            problems.append(f"{label}: {rule.field} {value:g} "
                            f"{relation} the {bound:g} floor{where}")
    return problems


def check(result: Mapping, rules, baseline: Optional[Mapping] = None
          ) -> List[str]:
    """Every rule violation in ``result`` (empty when the gate passes).

    ``result`` and ``baseline`` are bench payloads (the ``--json``
    shape).  Without a baseline only the bound rules apply.
    """
    baseline = baseline or {}
    problems = _missing(rules, result, baseline)
    for rule in rules:
        if rule.kind == "ratio":
            problems.extend(_ratio(rule, result, baseline))
        else:
            problems.extend(_bounded(rule, result))
    return problems


def require(result: Mapping, rules) -> None:
    """The pytest entries' gate: assert every bound rule holds."""
    problems = check(result, rules)
    assert not problems, problems


# -- CLI ----------------------------------------------------------------------


def run(bench: str, doc: str, measure: Callable[..., dict],
        render: Callable[[dict], str], rules, header: Mapping,
        quick: bool = False, trace: bool = False, argv=None) -> int:
    """The CLI every gated bench shares; returns the exit status.

    ``measure`` returns the result sections (called with the
    ``--quick`` flag when ``quick``; a bench whose ratios only compare
    within one mode stamps it as a ``"quick"`` section), ``render``
    turns them into the printed table, and ``header`` holds the
    constants stamped into the JSON ahead of the sections.  Exit 1 when
    ``--compare`` finds a rule violation.
    """
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--compare", type=pathlib.Path, default=None,
                        help="committed baseline JSON to gate against")
    if quick:
        parser.add_argument("--quick", action="store_true",
                            help="CI-sized workloads")
    if trace:
        parser.add_argument("--trace", type=pathlib.Path, default=None,
                            help="record spans into this JSONL trace "
                                 "directory (read back with "
                                 "'repro trace summary')")
    args = parser.parse_args(argv)
    mode = {"quick": args.quick} if quick else {}
    trace_dir = getattr(args, "trace", None)

    if trace_dir is not None:
        from repro import telemetry
        telemetry.enable_tracing(trace_dir)
        telemetry.write_meta(trace_dir, bench=bench, **mode)
    sections = measure(**mode)
    if trace_dir is not None:
        telemetry.flush(trace_dir)
        telemetry.disable_tracing()
        print(f"trace: {trace_dir}")
    print(render(sections))

    payload = {"bench": bench, **header, "tolerance": TOLERANCE,
               "environment": environment(), **sections}
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.compare is not None:
        baseline = json.loads(args.compare.read_text())
        problems = check(payload, rules, baseline)
        if problems:
            for line in problems:
                print(f"PERF REGRESSION: {line}", file=sys.stderr)
            return 1
        print(f"perf gate ok (vs {args.compare}, "
              f"tolerance {TOLERANCE:.0%})")
    return 0
