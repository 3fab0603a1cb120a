"""Repository benchmark: one command, every metric, checked answers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 \
        --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` is a separate
run with the span tracer on and reports the per-layer metrics.  Every
workload reports the whole list; a per-layer metric of a layer the
workload does not exercise (the solver phases under ``serve-*``, the
daemon under ``solve``) reads 0.  A wrong answer or a changed ledger
makes ``correct`` false and the exit code 1.  ``perfbench/spec.json``
records the workload parameters and which end-to-end metric each
per-layer metric should move.

``--record-fingerprints`` re-solves every ``solve`` input variant and
rewrites ``perfbench/fingerprints.json`` (only after checking the
lengths against the centralized baseline).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"
WORKLOADS = ("solve", "serve-mixed", "serve-storm")


def manifest_metrics(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics a ``--trace`` run must report."""
    manifest = json.loads(MANIFEST.read_text())
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def complete(metrics: Dict[str, Dict[str, object]],
             wanted: Dict[str, str], trace: bool) -> None:
    """Hold ``metrics`` to the manifest's list: per-layer metrics of a
    layer the workload did not run are added as 0; anything else
    missing, extra or in another unit is a benchmark bug."""
    if trace:
        for name, unit in wanted.items():
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != wanted:
        diff = sorted(set(got.items()) ^ set(wanted.items()))
        raise AssertionError(f"metrics differ from the manifest: {diff}")


def _import_paths() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    _import_paths()

    if args.record_fingerprints:
        from perfbench import solve
        prints = solve.record_fingerprints()
        solve.FINGERPRINTS.write_text(
            json.dumps(prints, indent=1, sort_keys=True) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    wanted = manifest_metrics(bool(args.trace))
    if args.workload == "solve":
        from perfbench import solve
        result = solve.run(args.seed, args.seconds, bool(args.trace))
    else:
        from perfbench import serve
        result = serve.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    complete(result.metrics, wanted, bool(args.trace))
    for line in result.mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    for name, metric in sorted(result.metrics.items()):
        print(f"{name:44s} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(result.as_json(), allow_nan=False))
    return 0 if not result.mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
