"""The shared bench gate harness: ``_util.run``, ``check`` and ``require``.

A fake one-family bench goes through the real CLI in ``tmp_path``;
the rule-table tests pin the gates the pytest entries and the CLI now
share.  No measurement runs here.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import _util  # noqa: E402
from _util import Rule  # noqa: E402

FAKE_RULES = (
    Rule("ratio", "speedup", same_mode=True),
    Rule("floor", "speedup", 2.0),
)


def _run_fake(speedup, *argv, trace=False):
    return _util.run(
        "fake", "A one-family bench.",
        lambda quick: {"quick": quick,
                       "families": {"fake": {"speedup": speedup}}},
        lambda sections: "fake table", FAKE_RULES,
        header={"min_speedup": 2.0}, quick=True, trace=trace,
        argv=list(argv))


class TestRun:
    def test_json_header_and_environment(self, tmp_path, capsys):
        out = tmp_path / "BENCH_fake.json"
        assert _run_fake(4.0, "--quick", "--json", str(out)) == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["bench", "min_speedup", "tolerance",
                                 "environment", "quick", "families"]
        assert payload["bench"] == "fake"
        assert payload["quick"] is True
        assert payload["tolerance"] == _util.TOLERANCE
        assert set(payload["environment"]) == {
            "python_version", "numpy_version", "platform", "cpus"}
        assert payload["families"] == {"fake": {"speedup": 4.0}}
        assert "fake table" in capsys.readouterr().out

    def test_compare_reads_an_earlier_run(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert _run_fake(4.0, "--quick", "--json", str(base)) == 0
        assert _run_fake(3.5, "--quick", "--compare", str(base)) == 0
        assert "perf gate ok" in capsys.readouterr().out
        # 2.5 < 4.0 * (1 - 0.25): a ratio regression in the same mode.
        assert _run_fake(2.5, "--quick", "--compare", str(base)) == 1
        err = capsys.readouterr().err
        assert "PERF REGRESSION: fake: speedup" in err
        # Without --quick the modes differ: only the floor applies.
        assert _run_fake(2.5, "--compare", str(base)) == 0

    def test_floor_fails_the_gate(self, tmp_path):
        base = tmp_path / "base.json"
        assert _run_fake(1.5, "--quick", "--json", str(base)) == 0
        assert _run_fake(1.5, "--quick", "--compare", str(base)) == 1

    def test_trace_option_writes_meta(self, tmp_path):
        trace = tmp_path / "trace"
        assert _run_fake(4.0, "--trace", str(trace), trace=True) == 0
        events = [json.loads(line)
                  for path in trace.glob("trace-*.jsonl")
                  for line in path.read_text().splitlines()]
        meta = [e for e in events if e["kind"] == "meta"]
        assert [(e["bench"], e["quick"]) for e in meta] == [("fake", False)]


def _bench(name):
    return importlib.import_module(f"bench_{name}")


class TestRuleTables:
    """Rules the pytest entries and the CLI gate both check."""

    def test_fabric_replay_family_must_beat_reference(self):
        rules = _bench("fabric").RULES
        for speedup, problems in ((1.0, 1), (1.001, 0)):
            result = {"families": {"expander": {"speedup_fast": speedup}}}
            assert len(_util.check(result, rules)) == problems

    def test_serve_daemon_p95_ceiling_without_baseline(self):
        rules = _bench("serve").RULES
        daemon = {"speedup": 16.0, "p95_ms": 80.0}
        with pytest.raises(AssertionError, match="p95_ms"):
            _util.require({"families": {"daemon-loop": daemon}}, rules)

    def test_dynamic_storm_p95_ceiling_without_baseline(self):
        rules = _bench("dynamic").RULES
        storm = {"stale": 3, "p95_ms": 76.0, "converged": True}
        with pytest.raises(AssertionError, match="p95_ms"):
            _util.require({"families": {"storm-degraded": storm}}, rules)

    def test_dynamic_missing_family_is_flagged(self):
        baseline = json.loads(
            (BENCH_DIR / "BENCH_dynamic.json").read_text())
        run = json.loads(json.dumps(baseline))
        del run["families"]["storm-degraded"]
        assert _util.check(run, _bench("dynamic").RULES, baseline) == [
            "storm-degraded: family missing from this run"]

    def test_scale_pytest_family_has_a_floor(self):
        rules = _bench("scale").RULES
        with pytest.raises(AssertionError, match="diet-16384"):
            _util.require({"families": {"diet-16384": {"ratio": 1.8}}},
                          rules)
        _util.require({"families": {"diet-16384": {"ratio": 1.9}}}, rules)


class TestBounds:
    def test_cpu_tiers(self):
        tiers = {4: 2.0, 2: 1.2}
        assert [_util.bound_for(tiers, {"cpus": c})
                for c in (1, 2, 3, 4, 8)] == [None, 1.2, 1.2, 2.0, 2.0]
        assert _util.bound_for(5.0, {}) == 5.0

    def test_multiplied_tolerance_is_capped(self):
        rule = Rule("ratio", "x", tolerance_x=10.0)
        base = {"families": {"a": {"x": 10.0}}}
        assert _util.check({"families": {"a": {"x": 1.01}}}, [rule],
                           base) == []
        assert len(_util.check({"families": {"a": {"x": 0.99}}}, [rule],
                               base)) == 1
