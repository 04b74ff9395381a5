"""Tests of the benchmark harness itself.

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (about 40 s;
``scale`` shrinks every workload's horizon).  Tier-1 (``testpaths =
tests``) does not collect this file, and under ``pytest benchmarks/
--benchmark-only`` every test here is skipped.
"""

import json
import os
import re
import sys

import pytest

import harness
import spans
import workloads as wl

SCALE = 0.25
SPEC = harness.load_spec()
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared(key: str) -> set:
    return {m["name"] for m in SPEC[key]}


@pytest.mark.parametrize("name", [w.name for w in wl.WORKLOADS])
def test_real_backend_digest_equals_hand_driven(name):
    """The hand-driven run and the real backend agree bit for bit, and
    between them they produce exactly the declared metrics."""
    run = harness.WorkloadRun(name, seed=0, scale=SCALE)
    assert run.reference(), run.errors
    run.rep()
    run.rep(trace=True)
    assert run.failed == 0, run.errors
    assert run.correct and run.attempted == 3
    assert run.reps[0]["digest"] == run.hand["digest"]
    assert set(run.reps[0]) - {"digest", "steal_s"} == \
        declared("end_to_end")
    assert set(run.per_layer()) == declared("per_layer")
    assert run.hand["layer"]["cwc.quanta"] > 0
    assert run.hand["layer"]["cwc.events"] > 0


def test_benchmark_json_matches_the_workloads_and_the_name_rules():
    assert [w["name"] for w in SPEC["workloads"]] == \
        [w.name for w in wl.WORKLOADS]
    assert [w["why"] for w in SPEC["workloads"]] == \
        [w.why for w in wl.WORKLOADS]
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_driver_mode_prints_every_declared_metric():
    """``measure`` runs one round however short the window and reports
    exactly the declared names in each trace mode."""
    result, errors = harness.measure("neuro_sweep_seq", seed=1, seconds=0,
                                     trace=False, scale=SCALE)
    assert not errors and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    result, errors = harness.measure("neuro_sweep_seq", seed=1, seconds=0,
                                     trace=True, scale=SCALE)
    assert not errors and result["correct"]
    assert set(result["metrics"]) == declared("per_layer")
    json.dumps(result)


# -- span arithmetic ---------------------------------------------------------

def test_self_time_is_duration_minus_direct_children():
    rows = [["run", 0.0, 10.0, None],
            ["a", 1.0, 4.0, 0],
            ["b", 2.0, 3.0, 1],
            ["a", 5.0, 9.0, 0],
            ["c", 6.0, 8.0, 3]]
    own = spans.self_times(rows)
    assert own == {"run": 3.0, "a": 4.0, "b": 1.0, "c": 2.0}
    assert sum(own.values()) == 10.0  # every instant charged once


def test_recorder_links_each_span_to_the_one_that_caused_it(tmp_path):
    rec = spans.SpanRecorder("t")
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            with rec.span("leaf"):
                pass
    assert [(row[0], row[3]) for row in rec.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0), ("leaf", 2)]
    assert all(row[2] >= row[1] for row in rec.spans)
    rec.save(tmp_path / "trace.json")
    saved = json.loads((tmp_path / "trace.json").read_text())
    assert saved["trace_id"] == "t" and len(saved["spans"]) == 4


# -- what counts as a failed rep -----------------------------------------------

def python(code: str) -> list:
    return [sys.executable, "-W", "error::RuntimeWarning", "-c", code]


def test_raised_exception_fails_the_rep():
    out = harness.run_child(python("raise ValueError('boom')"))
    assert "exit code 1" in out["error"] and "boom" in out["error"]


def test_runtime_warning_fails_the_rep():
    out = harness.run_child(python(
        "import numpy as np; np.array([1e308]) * 10; print('{}')"))
    assert "RuntimeWarning" in out["error"]


def test_timeout_fails_the_rep():
    out = harness.run_child(python("import time; time.sleep(60)"),
                            timeout=0.5)
    assert "timed out" in out["error"]


def test_stray_process_fails_the_rep_and_is_killed():
    out = harness.run_child(python(
        "import subprocess, sys\n"
        "p = subprocess.Popen([sys.executable, '-c',"
        " 'import time; time.sleep(60)'])\n"
        "print(p.pid)"))
    assert out["error"] == "left child processes behind"


def test_leaked_shm_segment_fails_the_rep_and_is_swept(tmp_path):
    out = harness.run_child(python(
        "import os\n"
        "path = f'/dev/shm/repro-shm-{os.getpid()}-feedbeef-0'\n"
        "open(path, 'w').close()\n"
        f"open({str(tmp_path / 'name')!r}, 'w').write(path)\n"
        "print('{}')"))
    assert "/dev/shm segment" in out["error"]
    assert not os.path.exists((tmp_path / "name").read_text())


def test_perturbed_digest_fails_the_rep():
    run = harness.WorkloadRun("neuro_sweep_seq", seed=0, scale=SCALE)
    run.hand = {"digest": "0" * 64}
    run.rep()
    assert (run.attempted, run.failed, run.reps) == (1, 1, [])
    assert "digest differs" in run.errors[0]
    assert not run.correct


def test_failed_child_is_counted_not_raised(monkeypatch):
    monkeypatch.setattr(harness, "rep_argv",
                        lambda *a, **k: python("raise SystemExit(3)"))
    run = harness.WorkloadRun("mm_grain_threads", seed=0)
    assert not run.reference()
    run.rep()
    assert (run.attempted, run.failed) == (2, 2)


# -- --compare -------------------------------------------------------------------

def report(wall: list, failed: int = 0) -> dict:
    entry = {"attempted": len(wall), "failed": failed, "errors": [],
             "end_to_end": {m["name"]: harness.summarise(wall)
                            for m in SPEC["end_to_end"]}}
    return {"workloads": {"w": entry}}


def verdicts(base: list, new: list, **kw) -> tuple:
    lines, regressed = harness.compare(report(base), report(new, **kw), SPEC)
    by_metric = {line.split()[1]: line.split()[2] for line in lines
                 if line.split()[1] != "failed"}
    return by_metric, regressed


def test_compare_names_each_metric_improved_unchanged_or_regressed():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    by_metric, regressed = verdicts(steady, [v * 1.01 for v in steady])
    assert set(by_metric) == declared("end_to_end")
    assert set(by_metric.values()) == {"unchanged"} and not regressed
    by_metric, regressed = verdicts(steady, [v * 1.5 for v in steady])
    assert by_metric["wall_s"] == "regressed" and regressed
    # samples_per_s is better when higher: the same move is a gain there
    assert by_metric["samples_per_s"] == "improved"
    by_metric, regressed = verdicts(steady, [v * 0.5 for v in steady])
    assert by_metric["wall_s"] == "improved"
    assert by_metric["samples_per_s"] == "regressed" and regressed


def test_compare_is_unresolved_when_spread_exceeds_bound_and_runs_overlap():
    noisy = [8.0, 10.0, 12.0, 14.0, 9.0]
    by_metric, regressed = verdicts(noisy, [v * 1.2 for v in noisy])
    assert by_metric["wall_s"] == "unresolved" and not regressed
    # no overlap: every new run is worse than every base run
    by_metric, regressed = verdicts(noisy, [v + 20 for v in noisy])
    assert by_metric["wall_s"] == "regressed" and regressed


def test_compare_treats_more_failed_reps_as_a_regression():
    steady = [10.0, 10.1, 9.9]
    _, regressed = verdicts(steady, steady, failed=1)
    assert regressed
