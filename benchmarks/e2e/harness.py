"""Parent side of the benchmark: launch reps, judge them, aggregate.

Load shape: closed loop, one client.  Each rep is one child process
(``rep.py``) that makes one call into the program and returns when the
last window is gathered; reps never overlap.  A fresh process per rep
makes ``peak_rss_mb`` / ``cpu_s`` per-run numbers, keeps nothing cached
across reps and measures ``setup_s`` once per rep.

A rep **fails** if the child raises or emits a ``RuntimeWarning`` (it
runs under ``-W error::RuntimeWarning``), exceeds its timeout, leaves a
process or a ``/dev/shm`` segment behind, or its output digest differs
from the hand-driven reference of the same seed.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path
from typing import Optional

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
REP_PY = HERE / "rep.py"

#: a rep is sized for 1.5-2.5 s; one that takes five times the 6 s a
#: slow hour may need is hung, not slow
REP_TIMEOUT_S = 30.0
#: fewest reps a timed run reports a median of
MIN_REPS = 3
#: traced reps per workload in the full report
TRACED_REPS = 3
#: the program's shared-memory segments are named repro-shm-<pid>-...
SHM_GLOB = "/dev/shm/repro-shm-{pid}-*"


#: one per CPU while reps run; exits when the harness does, even if the
#: harness is killed
_SPINNER = """
import os
os.sched_setaffinity(0, {{{cpu}}})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == {ppid}:
    for _ in range(100000):
        pass
"""


@contextlib.contextmanager
def awake_cpus():
    """Keep every CPU of this VM from halting while reps run.

    On the Firecracker box a halted vCPU waits for the host scheduler to
    be woken; the message-bound workloads sleep and wake thousands of
    times a rep and showed 2-4 s of ``steal`` per 3 s rep from that
    alone, varying by the hour (README, Findings).  A ``SCHED_IDLE``
    spinner per CPU runs only when the CPU has nothing else to do -- the
    guest scheduler preempts it the moment a rep's thread wakes -- so the
    vCPU never halts and the wake-up cost disappears from the timings.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c",
                          _SPINNER.format(cpu=cpu, ppid=os.getpid())],
                         stderr=subprocess.DEVNULL)
        for cpu in sorted(os.sched_getaffinity(0))]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one compute thread per process: worker count, not the BLAS pool,
    # decides how many cores a rep keeps busy
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same dict/set orders in every rep
    return env


def rep_argv(mode: str, workload: str, seed: int, scale: float,
             trace: bool = False) -> list[str]:
    argv = [sys.executable, "-W", "error::RuntimeWarning", str(REP_PY),
            "--mode", mode, "--workload", workload, "--seed", str(seed),
            "--scale", repr(scale), "--out-dir", str(OUT)]
    return argv + ["--trace"] if trace else argv


def _live_members(pgid: int) -> list[int]:
    """Pids of process group ``pgid`` that are still running.  Exited
    members that init has not reaped yet (state Z) are not strays."""
    live = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                pid, rest = fh.read().split(" (", 1)
        except OSError:
            continue  # exited between the glob and the read
        state, _ppid, pgrp = rest.rsplit(") ", 1)[1].split()[:3]
        if int(pgrp) == pgid and state not in "ZX":
            live.append(int(pid))
    return live


def _kill_strays(pgid: int, grace: float = 2.0) -> bool:
    """True if processes of the child's group outlived it; kills them.
    ``multiprocessing``'s resource tracker exits on its own a few
    milliseconds after its parent, hence the grace period."""
    deadline = time.monotonic() + grace
    while _live_members(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            return True
        time.sleep(0.005)
    return False


def _sweep_segments(pid: int) -> list[str]:
    """Unlink and name the shared-memory segments ``pid`` left behind
    (what ``repro.distributed.shm.sweep_dead_owners`` does for every dead
    owner, narrowed to the one child this harness started)."""
    leaked = sorted(glob.glob(SHM_GLOB.format(pid=pid)))
    for path in leaked:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    return leaked


def run_child(argv: list[str], timeout: float = REP_TIMEOUT_S) -> dict:
    """Run one rep process to completion and clean up after it.

    Returns the JSON object of the child's last stdout line, or
    ``{"error": reason}`` when the rep failed.  Output goes to files, not
    pipes: a process the child leaves behind would hold a pipe open and
    stall the harness until the timeout."""
    error = None
    with tempfile.TemporaryFile("w+") as stdout, \
            tempfile.TemporaryFile("w+") as stderr:
        # a process group of its own (to find what the rep leaves behind)
        # but not a session of its own: with sched_autogroup a new session
        # is a new scheduling group, which would share each CPU half and
        # half with the group of the SCHED_IDLE spinners
        proc = subprocess.Popen(
            argv, stdout=stdout, stderr=stderr, cwd=HERE, env=child_env(),
            process_group=0)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            error = f"timed out after {timeout:g} s"
        finally:
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        strays = _kill_strays(proc.pid)
        leaked = _sweep_segments(proc.pid)
        stdout.seek(0)
        stderr.seek(0)
        out_lines = stdout.read().strip().splitlines()
        err_lines = stderr.read().strip().splitlines()
    if error is None and proc.returncode != 0:
        error = (f"exit code {proc.returncode}: "
                 f"{err_lines[-1] if err_lines else 'no stderr'}")
    if error is None and strays:
        error = "left child processes behind"
    if error is None and leaked:
        error = f"left {len(leaked)} /dev/shm segment(s) behind"
    if error is None:
        try:
            result = json.loads(out_lines[-1])
        except (IndexError, ValueError):
            result = None
        if isinstance(result, dict):
            return result
        error = "no JSON result on stdout"
    return {"error": error}


def summarise(values: list[float]) -> dict:
    """median / q1 / q3 / min / max / n of one metric's per-rep values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


class WorkloadRun:
    """All reps of one workload at one seed: the hand-driven reference,
    the timed reps and the traced reps, with failures counted."""

    def __init__(self, name: str, seed: int, scale: float = 1.0):
        self.workload = wl.BY_NAME[name]
        self.seed = seed
        self.scale = scale
        self.hand: Optional[dict] = None
        self.reps: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _child(self, mode: str, trace: bool = False) -> Optional[dict]:
        self.attempted += 1
        out = run_child(rep_argv(mode, self.workload.name, self.seed,
                                 self.scale, trace))
        if "error" not in out and self.hand is not None \
                and out["digest"] != self.hand["digest"]:
            out = {"error": "output digest differs from the hand-driven "
                            "reference"}
        if "error" in out:
            self.failed += 1
            self.errors.append(f"{mode} rep: {out['error']}")
            return None
        return out

    def reference(self, trace: bool = True) -> bool:
        """The hand-driven run (its layer metrics too when ``trace``);
        False when it failed: nothing can be checked without it."""
        self.hand = self._child("hand", trace)
        return self.hand is not None

    def rep(self, trace: bool = False) -> None:
        out = self._child("real", trace)
        if out is not None:
            (self.traced if trace else self.reps).append(out)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.hand is not None

    def end_to_end(self, names: list[str]) -> dict:
        return {name: summarise([rep[name] for rep in self.reps])
                for name in names}

    def per_layer(self) -> dict:
        """Hand-driven span metrics, run-report metrics (median over the
        traced reps), the numbers that relate them, and how much CPU the
        hypervisor withheld while the timed reps ran."""
        out = dict(self.hand["layer"])
        for name in self.traced[0]["report"]:
            out[name] = statistics.median(
                rep["report"][name] for rep in self.traced)
        cpu_s = statistics.median(rep["cpu_s"] for rep in self.reps)
        wall_s = statistics.median(rep["wall_s"] for rep in self.reps)
        traced_wall_s = statistics.median(
            rep["wall_s"] for rep in self.traced)
        out["pipeline.unattributed_frac"] = (
            (cpu_s - out["pipeline.layer_sum_s"]) / cpu_s)
        out["pipeline.trace_overhead_frac"] = (
            (traced_wall_s - wall_s) / wall_s)
        out["pipeline.host_steal_frac"] = statistics.median(
            rep["steal_s"] / rep["wall_s"] for rep in self.reps)
        return out


def _units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def _rounds(run: WorkloadRun, seconds: float, trace: bool) -> None:
    """Start rounds of reps (one untraced, plus one traced if ``trace``)
    for ``seconds`` seconds: at least MIN_REPS rounds if they fit, none
    that is expected to overrun the window, and never an empty run."""
    started = time.perf_counter()
    durations: list[float] = []
    while True:
        round_started = time.perf_counter()
        run.rep()
        if trace:
            run.rep(trace=True)
        now = time.perf_counter()
        durations.append(now - round_started)
        fits = now - started + statistics.median(durations) <= seconds
        if now - started > seconds or (len(durations) >= MIN_REPS
                                       and not fits):
            return


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> tuple[dict, list[str]]:
    """One driver run: the reference, then reps for ``seconds`` seconds.

    Untraced it reports every end-to-end metric (median over the reps);
    traced it alternates untraced and traced reps and reports every
    per-layer metric.  Returns the driver's result object and the
    reasons of any failed reps."""
    spec = load_spec()
    run = WorkloadRun(name, seed, scale)
    with awake_cpus():
        if run.reference(trace):
            _rounds(run, seconds, trace)
    result = {"correct": False, "attempted": run.attempted,
              "failed": run.failed, "metrics": {}}
    if not run.reps or (trace and not run.traced):
        return result, run.errors
    if trace:
        units = _units(spec, "per_layer")
        values = run.per_layer()
    else:
        units = _units(spec, "end_to_end")
        values = {k: v["median"]
                  for k, v in run.end_to_end(list(units)).items()}
    result["metrics"] = {k: {"value": values[k], "unit": units[k]}
                         for k in units}
    result["correct"] = run.correct
    return result, run.errors


# ---------------------------------------------------------------------------
# the full report: every workload, every metric, one JSON file
# ---------------------------------------------------------------------------

def environment(seed: int, reps: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "sim_workers": {b: wl.sim_workers(b)
                        for b in ("threads", "processes", "cluster")},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
        "reps": reps,
    }


def run_all(seed: int, reps: int, scale: float = 1.0,
            log=lambda line: None) -> dict:
    """Every workload: reference, ``reps`` timed reps, TRACED_REPS traced.

    Reps are interleaved round-robin across workloads: slow periods on a
    shared VM last minutes and must hit all workloads alike.  The traced
    reps ride along with the first passes for the same reason."""
    spec = load_spec()
    runs = [WorkloadRun(w.name, seed, scale) for w in wl.WORKLOADS]
    with awake_cpus():
        for run in runs:
            log(f"reference {run.workload.name}")
            run.reference()
        live = [run for run in runs if run.hand is not None]
        for i in range(reps):
            for run in live:
                log(f"rep {i + 1}/{reps} {run.workload.name}")
                run.rep()
                if i < TRACED_REPS:
                    run.rep(trace=True)
    e2e_units = _units(spec, "end_to_end")
    layer_units = _units(spec, "per_layer")
    report = {"environment": environment(seed, reps), "workloads": {}}
    for run in runs:
        entry = {"attempted": run.attempted, "failed": run.failed,
                 "errors": run.errors, "end_to_end": {}, "per_layer": {}}
        if run.reps:
            entry["end_to_end"] = {
                k: v | {"unit": e2e_units[k]}
                for k, v in run.end_to_end(list(e2e_units)).items()}
        if run.reps and run.traced:
            layers = run.per_layer()
            entry["per_layer"] = {
                k: {"value": layers[k], "unit": layer_units[k]}
                for k in layer_units}
        report["workloads"][run.workload.name] = entry
    return report


def format_report(report: dict) -> str:
    """Every metric by name with its unit, one line each."""
    lines = []
    for name, entry in report["workloads"].items():
        lines.append(f"== {name}: {entry['attempted'] - entry['failed']}"
                     f"/{entry['attempted']} reps ok")
        lines.extend(f"   FAILED {error}" for error in entry["errors"])
        for metric, s in entry["end_to_end"].items():
            lines.append(
                f"{metric:34s} {s['median']:14.6g} {s['unit']:6s}"
                f" q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
                f" min {s['min']:.6g} n {s['n']}")
        for metric, s in entry["per_layer"].items():
            lines.append(f"{metric:34s} {s['value']:14.6g} {s['unit']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def _verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """improved / unchanged / regressed / unresolved for one metric on
    one workload (``base`` and ``new`` are :func:`summarise` dicts)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - base["median"]) / base["median"]
    wide = any((s["q3"] - s["q1"]) / s["median"] > bound
               for s in (base, new))
    if wide:
        if better == "lower":
            new_all_better = new["max"] < base["min"]
            new_all_worse = new["min"] > base["max"]
        else:
            new_all_better = new["min"] > base["max"]
            new_all_worse = new["max"] < base["min"]
        if not (new_all_better or new_all_worse):
            return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    """Verdict lines for every end-to-end metric x workload, and whether
    anything regressed (a higher failure count is a regression)."""
    lines, regressed = [], False
    for name, new_entry in new["workloads"].items():
        base_entry = base["workloads"].get(name)
        if base_entry is None:
            lines.append(f"{name:20s} not in the base file")
            continue
        if new_entry["failed"] > base_entry["failed"]:
            regressed = True
            lines.append(f"{name:20s} {'failed reps':16s} regressed  "
                         f"{base_entry['failed']} -> {new_entry['failed']}")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            b = base_entry["end_to_end"].get(key)
            n = new_entry["end_to_end"].get(key)
            if b is None or n is None:
                lines.append(f"{name:20s} {key:16s} missing")
                regressed = True
                continue
            verdict = _verdict(b, n, metric["better"], metric["bound"])
            regressed = regressed or verdict == "regressed"
            change = (n["median"] - b["median"]) / b["median"]
            lines.append(
                f"{name:20s} {key:16s} {verdict:10s} "
                f"{b['median']:.6g} -> {n['median']:.6g} {metric['unit']} "
                f"({change:+.1%}, bound {metric['bound']:.0%})")
    return lines, regressed
