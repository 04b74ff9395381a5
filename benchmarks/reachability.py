"""Function-level reachability probe: which ``src/`` code only tests run.

Runs every non-test entry point of the repository -- the CLI across
backends, engines and methods, the examples, the bench CLIs, the
benchmark suite and the end-to-end harness's reps -- under a
``sys.setprofile`` hook installed in every Python process they start
(worker processes included, forked or spawned), then maps the recorded
code objects onto an ``ast`` walk of ``src/repro``.  It prints every
top-level function or method that no entry point entered, with its line
count, and exits 1 if one of them is missing from :data:`KEEP`, if a
``KEEP`` entry is now reached or no longer exists, or if an entry point
the probe depends on failed (bench CLIs and the benchmark suite may fail
their own assertions under the profiler; that does not count).

Stubs -- a body of only a docstring, ``...``, ``pass`` or ``raise
NotImplementedError`` -- declare an interface rather than run one, and
are not listed.

Run from the repository root (takes several minutes; no flags)::

    python benchmarks/reachability.py
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
TIMEOUT_S = 600

#: why an unreached function stays: the reason must be one of these
REASONS = ("optional-extra", "inventory", "oracle", "entry-point",
           "data-dependent")
_OPEN_ITEM = re.compile(r"open-item \d+$")


def _keep(reason: str, module: str, *qualnames: str) -> dict[str, str]:
    return {f"{module}:{name}": reason for name in qualnames}


#: ``module:qualname`` -> reason, for every function the entry points do
#: not enter and that stays anyway (DESIGN.md section 2 defines the
#: reasons).  ``__repr__`` / ``__str__`` count as data-dependent: only an
#: error message or a debugger formats the object.
KEEP: dict[str, str] = {
    # -- optional-extra: runs only with numba, cupy, scipy or a real GPU
    **_keep("optional-extra", "repro.cwc.kernels",
            "CupyKernel.__init__", "CupyKernel.apply_stoich",
            "CupyKernel.leap_fire", "CupyKernel.leap_tau",
            "CupyKernel.propensities_cumsum_T", "CupyKernel.select_events",
            "NumbaKernel.__init__", "NumbaKernel.apply_stoich",
            "NumbaKernel.leap_fire", "NumbaKernel.leap_tau",
            "NumbaKernel.propensities_cumsum_T", "NumbaKernel.select_events",
            "MassActionPlan.__init__", "fire_by_count", "_numba_kernels",
            "_propensities_cumsum_T", "_propensities_cumsum_T_rows",
            "_select_events", "_apply_stoich", "_leap_tau", "_leap_fire"),
    **_keep("optional-extra", "repro.cwc.ode", "_integrate_scipy"),
    **_keep("optional-extra", "repro.gpu.real",
            "RealGpuDevice.__init__", "RealGpuDevice.launch_map_batched",
            "RealGpuDevice.make_kernel", "real_gpu_available"),
    # -- inventory: a DESIGN.md section 2 system (or the public surface
    # of one) that the workflow uses only in part
    **_keep("inventory", "repro.ff.patterns",  # S2
            "_default_workers", "_chunks", "pmap", "parallel_for",
            "preduce", "map_reduce", "divide_and_conquer"),
    **_keep("inventory", "repro.gpu.stencil_reduce", "stencil_reduce"),
    **_keep("inventory", "repro.ff.describe", "describe", "_lines"),  # S1
    **_keep("inventory", "repro.ff.executor", "_CollectingOutbox.send"),
    **_keep("inventory", "repro.ff.farm", "_Reorderer.svc",
            "Farm._expand_worker_pipeline", "_SharedOutbox.__init__",
            "_SharedOutbox.send"),
    **_keep("inventory", "repro.ff.graph", "ToWorker.__init__"),
    **_keep("inventory", "repro.ff.node", "Emit.__init__",
            "Node.has_feedback"),
    **_keep("inventory", "repro.ff.pipeline", "Pipeline.__rshift__",
            "Pipeline.__len__"),
    **_keep("inventory", "repro.ff.queues", "Channel.closed"),
    **_keep("inventory", "repro.cwc.multiset",  # S3
            "Multiset.clear", "Multiset.__getitem__", "Multiset.__contains__",
            "Multiset.species", "Multiset.total", "Multiset.is_empty",
            "Multiset.frozen", "Multiset.__add__", "Multiset.__sub__",
            "Multiset.__eq__", "Multiset.__len__", "Multiset.__iter__",
            "Multiset.__bool__"),
    **_keep("inventory", "repro.cwc.term", "Compartment.canonical",
            "Compartment.size", "Term.walk_compartments", "Term.size",
            "Term.depth", "Term.is_flat", "Term.canonical", "Term.__eq__",
            "Term.__hash__", "frozenset_with_multiplicity"),
    **_keep("inventory", "repro.cwc.rule", "Pattern.is_empty", "Rule.flat"),
    **_keep("inventory", "repro.cwc.model", "Model.contexts",
            "Model.species"),  # S5
    **_keep("inventory", "repro.cwc.gillespie",  # S4
            "CWCSimulator.observable_names", "SSAResult.column",
            "SSAResult.__len__"),
    **_keep("inventory", "repro.cwc.network", "FlatSimulator.model",
            "FlatSimulator.step"),
    **_keep("inventory", "repro.cwc.methods", "TauLeapSimulator.network",
            "TauLeapSimulator.observable_names"),
    **_keep("inventory", "repro.cwc.batch", "BatchFlatSimulator.network",
            "BatchFlatSimulator.model", "BatchFlatSimulator.observable_names",
            "BatchFlatSimulator.observe", "BatchFlatSimulator.state_view",
            "BatchFlatSimulator.run_all"),
    **_keep("inventory", "repro.sim.trajectory",  # S6
            "Cut.n_observables", "Cut.__eq__", "CutBlock.n_trajectories",
            "CutBlock.n_observables", "Trajectory.__len__"),
    **_keep("inventory", "repro.sim.task", "SimulationTask.n_samples_total",
            "BatchSimulationTask.n_samples_total"),
    **_keep("inventory", "repro.sim.scheduler", "SimTaskEmitter.backlog_size"),
    **_keep("inventory", "repro.analysis.windows",  # S7
            "Window.n_trajectories", "Window.n_observables",
            "Window.trajectory_matrix", "Window.__len__"),
    **_keep("inventory", "repro.analysis.engines",
            "WindowStatistics.ci_relative"),
    **_keep("inventory", "repro.pipeline.config", "WorkflowConfig.n_quanta"),
    **_keep("inventory", "repro.pipeline.steering",  # S8
            "SteeringController.scheduler", "SteeringController.stop_after"),
    **_keep("inventory", "repro.pipeline.adaptive",
            "ConvergenceStopPolicy.reset", "LaggardRepriorityPolicy.reset",
            "AdaptiveController.reset", "PointResult.windows"),
    **_keep("inventory", "repro.service.fairshare",
            "StrideScheduler.__contains__", "StrideScheduler.tenants",
            "StrideScheduler.select", "StrideScheduler.snapshot"),
    **_keep("inventory", "repro.service.fleet", "SharedFleet.closed"),
    **_keep("inventory", "repro.distributed.message",  # S9
            "StreamDecoder.pending_bytes"),
    **_keep("inventory", "repro.distributed.shm", "Segment.name",
            "Segment.refs"),
    **_keep("inventory", "repro.gpu.device", "GPUSpec.total_cores"),  # S10
    **_keep("inventory", "repro.perfsim.platform",  # S11
            "PlatformSpec.total_cores", "PlatformSpec.n_hosts"),
    **_keep("inventory", "repro.perfsim.des", "Store.__len__"),
    # -- oracle: what a test checks the runtime against
    **_keep("oracle", "repro.sim.alignment",
            "ScalarTrajectoryAligner.svc_init",
            "ScalarTrajectoryAligner.svc_end"),
    **_keep("oracle", "repro.analysis.windows",
            "ScalarSlidingWindowNode.svc_init"),
    **_keep("oracle", "repro.cwc.writer", "_write_atoms", "write_term",
            "_write_rate", "_write_rule", "write_model"),
    **_keep("oracle", "repro.cwc.invariants", "evaluate_law",
            "verify_conservation"),
    **_keep("oracle", "repro.cwc.rates", "Constant.__call__",
            "Linear.__call__", "HillActivation.__call__", "Product.__call__"),
    **_keep("oracle", "repro.cwc.batch", "CompiledNetwork.propensities_T",
            "CompiledNetwork.propensities"),
    **_keep("oracle", "repro.cwc.gillespie", "SampledSimulator.run",
            "CWCSimulator.total_propensity"),
    **_keep("oracle", "repro.cwc.network", "FlatSimulator.total_propensity"),
    # -- entry-point: a main, or the service surface no run here drives
    **_keep("entry-point", "repro.service.__main__", "main"),
    **_keep("entry-point", "repro.distributed.worker", "main",
            "build_arg_parser"),
    **_keep("entry-point", "repro.service.app", "ServiceApp.serve_forever",
            "ServiceApp.__enter__", "ServiceApp.__exit__"),
    **_keep("entry-point", "repro.service.client", "ServiceClient.status",
            "ServiceClient.runs", "ServiceClient.steer", "ServiceClient.wait"),
    **_keep("entry-point", "repro.service.run_manager", "RunHandle.events",
            "RunManager.list", "RunManager.steer"),
    # -- data-dependent: a branch the runs did not take
    **_keep("data-dependent", "repro.cwc.batch",
            "BatchFlatSimulator._leap_retries",
            "BatchFlatSimulator._draw_poisson", "_Workspace.retire",
            "_evaluate", "_gate", "_RowView.__init__", "_RowView.count",
            "_RowView.__getitem__", "BatchFlatSimulator.__repr__"),
    **_keep("data-dependent", "repro.cwc.kernels", "numpy_leap_fire",
            "NumpyKernel.__reduce__"),
    **_keep("data-dependent", "repro.cwc.gillespie",
            "CWCSimulator._tail_event", "CWCSimulator.__repr__"),
    **_keep("data-dependent", "repro.cwc.network", "StateView.__getitem__",
            "FlatSimulator.__repr__"),
    **_keep("data-dependent", "repro.cwc.methods",
            "TauLeapSimulator.__repr__"),
    **_keep("data-dependent", "repro.cwc.term", "Term.remove_compartment",
            "Term.dissolve_compartment", "Compartment.__repr__",
            "Term.__repr__"),
    **_keep("data-dependent", "repro.cwc.rule", "ContextView.__getitem__",
            "ContextView.label", "ContextView.n_compartments",
            "Rule.__repr__"),
    **_keep("data-dependent", "repro.cwc.multiset", "Multiset.__repr__",
            "Multiset.__str__"),
    **_keep("data-dependent", "repro.cwc.model", "Model.__repr__"),
    **_keep("data-dependent", "repro.cwc.parser", "ParseError.__init__"),
    **_keep("data-dependent", "repro.ff.errors", "NodeError.__init__",
            "MultiNodeError.__init__"),
    **_keep("data-dependent", "repro.ff.executor",
            "SequentialExecutor._release"),
    **_keep("data-dependent", "repro.ff.queues", "_discard",
            "Channel._record_blocked_push_locked", "_EndOfStream.__repr__",
            "Channel.__repr__"),
    **_keep("data-dependent", "repro.ff.node", "SourceNode.svc",
            "_GoOn.__repr__", "Emit.__repr__", "Node.__repr__"),
    **_keep("data-dependent", "repro.ff.farm", "Feedback.__repr__",
            "Farm.__repr__"),
    **_keep("data-dependent", "repro.ff.pipeline", "Pipeline.__repr__"),
    **_keep("data-dependent", "repro.distributed.shm", "_pid_alive"),
    **_keep("data-dependent", "repro.distributed.worker", "_hang_up",
            "_try_send"),
    **_keep("data-dependent", "repro.distributed.message",
            "StreamDecoder.__repr__", "FrameCodec.__repr__"),
    **_keep("data-dependent", "repro.service.api", "HTTPError.__init__"),
    **_keep("data-dependent", "repro.service.client", "ServiceError.__init__"),
    **_keep("data-dependent", "repro.service.fleet", "SharedFleet._take_slot"),
    **_keep("data-dependent", "repro.service.protocol",
            "_histogram_to_jsonable"),
    **_keep("data-dependent", "repro.sim.trajectory", "Cut.__getstate__",
            "Cut.__setstate__", "CutBlock.__getstate__",
            "CutBlock.__setstate__", "Cut.__repr__", "CutBlock.__repr__"),
    **_keep("data-dependent", "repro.sim.task", "ResultBlock.__repr__",
            "SimulationTask.__repr__", "BatchSimulationTask.__repr__"),
    **_keep("data-dependent", "repro.sweep.fused", "FusedSweepTask.__repr__"),
    **_keep("data-dependent", "repro.analysis.windows", "Window.__repr__"),
    # -- open items: code an open ROADMAP item is to put on a run
    **_keep("open-item 14", "repro.models.cell_population",
            "cell_population_model", "count_cells"),
    **_keep("open-item 14", "repro.cwc.network",
            "ReactionNetwork.from_model"),
    **_keep("open-item 5", "repro.perfsim.calibration",
            "CalibrationReport.cost_model", "_time_it",
            "calibrate_cost_model"),
    **_keep("open-item 5", "repro.perfsim.workload", "measure_workload"),
}

#: installed first on every command's PYTHONPATH: records the first call
#: of each code object under PREFIX, one file per process under DIR
SITECUSTOMIZE = '''\
import os, sys, threading

_DIR, _PREFIX = DIR, PREFIX
_seen = {}  # id -> code; holding the code keeps its id unique
_out = [None, None]  # (pid, fd): a forked child opens its own file


def _record(code):
    pid = os.getpid()
    if _out[0] != pid:
        _out[:] = [pid, os.open(os.path.join(_DIR, "%d.txt" % pid),
                                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                                0o644)]
    # unbuffered: a worker leaving by os._exit or SIGKILL loses nothing
    os.write(_out[1], ("%s\\t%d\\t%s\\n" % (
        code.co_filename, code.co_firstlineno, code.co_name)).encode())


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            if code.co_filename.startswith(_PREFIX):
                _record(code)


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def entry_points(tmp: Path) -> list[tuple[str, list[str], bool]]:
    """``(label, argv, must_pass)`` for every command the probe runs."""
    py = sys.executable
    cli = [py, "-m", "repro.pipeline.main", "--quiet", "--sim-workers",
           "2", "--window", "4", "--t-end", "4", "--quantum", "1"]
    small = ["--model", "enzyme", "--simulations", "8"]
    sweep = tmp / "sweep.json"
    sweep.write_text('{"grid": {"translation": [0.3, 0.6, 0.9]}, '
                     '"n_trajectories": 8}')
    runs = []
    for backend in ("sequential", "threads", "processes"):
        for engine in ("flat", "batch"):
            runs.append((f"cli {backend}/{engine}", cli + small + [
                "--backend", backend, "--engine", engine]))
    for method, engine, model in (("first", "flat", "enzyme"),
                                  ("tau", "flat", "toggle"),
                                  ("tau", "batch", "enzyme"),
                                  ("hybrid", "flat", "enzyme"),
                                  ("hybrid", "batch", "toggle")):
        runs.append((f"cli {method}/{engine}/{model}", cli + [
            "--model", model, "--simulations", "8", "--method", method,
            "--engine", engine]))
    runs += [
        ("cli analysis options", cli + [
            "--simulations", "8", "--t-end", "24", "--window", "8",
            "--slide", "2", "--kmeans", "3", "--filter-width", "3",
            "--histogram", "6", "--stat-workers", "2",
            "--trace-report", str(tmp / "report.json")]),
        ("cli adaptive threads", cli + small + [
            "--t-end", "24", "--adaptive", "ci:0.05",
            "--adaptive-repriority"]),
        ("cli adaptive processes", cli + small + [
            "--t-end", "24", "--adaptive", "ci-abs:1.5",
            "--backend", "processes"]),
        ("cli sweep sequential", cli + [
            "--sweep", str(sweep), "--backend", "sequential",
            "--sweep-store", str(tmp / "store-seq")]),
        ("cli sweep processes", cli + [
            "--sweep", str(sweep), "--backend", "processes",
            "--sweep-store", str(tmp / "store-procs")]),
        ("cli neurospora-cwc cluster", cli + [
            "--model", "neurospora-cwc", "--omega", "20",
            "--simulations", "4", "--backend", "cluster", "--trace"]),
    ]
    commands = [(label, argv, True) for label, argv in runs]
    for example in sorted((ROOT / "examples").glob("*.py")):
        argv = [py, str(example)]
        if example.stem in ("cluster_run", "traced_run"):
            argv.append(str(tmp / f"{example.stem}.json"))
        commands.append((f"example {example.stem}", argv, True))
    bench = ROOT / "benchmarks"
    for name, args in (
            ("adaptive", ["--simulations", "8", "--t-end", "60",
                          "--sim-workers", "2"]),
            ("analysis_throughput", ["--n-traj", "128", "--repeats", "1"]),
            ("kernels", ["--batch", "64", "--repeat", "1"]),
            ("sweep", ["--points", "8", "--traj", "8",
                       "--sim-workers", "2"]),
            ("tau", ["--batch", "64", "--repeat", "1"]),
            ("transport", ["--n-traj", "128", "--repeat", "1"]),
            ("transport", ["--round-trip", "--repeat", "1"])):
        commands.append((f"bench {name} {' '.join(args[:1])}", [
            py, str(bench / f"bench_{name}.py"), *args,
            "--json", str(tmp / f"BENCH_{name}.json")], False))
    commands.append(("pytest benchmarks", [
        py, "-m", "pytest", str(bench), "--benchmark-disable",
        "-p", "no:cacheprovider"], False))
    rep = bench / "e2e" / "rep.py"
    for workload in ("neuro_exact_procs", "neuro_tau_analysis",
                     "mm_grain_cluster", "mm_grain_threads",
                     "neuro_sweep_seq"):
        for mode in ("real", "hand"):
            commands.append((f"rep {mode} {workload}", [
                py, str(rep), "--mode", mode, "--workload", workload,
                "--seed", "1", "--out-dir", str(tmp / "rep")]
                + (["--trace"] if mode == "real" else []), True))
    return commands


def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]  # the docstring
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis):
            continue
        if isinstance(stmt, ast.Raise) and "NotImplementedError" in \
                ast.unparse(stmt):
            continue
        return False
    return True


def definitions() -> list[tuple[str, str, int, str, int]]:
    """``(qualified name, file, first line, name, line count)`` of
    every top-level function and method (nested classes included) under
    ``src/repro``, stubs left out.  A code object's first line is its
    first decorator's."""
    found = []

    def walk(nodes, module, path, prefix):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_stub(node):
                    continue
                start = min([d.lineno for d in node.decorator_list]
                            + [node.lineno])
                found.append((f"{module}:{prefix}{node.name}", path,
                              start, node.name,
                              node.end_lineno - start + 1))
            elif isinstance(node, ast.ClassDef):
                walk(node.body, module, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.stmt, ast.excepthandler)):
                # if/try/with blocks at module or class level
                walk([c for c in ast.iter_child_nodes(node)
                      if isinstance(c, (ast.stmt, ast.excepthandler))],
                     module, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent)
                          .with_suffix("").parts)
        module = module.removesuffix(".__init__")
        walk(ast.parse(path.read_text()).body, module, str(path), "")
    return found


def run_entry_points(record_dir: Path, tmp: Path) -> list[str]:
    """Run every entry point under the profiler; returns the labels of
    required ones that failed."""
    site = tmp / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE.replace(
        "DIR, PREFIX", f"{str(record_dir)!r}, {str(PACKAGE) + os.sep!r}", 1))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(site), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    failed = []
    work = tmp / "cwd"
    work.mkdir()
    for label, argv, must_pass in entry_points(tmp):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=work, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=TIMEOUT_S)
            code = proc.returncode
            tail = proc.stdout.strip().splitlines()[-1:] if code else []
        except subprocess.TimeoutExpired:
            code, tail = "timeout", []
        status = "ok" if code == 0 else f"exit {code}"
        print(f"  {time.perf_counter() - t0:6.1f}s  {status:9}  {label}"
              + (f"  ({tail[0][:100]})" if tail else ""), flush=True)
        if code != 0 and must_pass:
            failed.append(label)
    return failed


def reached_code(record_dir: Path) -> set[tuple[str, int, str]]:
    """``(file, first line, name)`` of every code object entered."""
    reached = set()
    for path in record_dir.glob("*.txt"):
        for line in path.read_text().splitlines():
            filename, first, name = line.split("\t")
            reached.add((filename, int(first), name))
    return reached


def main() -> int:
    bad_reasons = [name for name, reason in KEEP.items()
                   if reason not in REASONS and not _OPEN_ITEM.match(reason)]
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        tmp = Path(tmp)
        record_dir = tmp / "records"
        record_dir.mkdir()
        print("entry points:")
        failed = run_entry_points(record_dir, tmp)
        reached = reached_code(record_dir)
    defs = definitions()
    unreached: dict[str, list[tuple[str, int, int]]] = defaultdict(list)
    names = set()
    for qualname, path, start, name, n_lines in defs:
        names.add(qualname)
        if (path, start, name) not in reached:
            unreached[qualname].append((path, start, n_lines))
    missing = [q for q in unreached if q not in KEEP]
    stale = [q for q in KEEP if q not in unreached]
    print(f"\n{len(unreached)} of {len(names)} functions never entered, "
          f"{sum(n for rows in unreached.values() for *_, n in rows)} "
          "lines:")
    for qualname in sorted(unreached):
        for path, start, n_lines in unreached[qualname]:
            where = f"{Path(path).relative_to(ROOT)}:{start}"
            print(f"  {n_lines:4d}  {where:44}  {qualname}  "
                  f"[{KEEP.get(qualname, 'NOT KEPT')}]")
    kept_lines = sum(n for q in unreached if q in KEEP
                     for *_, n in unreached[q])
    print(f"\nkept: {len(unreached) - len(missing)} functions, "
          f"{kept_lines} lines")
    problems = [(f"not in KEEP (reached only by tests?): {q}")
                for q in missing]
    problems += [f"stale KEEP entry ({'reached' if q in names else 'gone'})"
                 f": {q}" for q in stale]
    problems += [f"KEEP entry with an unknown reason: {q}"
                 for q in bad_reasons]
    problems += [f"entry point failed: {label}" for label in failed]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
