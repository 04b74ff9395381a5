"""The command-line front-end."""

import pytest

from repro.pipeline.main import build_arg_parser, main


class TestArgParser:
    def test_defaults(self):
        args = build_arg_parser().parse_args([])
        assert args.model == "neurospora"
        assert args.simulations == 16

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["--model", "nonexistent"])

    def test_all_models_listed(self):
        parser = build_arg_parser()
        for model in ("neurospora", "neurospora-cwc", "lotka-volterra",
                      "toggle", "enzyme"):
            args = parser.parse_args(["--model", model])
            assert args.model == model

    def test_all_backends_listed(self):
        parser = build_arg_parser()
        for backend in ("threads", "sequential", "processes", "cluster"):
            args = parser.parse_args(["--backend", backend])
            assert args.backend == backend
        with pytest.raises(SystemExit):
            parser.parse_args(["--backend", "telepathy"])

    def test_cluster_knobs(self):
        args = build_arg_parser().parse_args(
            ["--backend", "cluster", "--workers", "3", "--inflight", "4"])
        assert args.workers == 3 and args.inflight == 4


class TestMain:
    def test_small_run(self, capsys):
        code = main(["--model", "enzyme", "--simulations", "4",
                     "--t-end", "5", "--quantum", "1",
                     "--sample-every", "0.5", "--window", "4",
                     "--sim-workers", "2", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "windows" in out and "trajectories" in out

    def test_progress_lines(self, capsys):
        main(["--model", "enzyme", "--simulations", "2",
              "--t-end", "4", "--quantum", "1", "--sample-every", "1",
              "--window", "2", "--sim-workers", "1"])
        out = capsys.readouterr().out
        assert "window" in out

    def test_histogram_flag(self, capsys):
        code = main(["--model", "toggle", "--omega", "20",
                     "--simulations", "6", "--t-end", "10",
                     "--quantum", "2", "--sample-every", "1",
                     "--window", "11", "--sim-workers", "2",
                     "--histogram", "6", "--quiet"])
        assert code == 0
        assert "histogram" in capsys.readouterr().out

    def test_neurospora_reports_period(self, capsys):
        code = main(["--model", "neurospora", "--omega", "30",
                     "--simulations", "4", "--t-end", "60",
                     "--quantum", "4", "--sample-every", "0.5",
                     "--window", "20", "--sim-workers", "2", "--quiet"])
        assert code == 0
        assert "period" in capsys.readouterr().out

    def test_trace_flag_prints_report(self, capsys):
        code = main(["--model", "enzyme", "--simulations", "4",
                     "--t-end", "5", "--quantum", "1",
                     "--sample-every", "0.5", "--window", "4",
                     "--sim-workers", "2", "--quiet", "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bottleneck:" in out

    def test_processes_backend_runs(self, capsys):
        code = main(["--model", "enzyme", "--simulations", "4",
                     "--t-end", "5", "--quantum", "1",
                     "--sample-every", "0.5", "--window", "4",
                     "--sim-workers", "2", "--quiet",
                     "--backend", "processes"])
        assert code == 0
        out = capsys.readouterr().out
        assert "windows" in out and "trajectories" in out

    def test_cluster_backend_runs(self, capsys):
        code = main(["--model", "enzyme", "--simulations", "4",
                     "--t-end", "5", "--quantum", "1",
                     "--sample-every", "0.5", "--window", "4",
                     "--sim-workers", "2", "--quiet",
                     "--backend", "cluster", "--workers", "2", "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "windows" in out
        assert "net.results_received" in out  # cluster counters in report

    def test_trace_report_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        code = main(["--model", "enzyme", "--simulations", "4",
                     "--t-end", "5", "--quantum", "1",
                     "--sample-every", "0.5", "--window", "4",
                     "--sim-workers", "2", "--quiet",
                     "--trace-report", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert data["counters"]["sim.trajectories_retired"] == 4

    def test_trace_report_says_what_width_ran(self, tmp_path):
        import json

        path = tmp_path / "report.json"
        code = main(["--model", "enzyme", "--simulations", "20",
                     "--t-end", "2", "--quantum", "1",
                     "--sample-every", "0.5", "--window", "4",
                     "--engine", "batch", "--batch-size", "4",
                     "--sim-workers", "2", "--quiet",
                     "--trace-report", str(path)])
        assert code == 0
        counters = json.loads(path.read_text())["counters"]
        assert counters["sim.seed_blocks"] == 5
        assert counters["sim.tasks_generated"] == 2
        assert counters["sim.lockstep_rows_max"] == 12


class TestSweepCLI:
    def test_sweep_run_with_store(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({
            "grid": {"translation": [0.3, 0.7]},
            "n_trajectories": 4, "seed": 1}))
        store_dir = tmp_path / "store"
        code = main(["--model", "neurospora", "--omega", "20",
                     "--t-end", "2", "--quantum", "1",
                     "--sample-every", "0.5", "--sim-workers", "2",
                     "--sweep", str(spec_path),
                     "--sweep-store", str(store_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: 2 points x 4 trajectories" in out
        assert "final mean [M]" in out

        from repro.pipeline.storage import load_sweep_store
        store = load_sweep_store(store_dir)
        assert store.n_points == 2
        assert store.matrix("M").shape == (2, 5)

    def test_bad_sweep_spec_fails_cleanly(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("{\"points\": \"nope\"}")
        code = main(["--model", "neurospora",
                     "--sweep", str(spec_path)])
        assert code == 2
        assert "bad --sweep spec" in capsys.readouterr().err

    @pytest.mark.parametrize("backend, flags", [
        ("threads", []),
        ("processes", ["--workers", "2", "--inflight", "3"])])
    def test_sweep_honours_the_backend_flags(self, tmp_path, capsys,
                                             backend, flags):
        """``--sweep`` used to run a thread farm whatever ``--backend``
        said, and dropped ``--workers`` / ``--inflight`` /
        ``--trace-report``."""
        import json

        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({
            "grid": {"translation": [0.3, 0.7]},
            "n_trajectories": 4, "seed": 1, "points_per_block": 1}))
        report_path = tmp_path / "r.json"
        code = main(["--model", "neurospora", "--omega", "20",
                     "--t-end", "2", "--quantum", "1",
                     "--sample-every", "0.5", "--sim-workers", "3",
                     "--sweep", str(spec_path), "--backend", backend,
                     "--trace-report", str(report_path), "--quiet"] + flags)
        assert code == 0
        assert "run report written to" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        counters, nodes = report["counters"], [
            node["name"] for node in report["nodes"]]
        workers = [name for name in counters
                   if name.startswith("net.worker.")]
        engines = sum(name.startswith("sim-farm.w") for name in nodes)
        if backend == "processes":
            assert counters["net.tasks_dispatched"] > 0
            assert sorted(workers) == ["net.worker.0.items",
                                       "net.worker.1.items"]
            assert engines == 2 * 3  # one engine per in-flight slot
        else:
            assert not workers
            assert engines == 3

    def test_sweep_of_an_unknown_reaction_fails_cleanly(self, tmp_path,
                                                        capsys):
        """The spec error arrives from inside the task source, on every
        backend, and must exit 2 -- also after a worker fleet came up."""
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text("{\"points\": [{\"no-such-reaction\": 1.0}]}")
        for backend in ("threads", "processes"):
            code = main(["--model", "neurospora", "--omega", "20",
                         "--sweep", str(spec_path), "--backend", backend])
            assert code == 2
            assert "no-such-reaction" in capsys.readouterr().err
