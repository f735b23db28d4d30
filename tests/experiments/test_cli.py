"""Tests for the experiments CLI."""

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "flux_1" in out
        assert "impeccable_flux" in out

    def test_run_single(self, capsys):
        assert main(["run", "flux_1", "--nodes", "1", "--waves", "1"]) == 0
        out = capsys.readouterr().out
        assert "flux_1" in out
        assert "makespan" in out

    def test_run_with_reps(self, capsys):
        assert main(["run", "srun", "--nodes", "1", "--waves", "1",
                     "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "avg tasks/s" in out

    def test_sweep_stdout_is_independent_of_parallel(self, capsys):
        # The sweep table is a pure function of config and seeds; the
        # worker count and wall time go to stderr only.
        argv = ["run", "srun", "--nodes", "1", "--waves", "1",
                "--reps", "4"]
        assert main(argv) == 0
        serial = capsys.readouterr()
        assert main(argv + ["--parallel", "2"]) == 0
        pooled = capsys.readouterr()
        assert serial.out == pooled.out
        assert "vectorized" in serial.out
        assert "ms/seed" in serial.err and "ms/seed" in pooled.err

    def test_sweep_writes_bundle(self, capsys, tmp_path):
        import json

        bundle = tmp_path / "bundle"
        assert main(["run", "srun", "--nodes", "1", "--waves", "1",
                     "--seeds", "3,4", "--bundle", str(bundle)]) == 0
        assert f"wrote ensemble bundle to {bundle}" in \
            capsys.readouterr().out
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["ensemble"]["seeds"] == [3, 4]
        assert (bundle / "profile-seed3.jsonl").is_file()
        assert (bundle / "profile-seed4.jsonl").is_file()

    def test_table1_filtered(self, capsys):
        assert main(["table1", "--waves", "1", "--max-nodes", "2"]) == 0
        out = capsys.readouterr().out
        # srun's only Table-1 config is 4 nodes, filtered out here.
        assert "flux_1" in out
        assert "srun" not in out.replace("flux+dragon", "")

    def test_table1_parallel_matches_serial_and_reports_progress(
            self, capsys):
        argv = ["table1", "--waves", "1", "--max-nodes", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr()
        assert main(argv + ["--parallel", "2"]) == 0
        pooled = capsys.readouterr()
        assert pooled.out == serial.out
        # One "done" line per configuration as it lands, pooled or not.
        n_configs = len(serial.out.splitlines()) - 2
        assert serial.err.count("  done: ") == n_configs
        assert pooled.err.count("  done: ") == n_configs


    def test_unknown_exp_is_reported_not_raised(self, capsys):
        # Stack errors surface as a one-line message and a non-zero
        # exit, not a traceback.
        assert main(["run", "warpdrive"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "warpdrive" in err

    @pytest.mark.parametrize("argv", [
        ["run", "srun", "--nodes", "0"],
        ["run", "srun", "--nodes", "-1"],
        ["run", "srun", "--partitions", "0"],
        ["run", "srun", "--waves", "0"],
        ["run", "flux_1", "--nodes", "0", "--bundle", "unused"],
        ["run", "flux_1", "--waves", "0", "--bundle", "unused"],
        ["table1", "--waves", "0"],
    ], ids=lambda argv: " ".join(argv[:-2] if "--bundle" in argv else argv))
    def test_explicit_zero_override_is_rejected(self, argv, capsys,
                                                tmp_path, monkeypatch):
        # An explicit 0 must reach config validation, not silently
        # fall back to the experiment's default.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "must be >= 1" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "srun", "--nodes", "1", "--waves", "1",
         "--reps", "5", "--seeds", "1-2"],
        ["run", "srun", "--nodes", "1", "--waves", "1",
         "--reps", "1", "--seeds", "1-2"],
    ], ids=lambda argv: " ".join(argv[6:]))
    def test_reps_and_seeds_together_are_rejected(self, argv, capsys):
        # Both name the seed list; running either one silently would
        # hide the other.
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "not both" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("extra", [
        ["--reps", "3", "--profile", "p.jsonl"],
        ["--seeds", "0,1", "--summary"],
        ["--reps", "2", "--spill-dir", "s"],
        ["--profile-dir", "d"],
        ["--parallel", "2"],
        ["--reps", "0"],
    ], ids=" ".join)
    def test_flags_the_run_shape_ignores_are_rejected(
            self, extra, capsys, tmp_path, monkeypatch):
        # A flag the run shape would not honour fails the run before it
        # simulates or writes anything, instead of being dropped.
        monkeypatch.chdir(tmp_path)
        argv = ["run", "srun", "--nodes", "1", "--waves", "1"] + extra
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_single_run_reports_table_then_extras(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        bundle = tmp_path / "bundle"
        assert main(["run", "srun", "--nodes", "1", "--waves", "1",
                     "--faults", "p_launch_fail=0.05", "--summary",
                     "--profile", str(path), "--bundle", str(bundle)]) == 0
        out = capsys.readouterr().out
        order = [out.index("makespan[s]"),
                 out.index(f"wrote observability bundle to {bundle}"),
                 out.index("\n\nfault report\n"),
                 out.index("core utilization"),
                 out.index(f"trace events to {path}")]
        assert order == sorted(order)
        assert path.exists() and (bundle / "manifest.json").is_file()

    def test_run_with_summary(self, capsys):
        assert main(["run", "flux_1", "--nodes", "1", "--waves", "1",
                     "--summary"]) == 0
        out = capsys.readouterr().out
        assert "backend" in out
        assert "core utilization" in out

    def test_summary_phases_match_trace_inspect(self, capsys, tmp_path):
        """``--summary`` prints the phase rollup of the run's profile:
        the same phase means and counts ``trace inspect`` reads back
        from the bundle's ``profile.jsonl``."""
        import re

        def phases(stdout):
            lines = [ln for ln in stdout.splitlines()
                     if ln.startswith("phases:")]
            assert len(lines) == 1, stdout
            return re.findall(r"(\w+)=([\d.]+)s×(\d+)", lines[0])

        bundle = tmp_path / "B"
        assert main(["run", "flux_n", "--nodes", "8", "--partitions", "2",
                     "--waves", "1", "--summary",
                     "--bundle", str(bundle)]) == 0
        summary = phases(capsys.readouterr().out)
        assert main(["trace", "inspect", str(bundle)]) == 0
        inspect = phases(capsys.readouterr().out)
        assert [name for name, _, _ in summary] == [
            "schedule", "launch", "exec", "collect"]
        assert all(count == "448" for _, _, count in summary)
        assert summary == inspect

    def test_run_with_profile_export(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(["run", "flux_1", "--nodes", "1", "--waves", "1",
                     "--profile", str(path)]) == 0
        assert path.exists()
        from repro.analytics import load_events

        events = load_events(path)
        assert len(events) > 100

    def test_spilled_run_exports_the_in_memory_bytes(self, tmp_path,
                                                     monkeypatch):
        # The faulty run writes ~9,000 records, far under the default
        # threshold, so the threshold is lowered until it really spills.
        import functools

        import repro.core.session
        from repro.analytics.profiler import Profiler

        argv = ["run", "faults", "--faults", "mtbf=900,p_launch_fail=0.02"]
        assert main(argv + ["--profile", str(tmp_path / "mem.jsonl")]) == 0
        monkeypatch.setattr(repro.core.session, "Profiler", functools.partial(
            Profiler, spill_threshold=512))
        chunks = tmp_path / "chunks"
        assert main(argv + ["--profile", str(tmp_path / "spill.jsonl"),
                            "--spill-dir", str(chunks)]) == 0
        assert len(list(chunks.glob("chunk-*.jsonl"))) >= 4
        assert (tmp_path / "spill.jsonl").read_bytes() \
            == (tmp_path / "mem.jsonl").read_bytes()


class TestTraceCli:
    def _bundle(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["run", "flux_1", "--nodes", "1", "--waves", "1",
                     "--bundle", str(out)]) == 0
        return out

    def test_trace_run_writes_bundle(self, capsys, tmp_path):
        out = self._bundle(tmp_path)
        stdout = capsys.readouterr().out
        assert "wrote observability bundle" in stdout
        assert (out / "manifest.json").is_file()
        assert (out / "trace.json").is_file()

    def test_run_with_bundle_flag(self, capsys, tmp_path):
        out = tmp_path / "b2"
        assert main(["run", "flux_1", "--nodes", "1", "--waves", "1",
                     "--bundle", str(out)]) == 0
        assert (out / "profile.jsonl").is_file()
        assert not (out / "metrics.json").exists()

    def test_trace_inspect(self, capsys, tmp_path):
        out = self._bundle(tmp_path)
        capsys.readouterr()
        assert main(["trace", "inspect", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "flux_1" in stdout
        assert "phases:" in stdout
        assert "schedule=" in stdout

    def test_trace_export_from_profile(self, capsys, tmp_path):
        import json

        out = self._bundle(tmp_path)
        capsys.readouterr()
        target = tmp_path / "exported.json"
        assert main(["trace", "export", str(out / "profile.jsonl"),
                     "--out", str(target)]) == 0
        stdout = capsys.readouterr().out
        assert "perfetto" in stdout.lower()
        from repro.observability import validate_chrome_trace

        assert validate_chrome_trace(json.loads(target.read_text())) == []

    def test_trace_critical_pins_the_srun_chain(self, capsys, tmp_path):
        out = tmp_path / "bundle"
        assert main(["run", "srun", "--waves", "1", "--bundle",
                     str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", "critical", str(out)]) == 0
        assert capsys.readouterr().out == SRUN_W1_CHAIN

    @pytest.mark.parametrize("command", ["inspect", "critical"])
    @pytest.mark.parametrize("files", [
        {}, {"manifest.json": '{"kind": "other"}'}, None,
    ], ids=["empty-dir", "foreign-manifest", "missing-path"])
    def test_bad_bundle_paths_fail_cleanly(self, command, files, capsys,
                                           tmp_path):
        target = tmp_path / "target"
        if files is not None:
            target.mkdir()
            for name, text in files.items():
                (target / name).write_text(text)
        assert main(["trace", command, str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(target) in captured.err
        assert captured.out == ""


#: ``trace critical`` on ``run srun --waves 1 --bundle``: the chain the
#: profile-derived span tree yields.
SRUN_W1_CHAIN = (
    "             span            cat  start[s]  end[s]  dur[s]  excl[s]\n"
    "-----------------  -------------  --------  ------  ------  -------\n"
    "   session.000000        session         0   6.539   6.539    2.000\n"
    "     pilot.000000          pilot     2.000   6.539   4.539        0\n"
    "             srun  backend_group         0   6.539   6.539        0\n"
    "      task.000222           task         0   6.539   6.539    6.539\n"
    "             exec          phase     6.539   6.539       0        0\n"
    "\n"
    "critical path: 5 levels, 6.539s end to end; largest exclusive "
    "contribution 6.539s at task:task.000222\n"
)
