"""Executor: serial/parallel equivalence, determinism, timeouts."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.executor import (
    ProcessBackend,
    SerialBackend,
    execute,
    make_backend,
    run_spec,
)
from repro.engine.registry import get, scenario, unregister
from repro.engine.spec import ScenarioSpec

#: cheap scenarios that still exercise RNG-heavy simulation paths.
FAST = ("E1", "E5", "E8", "A7", "A9")


def _specs(names=FAST):
    return [get(name).spec for name in names]


class TestBackendSelection:
    def test_auto_picks_by_worker_count(self):
        assert isinstance(make_backend("auto", workers=1), SerialBackend)
        assert isinstance(make_backend("auto", workers=4), ProcessBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_backend("quantum")


class TestDeterminism:
    def test_same_seed_identical_result(self):
        spec = get("E15").spec  # annealing: heavily RNG-dependent
        a = run_spec(spec)
        b = run_spec(spec)
        assert a.comparable_payload() == b.comparable_payload()

    def test_different_seed_different_rng_stream(self):
        spec = get("E15").spec
        reseeded = ScenarioSpec(spec.name, spec.params_dict(), seed=1)
        assert spec.derived_seed() != reseeded.derived_seed()

    def test_serial_vs_parallel_equivalence(self):
        specs = _specs()
        serial = execute(specs, backend="serial")
        parallel = execute(specs, workers=2, backend="process")
        assert len(serial) == len(parallel) == len(specs)
        for s, p in zip(serial, parallel):
            assert s.comparable_payload() == p.comparable_payload()
            assert s.backend == "serial" and p.backend == "process"

    def test_rerun_reproduces_bit_identical_rows(self):
        specs = _specs(("A7", "E5"))
        first = execute(specs, workers=2)
        second = execute(specs, workers=2)
        for a, b in zip(first, second):
            assert a.rows == b.rows
            assert a.verdict == b.verdict


class TestExecution:
    def test_report_aggregates_all_scenarios(self):
        report = execute(_specs(("E1", "E2", "E3")))
        assert [r.name for r in report] == ["E1", "E2", "E3"]
        assert all(r.ok for r in report)
        assert all(r.reproduced for r in report)
        rendered = report.render()
        assert "3 scenarios: 3 executed" in rendered

    def test_params_flow_into_scenario(self):
        spec = get("E18").spec.with_params(table_sizes=(100,))
        result = run_spec(spec)
        assert result.ok
        assert len(result.rows) == 1
        assert result.rows[0]["prefixes"] == 100

    def test_non_dict_return_is_an_error_not_a_crash(self):
        @scenario("_listret")
        def _listret():
            return [{"a": 1}]

        try:
            result = run_spec(ScenarioSpec("_listret"))
            assert result.status == "error"
            assert "expected a dict" in result.error
        finally:
            unregister("_listret")

    def test_ablation_verdict_survives_params_override(self):
        result = run_spec(get("A7").spec.with_params(costs=(0.0, 50.0)))
        assert result.ok
        assert result.verdict["hw_1cycle_schedulable"]
        assert result.verdict["sw_kernel_infeasible"]

    def test_timeout_forces_process_backend_on_auto(self):
        assert isinstance(
            make_backend("auto", workers=1, timeout_s=5.0), ProcessBackend
        )

    def test_parallel_timeout_marks_job(self):
        @scenario("_slow")
        def _slow():
            import time

            time.sleep(30)
            return {"rows": []}

        try:
            report = execute(
                [ScenarioSpec("_slow")],
                workers=2,
                backend="process",
                timeout_s=1.0,
            )
            assert report.results[0].status == "timeout"
            assert report.failed
        finally:
            unregister("_slow")

    def test_jobs_queued_behind_a_hung_job_still_run(self):
        @scenario("_hang")
        def _hang():
            import time

            time.sleep(30)
            return {"rows": []}

        try:
            specs = [ScenarioSpec("_hang"), get("E1").spec]
            report = execute(
                specs, workers=1, backend="process", timeout_s=1.0
            )
            by_name = {r.name: r for r in report}
            assert by_name["_hang"].status == "timeout"
            assert by_name["E1"].ok  # resubmitted to a fresh pool
        finally:
            unregister("_hang")

    def test_error_carries_the_full_worker_traceback(self):
        # a 13-deep chain of *distinct* functions: under the old
        # format_exc(limit=8) the innermost frames — the ones that
        # identify the bug — were cut off
        source = "def f0():\n    raise RuntimeError('innermost marker')\n"
        for i in range(1, 13):
            source += f"def f{i}():\n    return f{i - 1}()\n"

        @scenario("_deepfail")
        def _deepfail():
            namespace: dict = {}
            exec(compile(source, "<deepfail>", "exec"), namespace)
            return namespace["f12"]()

        try:
            for result in (
                run_spec(ScenarioSpec("_deepfail")),
                execute(
                    [ScenarioSpec("_deepfail")], workers=1,
                    backend="process",
                ).results[0],
            ):
                assert result.status == "error"
                assert "innermost marker" in result.error
                # every intermediate frame survives, verbatim
                for i in range(13):
                    assert f"in f{i}" in result.error
        finally:
            unregister("_deepfail")

    def test_expected_false_excuses_negative_controls(self):
        from repro.engine.results import ScenarioResult

        result = ScenarioResult(
            name="x",
            spec_hash="h",
            verdict={"wins": True, "control": False},
            expected_false=("control",),
        )
        assert result.reproduced is True
        assert get("E14").expected_false == ("line_rate_without_mt",)

    def test_raising_progress_aborts_the_pool_promptly(self):
        """A progress-callback raise (the service's cancel signal) must
        terminate the pool, not drain the queued jobs first."""
        import time

        @scenario("_abort_slow")
        def _abort_slow(i=0):
            time.sleep(30)
            return {"rows": []}

        class _Abort(Exception):
            pass

        def progress(_result):
            raise _Abort

        try:
            specs = [get("E1").spec] + [
                ScenarioSpec("_abort_slow", {"i": i}) for i in range(3)
            ]
            start = time.monotonic()
            with pytest.raises(_Abort):
                execute(specs, workers=1, backend="process",
                        progress=progress)
            assert time.monotonic() - start < 10  # not 3 x 30s
        finally:
            unregister("_abort_slow")

    def test_progress_callback_sees_every_result(self):
        seen = []
        execute(_specs(("E1", "E2")), progress=seen.append)
        assert [r.name for r in seen] == ["E1", "E2"]

    def test_report_roundtrips_through_json(self, tmp_path):
        report = execute(_specs(("E1",)))
        path = report.save(tmp_path / "report.json")
        from repro.engine.results import Report

        loaded = Report.load(path)
        assert len(loaded) == 1
        assert (
            loaded.results[0].comparable_payload()
            == report.results[0].comparable_payload()
        )


#: Imports every program entry point, runs the mapping scenarios (DSE
#: with random candidates reaches ``evaluate_batch``) and checks that
#: numpy never loaded.  argv[1] is the ``src`` directory.
_NO_NUMPY_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import repro.cluster.coordinator, repro.cluster.federation
import repro.cluster.worker, repro.engine.cli
from repro.engine import registry
from repro.engine.executor import run_spec

registry.load_all()
dse = run_spec(registry.get("DSE").spec.with_params(random_candidates=8))
assert any(row["mapper"] == "random_best" for row in dse.rows)
for name in ("E15", "A4"):
    assert run_spec(registry.get(name).spec).ok, name
assert "numpy" not in sys.modules, "a program module imported numpy"
"""


class TestDependencies:
    def test_program_never_imports_numpy(self):
        # a fresh interpreter: this one may have numpy loaded already
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY_SCRIPT, str(src)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestCli:
    def test_cli_list_and_run(self, tmp_path, capsys):
        from repro.engine.cli import main

        assert main(["list", "--tags", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "A1" in out and "A9" in out

        rc = main(
            [
                "run",
                "--names", "E1", "A7",
                "--cache", str(tmp_path / "cache"),
                "--out", str(tmp_path / "report.json"),
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 scenarios: 2 executed, 0 cached, 0 failed" in out
        assert (tmp_path / "report.json").exists()

        # second run: everything replays from cache
        rc = main(
            [
                "run",
                "--names", "E1", "A7",
                "--cache", str(tmp_path / "cache"),
                "--quiet",
            ]
        )
        assert rc == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out

    def test_cli_report(self, tmp_path, capsys):
        from repro.engine.cli import main

        path = str(tmp_path / "r.json")
        main(["run", "--names", "E1", "--no-cache", "--quiet",
              "--out", path])
        capsys.readouterr()
        assert main(["report", path, "--full"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "mask_nre_usd" in out

    def test_cli_unknown_scenario_errors(self, capsys):
        from repro.engine.cli import main

        assert main(["run", "--names", "E99", "--no-cache"]) == 2

    def test_cli_sweep_and_shard(self, capsys):
        from repro.engine.cli import main

        @scenario("_cli_sweep", params={"n": 1})
        def _cli_sweep(n=1):
            return {"rows": [{"n": n}], "verdict": {"ok": True}}

        try:
            rc = main(
                ["run", "--names", "_cli_sweep", "--no-cache", "--quiet",
                 "--sweep", "n=1,2,3,4", "--shard", "1/2"]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert "2 scenarios: 2 executed" in out  # n=2 and n=4
        finally:
            unregister("_cli_sweep")

    def test_cli_bad_sweep_and_shard_are_usage_errors(self, capsys):
        from repro.engine.cli import main

        assert main(["run", "--names", "E1", "--no-cache",
                     "--sweep", "broken"]) == 2
        assert main(["run", "--names", "E1", "--no-cache",
                     "--shard", "5/2"]) == 2
