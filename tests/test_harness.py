import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oscint import cli, diagnostics, effective, harness, integrators, model
from oscint.harness import ConfigError, SweepConfig, config_from_dict


def small_config(tmp_path, **over):
    base = dict(
        model="double_pendulum",
        model_params={},
        epsilon=1e-2,
        methods=["projected"],
        stepsizes=[0.1],
        t_end=0.5,
        micro_divisor=100,
        h_ref=1e-3,
        out=str(tmp_path / "out.csv"),
        stride=1,
        workers=1,
    )
    base.update(over)
    return config_from_dict(base)


# a short converge run, so that a bad value let through fails fast
SHORT = dict(epsilon=0.01, methods=["projected"], stepsizes=[0.1], t_end=0.2, h_ref=0.005)


def short_json(**over):
    return json.dumps(dict(SHORT, **over))


CHAIN = {"N": 2, "alphas": [1.0, 1.0], "lengths": [1.0, 1.0], "x0": [0.0, -1.0, 0.0, -2.0]}

# configs with a bool or a string where a model parameter or an initial
# state entry belongs
NOT_NUMBERS = [
    dict(model_params={"alpha1": True}),
    dict(model_params={"alpha2": "2"}),
    dict(model_params={"l1": False}),
    dict(model_params={"l2": "1.0"}),
    dict(model="spring_chain", model_params=dict(CHAIN, alphas=["1.5", True])),
    dict(model="spring_chain", model_params=dict(CHAIN, lengths=[1.0, True])),
    dict(model_params={"x0": [0.7, -0.7, True, 0.0]}),
    dict(model_params={"y0": [0.0, "0", 0.0, 0.0]}),
]
NOT_NUMBER_IDS = [
    "bool-alpha1", "string-alpha2", "bool-l1", "string-l2", "string-and-bool-alphas",
    "bool-in-lengths", "bool-in-x0", "string-in-y0",
]

# configs with a bool where a number belongs: each passes the range
# checks as 1.0 (epsilon falls outside (0, 1) as 1.0 but is named too)
BOOL_NUMBERS = [
    (dict(epsilon=True), "epsilon"),
    (dict(t_end=True), "t_end"),
    (dict(h_ref=True), "h_ref"),
    (dict(stepsizes=[True, 0.5]), "stepsizes"),
]
BOOL_NUMBER_IDS = ["bool-epsilon", "bool-t-end", "bool-h-ref", "bool-in-stepsizes"]


class TestConfig:
    def test_defaults_valid(self):
        cfg = SweepConfig()
        cfg.validate()
        assert cfg.stepsizes[0] == 0.25
        assert cfg.stepsizes[-1] == 2.0 ** -9
        assert cfg.epsilon == 1e-3

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict({"modle": "double_pendulum"})

    def test_ascending_stepsizes_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, stepsizes=[0.1, 0.2])

    def test_bad_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, methods=["leapfrog"])

    def test_bad_model_params_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, model_params={"alpha1": -1.0})

    @pytest.mark.parametrize(
        "over, field",
        [
            (dict(t_end=math.nan), "t_end"),
            (dict(h_ref=math.inf), "h_ref"),
            (dict(stepsizes=[math.inf, 0.1]), "stepsizes"),
            (dict(model_params={"alpha2": math.nan}), "alphas"),
            (dict(model_params={"l1": math.inf}), "lengths"),
        ],
        ids=["nan-t-end", "inf-h-ref", "inf-stepsize", "nan-alpha2", "inf-l1"],
    )
    def test_non_finite_value_names_its_field(self, tmp_path, over, field):
        with pytest.raises(ConfigError, match=f"{field} must be positive and finite"):
            small_config(tmp_path, **over)

    @pytest.mark.parametrize("field", ["x0", "y0"])
    def test_non_finite_initial_state_names_its_field(self, tmp_path, field):
        cfg = small_config(tmp_path, model_params={field: [0.5, math.inf, 1.0, 0.0]})
        with pytest.raises(ConfigError, match=f"initial state {field} must be finite"):
            harness.initial_state(cfg, harness.build_system(cfg))

    def test_chain_requires_initial_state(self, tmp_path):
        cfg = small_config(
            tmp_path,
            model="spring_chain",
            model_params={"N": 2, "alphas": [1.0, 1.0], "lengths": [1.0, 1.0]},
        )
        sys = harness.build_system(cfg)
        with pytest.raises(ConfigError):
            harness.initial_state(cfg, sys)

    def test_chain_with_explicit_state(self, tmp_path):
        cfg = small_config(
            tmp_path,
            model="spring_chain",
            model_params={
                "N": 1,
                "alphas": [1.0],
                "lengths": [1.0],
                "x0": [0.0, -1.0],
                "y0": [0.1, 0.0],
            },
        )
        sys = harness.build_system(cfg)
        state = harness.initial_state(cfg, sys)
        assert np.allclose(state.x, [0.0, -1.0])

    @pytest.mark.parametrize("n_springs", [2.9, True, 0, "2"], ids=["float", "bool", "zero", "string"])
    def test_chain_spring_count_must_be_a_positive_integer(self, tmp_path, n_springs):
        params = {"N": n_springs, "alphas": [1.0, 1.0], "lengths": [1.0, 1.0]}
        with pytest.raises(ConfigError, match="model_params.N must be an integer >= 1"):
            small_config(tmp_path, model="spring_chain", model_params=params)

    @pytest.mark.parametrize("params", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
    def test_bool_or_string_parameter_rejected(self, tmp_path, params):
        # numpy would read true as 1.0 and "2" as 2.0
        with pytest.raises(ConfigError, match="must be numeric"):
            small_config(tmp_path, **params)

    @pytest.mark.parametrize("over, field", BOOL_NUMBERS, ids=BOOL_NUMBER_IDS)
    def test_bool_number_names_its_field(self, tmp_path, over, field):
        with pytest.raises(ConfigError, match=f"{field} must be (a number|numbers), not"):
            small_config(tmp_path, **dict(dict(t_end=1.0, stepsizes=[0.5]), **over))

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        payload = dict(
            model="double_pendulum",
            epsilon=1e-2,
            methods=["impulse"],
            stepsizes=[0.05],
            t_end=1.0,
            micro_divisor=100,
            h_ref=1e-3,
            out=str(tmp_path / "x.csv"),
        )
        path.write_text(json.dumps(payload))
        cfg = harness.load_config(path)
        assert cfg.methods == ["impulse"]
        assert cfg.epsilon == 1e-2


class TestRunSingle:
    def test_column_contract_and_values(self, tmp_path):
        cfg = small_config(tmp_path, t_end=0.2, stepsizes=[0.05])
        harness.run_single(cfg)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "t", "x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3",
            "energy", "I0", "I1", "min_gap", "min_combo", "constraint_residual",
        ]
        assert len(lines) == 1 + 5  # t = 0 .. 0.2 in steps of 0.05
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["t"]) == 0.0
        assert abs(float(first["min_gap"]) - (math.sqrt(2.0) - 1.0)) <= 5e-3

    def test_rerun_bytes_identical(self, tmp_path):
        cfg = small_config(tmp_path, t_end=0.2, stepsizes=[0.05])
        harness.run_single(cfg)
        first = (tmp_path / "out.csv").read_bytes()
        harness.run_single(cfg)
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_requires_single_method(self, tmp_path):
        cfg = small_config(tmp_path, methods=["projected", "impulse"], stepsizes=[0.1])
        with pytest.raises(ConfigError):
            harness.run_single(cfg)


class TestSweep:
    def test_row_count_and_order(self, tmp_path):
        cfg = small_config(
            tmp_path,
            methods=["impulse", "projected"],
            stepsizes=[0.2, 0.1],
            t_end=0.4,
            h_ref=5e-3,
        )
        result = harness.run_convergence_sweep(cfg)
        assert [(r.method, r.h) for r in result.rows] == [
            ("impulse", 0.2), ("impulse", 0.1),
            ("projected", 0.2), ("projected", 0.1),
        ]
        assert all(r.status == "ok" for r in result.rows)
        assert result.reference_guard is not None
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "method,h,max_err_x,max_err_Py,max_action_drift,status"
        assert len(lines) == 5

    def test_parallel_workers_match_serial(self, tmp_path):
        cfg = small_config(
            tmp_path,
            methods=["projected", "mollified"],
            stepsizes=[0.2, 0.1],
            t_end=0.4,
            h_ref=5e-3,
        )
        serial = harness.run_convergence_sweep(cfg)
        serial_bytes = (tmp_path / "out.csv").read_bytes()
        cfg2 = small_config(
            tmp_path,
            methods=["projected", "mollified"],
            stepsizes=[0.2, 0.1],
            t_end=0.4,
            h_ref=5e-3,
            workers=2,
        )
        parallel = harness.run_convergence_sweep(cfg2)
        assert (tmp_path / "out.csv").read_bytes() == serial_bytes
        for a, b in zip(serial.rows, parallel.rows):
            assert a.method == b.method and a.h == b.h
            assert a.max_err_x == b.max_err_x
            assert a.max_action_drift == b.max_action_drift

    def test_failed_run_tagged_and_sweep_continues(self, tmp_path, monkeypatch):
        cfg = small_config(
            tmp_path,
            methods=["projected"],
            stepsizes=[0.1, 0.05],
            t_end=0.2,
            h_ref=5e-3,
        )
        real_integrate = harness.integrate

        def flaky(sys, s0, method, t_end, **kw):
            if method.h == 0.05:
                raise RuntimeError("synthetic failure")
            return real_integrate(sys, s0, method, t_end, **kw)

        monkeypatch.setattr(harness, "integrate", flaky)
        result = harness.run_convergence_sweep(cfg)
        assert [r.status for r in result.rows] == ["ok", "RuntimeError"]
        failed = result.rows[1]
        assert math.isnan(failed.max_err_x) and math.isnan(failed.max_action_drift)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[-1].endswith("RuntimeError")


class TestReferenceGuard:
    @pytest.mark.parametrize("eps, t_end", [(1e-2, 2.0), (1e-3, 1.0)])
    def test_equals_interpolated_position_error(self, eps, t_end):
        # oscint check's setting, and eps = 1e-3 as in the canonical sweep
        sys = model.make_double_pendulum(eps)
        s0 = model.benchmark_initial_state(eps)
        ref, guard = harness._reference_and_guard(sys, s0, 1e-3, t_end)
        half = effective.effective_reference(sys, s0.x, s0.y, 5e-4, t_end)
        assert np.array_equal(half.t[::2], ref.t)
        assert guard == diagnostics.error_metrics(ref, half, sys).max_err_x

    def test_sample_times_must_agree(self, pendulum, bench_state, monkeypatch):
        real = effective.effective_reference

        def shifted(*args, **kw):
            traj = real(*args, **kw)
            if kw.get("stride") == 2:
                traj.t = traj.t + 1e-12
            return traj

        monkeypatch.setattr(effective, "effective_reference", shifted)
        with pytest.raises(diagnostics.TimeMismatch):
            harness._reference_and_guard(pendulum, bench_state, 1e-2, 0.1)


class TestActionStudy:
    def test_series_and_summary(self, tmp_path):
        cfg = small_config(
            tmp_path,
            methods=["projected", "impulse"],
            stepsizes=[0.1],
            t_end=0.5,
        )
        result = harness.run_action_study(cfg)
        assert len(result.rows) == 2
        series = (tmp_path / "out.csv").read_text().splitlines()
        assert series[0] == "method,h,t,I0,I1"
        # 6 samples per method (t = 0 .. 0.5)
        assert len(series) == 1 + 2 * 6
        summary = (tmp_path / "out.summary.csv").read_text().splitlines()
        assert len(summary) == 3

    def test_single_stepsize_enforced(self, tmp_path):
        cfg = small_config(tmp_path, stepsizes=[0.2, 0.1], t_end=0.4)
        with pytest.raises(ConfigError, match="exactly one stepsize"):
            harness.run_action_study(cfg)

    def test_workers_use_the_pool_and_match_serial(self, tmp_path, monkeypatch):
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        # the harness imports the pool inside the run that needs it
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        outputs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.csv"
            cfg = small_config(
                tmp_path, methods=["projected", "impulse"], stepsizes=[0.1],
                t_end=0.5, out=str(out), workers=workers,
            )
            harness.run_action_study(cfg)
            outputs[workers] = (out.read_bytes(), (tmp_path / f"w{workers}.summary.csv").read_bytes())
        assert pools == [{"max_workers": 2}]
        assert outputs[2] == outputs[1]

    def test_import_loads_no_process_pool(self):
        # a serial run never needs the pool: its import stays off the
        # set-up path
        code = "import sys, oscint.harness; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert out.stdout.strip() == "False"

    def test_summary_path(self):
        assert harness._summary_path("out.csv") == "out.summary.csv"
        assert harness._summary_path("a.b/out.csv") == "a.b/out.summary.csv"
        assert harness._summary_path("runs.v2/actions") == "runs.v2/actions.summary.csv"
        assert harness._summary_path("actions") == "actions.summary.csv"


class TestRunOne:
    """A job hands back only what its study writes: a sweep job no
    per-sample data, an action-study job its series as plain floats."""

    @staticmethod
    def job(tmp_path, with_reference):
        cfg = small_config(tmp_path, methods=["mollified"], stepsizes=[0.1], h_ref=5e-3)
        sys_ = harness.build_system(cfg)
        s0 = harness.initial_state(cfg, sys_)
        ref = None
        if with_reference:
            ref = effective.effective_reference(sys_, s0.x, s0.y, cfg.h_ref, cfg.t_end)
        return sys_, s0, cfg, "mollified", 0.1, ref

    def test_sweep_job_returns_no_series(self, tmp_path):
        row, series = harness._run_one(self.job(tmp_path, with_reference=True))
        assert row.status == "ok" and math.isfinite(row.max_err_x)
        assert series is None

    def test_action_job_returns_its_series_as_plain_floats(self, tmp_path):
        sys_, s0, cfg, kind, h, _ = job = self.job(tmp_path, with_reference=False)
        row, series = harness._run_one(job)
        assert row.status == "ok" and math.isnan(row.max_err_x)
        traj = integrators.integrate(
            sys_, s0, integrators.MacroMethod(kind, h, cfg.micro_divisor), cfg.t_end,
            observer=diagnostics.make_observer(sys_),
        )
        assert series == [(rec.t, *rec.actions) for rec in traj.records]
        assert len(series) == 6 and all(len(sample) == 1 + sys_.m for sample in series)
        assert all(type(value) is float for sample in series for value in sample)

    def test_failed_job_returns_no_series(self, tmp_path, monkeypatch):
        def failing(system, x):
            raise model.DomainError("synthetic collapse")

        monkeypatch.setitem(integrators._KICK_FORCES, "mollified", failing)
        row, series = harness._run_one(self.job(tmp_path, with_reference=False))
        assert row.status == "IntegrationError" and series is None


def spy_everywhere(monkeypatch, original):
    """Replace original by a counting wrapper in every oscint module
    that holds it; returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "oscint" or name.startswith("oscint."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def eager_observer(_):
    """make_observer with every record field computed at sample time by
    the expressions of the lazy fields."""

    def observer(system, state, position=None):
        _, fset, actions = diagnostics._mode_split(system, state.x, state.y, position)
        gap, combo = diagnostics.resonance_monitor(fset.omegas)
        residual = float(np.max(np.abs(system.constraint(state.x)))) if system.m else 0.0
        return SimpleNamespace(
            t=state.t, energy=model.hamiltonian(system, state), actions=actions,
            min_gap=gap, min_combo=combo, constraint_residual=residual,
        )

    return observer


def study_config(tmp_path, study, **over):
    methods = ["impulse", "mollified", "projected"]
    if study == "run_convergence_sweep":
        return small_config(tmp_path, methods=methods, stepsizes=[0.1, 0.05], h_ref=5e-3, **over)
    if study == "run_single":
        return small_config(tmp_path, methods=["mollified"], stepsizes=[0.05], **over)
    return small_config(tmp_path, methods=methods, stepsizes=[0.1], **over)


STUDIES = ["run_action_study", "run_convergence_sweep", "run_single"]


class TestLazyRecords:
    @pytest.mark.parametrize("study", STUDIES)
    def test_only_the_single_run_reads_lazy_fields(self, tmp_path, monkeypatch, study):
        monitors = spy_everywhere(monkeypatch, diagnostics.resonance_monitor)
        energies = spy_everywhere(monkeypatch, model.hamiltonian)
        getattr(harness, study)(study_config(tmp_path, study))
        if study == "run_single":  # the spies see the calls they should
            assert len(monitors) == len(energies) == 11
        else:
            assert monitors == energies == []

    @pytest.mark.parametrize("study", STUDIES)
    def test_outputs_match_fully_evaluated_records(self, tmp_path, monkeypatch, study):
        getattr(harness, study)(study_config(tmp_path, study, out=str(tmp_path / "lazy.csv")))
        monkeypatch.setattr(diagnostics, "make_observer", eager_observer)
        getattr(harness, study)(study_config(tmp_path, study, out=str(tmp_path / "eager.csv")))
        lazy = (tmp_path / "lazy.csv").read_bytes()
        assert lazy == (tmp_path / "eager.csv").read_bytes()
        if study == "run_action_study":
            summary = (tmp_path / "lazy.summary.csv").read_bytes()
            assert summary == (tmp_path / "eager.summary.csv").read_bytes()

    @pytest.mark.parametrize("study", ["run_action_study", "run_convergence_sweep"])
    def test_failing_row_keeps_its_status(self, tmp_path, monkeypatch, study):
        # the impulse kick fails on its third call, after samples exist
        calls = []
        kick = integrators._KICK_FORCES["impulse"]

        def failing(system, x):
            calls.append(1)
            if len(calls) == 3:
                raise model.DomainError("synthetic collapse")
            return kick(system, x)

        monkeypatch.setitem(integrators._KICK_FORCES, "impulse", failing)
        cfg = study_config(tmp_path, study)
        result = getattr(harness, study)(cfg)
        statuses = [r.status for r in result.rows]
        assert statuses == ["IntegrationError"] + ["ok"] * (len(statuses) - 1)
        failed = result.rows[0]
        assert failed.method == "impulse"
        assert math.isnan(failed.max_err_x) and math.isnan(failed.max_action_drift)
        rows_csv = cfg.out if study == "run_convergence_sweep" else harness._summary_path(cfg.out)
        lines = Path(rows_csv).read_text(encoding="utf-8").splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == statuses
        if study == "run_action_study":
            series = Path(cfg.out).read_text(encoding="utf-8").splitlines()
            assert not any(line.startswith("impulse,0.1,") for line in series)
            assert len(series) == 1 + 2 * 6


class TestPerformanceGuard:
    def test_wall_time_scales_with_micro_work(self, tmp_path):
        # doubling t_end doubles the micro-step count; run time should
        # track it within the +-30% regression band.  Process CPU time,
        # best of three with the horizons interleaved, keeps other load and
        # drifts in machine speed out of the ratio.
        import time

        def timed_sweep(t_end):
            cfg = small_config(
                tmp_path, methods=["projected"], stepsizes=[0.1],
                t_end=t_end, h_ref=5e-3, epsilon=2e-3,
            )
            start = time.process_time()
            harness.run_convergence_sweep(cfg)
            return time.process_time() - start

        timed_sweep(0.4)  # warm caches
        short = long = math.inf
        for _ in range(3):
            short = min(short, timed_sweep(1.0))
            long = min(long, timed_sweep(2.0))
        assert 2.0 * 0.7 <= long / short <= 2.0 * 1.3


class TestMicroStepCount:
    def test_micro_steps_double_with_t_end(self, tmp_path, monkeypatch):
        # the exact counterpart of TestPerformanceGuard's timing band: the
        # same sweep, its micro steps counted through a spy on stiff_flow
        steps = []
        flow = model.StiffSpringChain.stiff_flow

        def counting(sys, x, y, h_micro, nsteps):
            steps.append(nsteps)
            return flow(sys, x, y, h_micro, nsteps)

        monkeypatch.setattr(model.StiffSpringChain, "stiff_flow", counting)

        def counted_sweep(t_end):
            steps.clear()
            cfg = small_config(
                tmp_path, methods=["projected"], stepsizes=[0.1],
                t_end=t_end, h_ref=5e-3, epsilon=2e-3,
            )
            harness.run_convergence_sweep(cfg)
            return sum(steps)

        short = counted_sweep(1.0)
        assert short > 0
        assert counted_sweep(2.0) == 2 * short


class TestRunCheck:
    def test_all_pass(self):
        results, ok = harness.run_check()
        assert ok
        assert len(results) >= 10
        names = [r.name for r in results]
        assert "frequency_pair" in names
        assert all(r.passed for r in results)

    def test_fault_injection_fails_target(self):
        results, ok = harness.run_check(inject_fault="frequency_pair")
        assert not ok
        by_name = {r.name: r for r in results}
        assert not by_name["frequency_pair"].passed
        others = [r for r in results if r.name != "frequency_pair"]
        assert all(r.passed for r in others)

    def test_report_lines(self, capsys):
        results, _ = harness.run_check(inject_fault="frequency_pair")
        harness.print_check_report(results)
        out = capsys.readouterr().out
        assert "FAIL frequency_pair" in out
        assert "measured=" in out and "tolerance=" in out

    def test_unknown_fault_name_is_config_error(self):
        with pytest.raises(ConfigError, match="no_such_check") as info:
            harness.run_check(inject_fault="no_such_check")
        assert all(name in str(info.value) for name in harness.CHECK_NAMES)


class TestCli:
    def test_simulate_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli.main([
            "simulate", "--method", "projected", "--h", "0.1",
            "--epsilon", "0.01", "--t-end", "0.3", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_config_error_exit_code(self, tmp_path):
        code = cli.main(["simulate", "--method", "nosuch", "--h", "0.1"])
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "model": "double_pendulum",
            "epsilon": 1e-2,
            "methods": ["projected"],
            "stepsizes": [0.1],
            "t_end": 0.2,
            "out": str(tmp_path / "a.csv"),
        }))
        code = cli.main([
            "simulate", "--config", str(path), "--out", str(tmp_path / "b.csv"),
        ])
        assert code == 0
        assert (tmp_path / "b.csv").exists()
        assert not (tmp_path / "a.csv").exists()

    def test_check_fault_injection_exit_code(self):
        assert cli.main(["check", "--inject-fault", "frequency_pair"]) == 1

    def test_unknown_fault_name_exit_code(self, capsys):
        assert cli.main(["check", "--inject-fault", "no_such_check"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "frequency_pair" in err

    def test_actions_subcommand(self, tmp_path):
        out = tmp_path / "acts.csv"
        code = cli.main([
            "actions", "--method", "projected", "--method", "impulse",
            "--h", "0.1", "--epsilon", "0.01", "--t-end", "0.3", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "acts.summary.csv").exists()

    def test_actions_summary_stays_in_dotted_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs.v2").mkdir()
        code = cli.main([
            "actions", "--method", "projected", "--h", "0.1", "--epsilon", "0.01",
            "--t-end", "0.2", "--out", "runs.v2/actions",
        ])
        assert code == 0
        assert (tmp_path / "runs.v2" / "actions").exists()
        assert (tmp_path / "runs.v2" / "actions.summary.csv").exists()
        assert not (tmp_path / "runs.summary.csv").exists()

    @pytest.mark.parametrize(
        "raw",
        [
            '{"epsilon": "0.01"}', '{"stepsizes": 0.1}', "5", '{"model_params": 5}',
            short_json(model_params={"x0": "abc"}),
            short_json(model_params={"y0": [0.0, 0.0, "a", 0.0]}),
            short_json(workers=1.5),
            short_json(workers=True),
            short_json(stride=1.5),
            short_json(micro_divisor=2.5),
            short_json(t_end=0.25),
            short_json(h_ref=0.003),
            short_json(model_params={"alpha1": math.nan}),
            short_json(model_params={"l2": math.inf}),
            short_json(model_params={"x0": [math.nan, 0.0, 1.0, 0.0]}),
            short_json(t_end=math.nan),
        ],
        ids=[
            "string-epsilon", "scalar-stepsizes", "non-object", "scalar-model-params",
            "string-x0", "string-in-y0", "float-workers", "bool-workers", "float-stride",
            "float-micro-divisor", "stepsize-not-dividing-t-end", "h-ref-not-dividing-t-end",
            "nan-alpha1", "inf-l2", "nan-in-x0", "nan-t-end",
        ],
    )
    def test_malformed_config_value_is_config_error(self, tmp_path, capsys, raw):
        path = tmp_path / "cfg.json"
        path.write_text(raw)
        code = cli.main(["converge", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("params", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
    def test_bool_or_string_parameter_exit_code(self, tmp_path, capsys, params):
        path = tmp_path / "cfg.json"
        path.write_text(short_json(**params))
        code = cli.main(["converge", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "must be numeric" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_bool_number_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(short_json(t_end=True))
        code = cli.main(["converge", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "t_end must be a number, not True" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("n_springs", [2.9, True, 0, "2"], ids=["float", "bool", "zero", "string"])
    def test_chain_spring_count_exit_code(self, tmp_path, capsys, n_springs):
        path = tmp_path / "cfg.json"
        params = {"N": n_springs, "alphas": [1.0, 1.0], "lengths": [1.0, 1.0],
                  "x0": [0.0, -1.0, 0.0, -2.0]}
        path.write_text(short_json(model="spring_chain", model_params=params))
        code = cli.main(["converge", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "model_params.N must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()
