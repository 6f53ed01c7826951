"""Acceptance suite for the benchmark experiments.

Runs the canonical double-pendulum experiments end to end and checks
every exit criterion at its stated tolerance, printing one pass/fail
line per criterion (run with `pytest -s` to see them).

The heavy fixtures (the full convergence sweep and the fine reference
integrations) are shared module-wide; expect the module to take on the
order of ten minutes on one core.
"""

import math

import numpy as np
import pytest

from oscint import (
    benchmark_initial_state,
    make_double_pendulum,
    momentum_projector,
    project_to_manifold,
)
from oscint import diagnostics, effective, harness, integrators, smallmat
from oscint.harness import SweepConfig
from oscint.integrators import MacroMethod

from conftest import sample_states, random_spd

EPS_SWEEP = 1e-3
H_GRID = [2.0 ** -k for k in range(2, 10)]


def report(line):
    print(f"\n{line}")


def lsq_slope(hs, errs):
    return float(np.polyfit(np.log2(hs), np.log2(errs), 1)[0])


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    cfg = SweepConfig(epsilon=EPS_SWEEP, stepsizes=list(H_GRID), t_end=10.0, out=str(out))
    result = harness.run_convergence_sweep(cfg)
    rows = {(r.method, r.h): r for r in result.rows}
    assert len(result.rows) == 24  # 3 methods x 8 stepsizes
    assert all(r.status == "ok" for r in result.rows)
    return {"cfg": cfg, "result": result, "rows": rows, "bytes": out.read_bytes()}


@pytest.fixture(scope="module")
def action_study():
    drifts = {}
    for eps in (1e-2, 5e-3):
        sys = make_double_pendulum(eps)
        s0 = benchmark_initial_state(eps)
        observer = diagnostics.make_observer(sys)
        for kind in ("impulse", "mollified", "projected"):
            traj = integrators.integrate(
                sys, s0, MacroMethod(kind, 0.05), 10.0, observer=observer
            )
            drifts[(kind, eps)] = diagnostics.action_drift(traj.records)
    return drifts


@pytest.fixture(scope="module")
def sweep_reference():
    """Constrained reference for the sweep's epsilon over [0, 10]."""
    sys = make_double_pendulum(EPS_SWEEP)
    s0 = benchmark_initial_state(EPS_SWEEP)
    return effective.effective_reference(sys, s0.x, s0.y, 1e-3, 10.0)


@pytest.fixture(scope="module")
def fine_flow():
    """Per epsilon: effective-reference error of the exact flow and the
    exact flow's own action drift, over [0, 10]."""
    data = {}
    for eps in (1e-2, 5e-3):
        sys = make_double_pendulum(eps)
        s0 = benchmark_initial_state(eps)
        observer = diagnostics.make_observer(sys)
        ref = effective.effective_reference(sys, s0.x, s0.y, 1e-3, 10.0)
        h_micro = eps / 100
        nsteps = int(round(10.0 / h_micro))
        micro = integrators.integrate_micro(
            sys, s0, h_micro, nsteps,
            sample_stride=max(1, nsteps // 1000), observer=observer,
        )
        metrics = diagnostics.error_metrics(micro, ref, sys)
        data[eps] = {
            "err_x": metrics.max_err_x,
            "err_py": metrics.max_err_py,
            "action_drift": diagnostics.action_drift(micro.records),
        }
    return data


class TestCriterion1SecondOrderConvergence:
    def test_mollified_and_projected(self, sweep):
        rows = sweep["rows"]
        fit_hs = H_GRID[:4]
        slopes = {}
        for kind in ("mollified", "projected"):
            slopes[(kind, "x")] = lsq_slope(fit_hs, [rows[(kind, h)].max_err_x for h in fit_hs])
            slopes[(kind, "Py")] = lsq_slope(fit_hs, [rows[(kind, h)].max_err_py for h in fit_hs])
        floor = max(
            max(rows[(kind, h)].max_err_x for h in H_GRID[-3:])
            for kind in ("mollified", "projected")
        )
        slope_ok = all(1.6 <= s <= 2.4 for s in slopes.values())
        floor_ok = floor <= 10.0 * EPS_SWEEP
        detail = ", ".join(f"{k[0]}/{k[1]}={v:.2f}" for k, v in slopes.items())
        report(
            f"[1] second-order convergence: {'PASS' if slope_ok and floor_ok else 'FAIL'} "
            f"(slopes {detail}; floor {floor:.2e} vs {10 * EPS_SWEEP:.0e})"
        )
        assert floor_ok, f"error floor {floor:.3e} above 10*eps"
        assert slope_ok, (
            f"fitted slopes over the four largest stepsizes: {detail}, "
            f"required [1.6, 2.4]"
        )


class TestCriterion2ImpulseFailure:
    def test_impulse_slope_or_monotonicity_and_error_margin(self, sweep):
        rows = sweep["rows"]
        errs_all = [rows[("impulse", h)].max_err_x for h in H_GRID]
        slope = lsq_slope(H_GRID[:4], errs_all[:4])
        non_monotone = any(a < b for a, b in zip(errs_all, errs_all[1:]))
        h5 = 2.0 ** -5
        margin = rows[("impulse", h5)].max_err_x / rows[("projected", h5)].max_err_x
        ok = (slope < 1.5 or non_monotone) and margin >= 5.0
        report(
            f"[2] impulse failure: {'PASS' if ok else 'FAIL'} "
            f"(slope {slope:.2f}, non-monotone {non_monotone}, margin at h=2^-5 {margin:.1f}x)"
        )
        assert slope < 1.5 or non_monotone
        assert margin >= 5.0


class TestCriterion3ActionNearPreservation:
    def test_scaling_and_contrast(self, action_study):
        d = action_study
        ratios = {k: d[(k, 1e-2)] / d[(k, 5e-3)] for k in ("mollified", "projected")}
        scaling_ok = all(1.5 <= r <= 3.0 for r in ratios.values())
        # the impulse method's pumping is resonance-dependent in (h, eps):
        # the >= 10x contrast must show up within the studied pairs
        contrast = max(d[("impulse", eps)] / d[("projected", eps)] for eps in (1e-2, 5e-3))
        contrast_ok = contrast >= 10.0
        within = all(
            d[("mollified", eps)] <= 3.0 * d[("projected", eps)] for eps in (1e-2, 5e-3)
        )
        ok = scaling_ok and contrast_ok and within
        report(
            f"[3] action near-preservation: {'PASS' if ok else 'FAIL'} "
            f"(ratios mollified {ratios['mollified']:.2f} projected {ratios['projected']:.2f}, "
            f"impulse contrast {contrast:.0f}x, mollified within 3x: {within})"
        )
        assert scaling_ok, f"drift ratios outside [1.5, 3]: {ratios}"
        assert contrast_ok, f"impulse/projected contrast {contrast:.2f} below 10"
        assert within

    def test_impulse_drift_not_order_epsilon(self, action_study):
        # the good methods shrink the drift with epsilon; the impulse
        # method does not (here it grows violently)
        d = action_study
        ratio = d[("impulse", 1e-2)] / d[("impulse", 5e-3)]
        assert not 1.5 <= ratio <= 3.0


class TestCriterion4EffectiveDynamicsAccuracy:
    def test_epsilon_halving(self, fine_flow):
        rx = fine_flow[1e-2]["err_x"] / fine_flow[5e-3]["err_x"]
        rp = fine_flow[1e-2]["err_py"] / fine_flow[5e-3]["err_py"]
        ok = 1.5 <= rx <= 3.0 and 1.5 <= rp <= 3.0
        report(
            f"[4] effective-dynamics accuracy: {'PASS' if ok else 'FAIL'} "
            f"(halving ratios x {rx:.2f}, projected momenta {rp:.2f})"
        )
        assert 1.5 <= rx <= 3.0
        assert 1.5 <= rp <= 3.0


class TestCriterion5ExactFlowAdiabaticInvariance:
    def test_epsilon_halving(self, fine_flow):
        ratio = fine_flow[1e-2]["action_drift"] / fine_flow[5e-3]["action_drift"]
        ok = 1.5 <= ratio <= 3.0
        report(
            f"[5] exact-flow adiabatic invariance: {'PASS' if ok else 'FAIL'} "
            f"(drift halving ratio {ratio:.2f})"
        )
        assert 1.5 <= ratio <= 3.0


class TestCriterion6GeometryIdentities:
    def test_identities_and_jacobian_scaling(self):
        worst = {"idem": 0.0, "annihilate": 0.0, "onto": 0.0}
        sups = {}
        for eps in (1e-2, 5e-3):
            sys_eps = make_double_pendulum(eps)
            sup = 0.0
            for state in sample_states(sys_eps, 100, seed=991):
                moll = project_to_manifold(sys_eps, state.x, want_jacobian=True)
                proj = momentum_projector(sys_eps, state.x)
                sup = max(sup, float(np.max(np.abs(moll.jacobian_t - proj))))
                if eps == 1e-2:
                    worst["idem"] = max(worst["idem"], float(np.max(np.abs(proj @ proj - proj))))
                    jac = sys_eps.constraint_jacobian(state.x)
                    worst["annihilate"] = max(worst["annihilate"], float(np.max(np.abs(jac @ proj))))
                    worst["onto"] = max(
                        worst["onto"], float(np.max(np.abs(sys_eps.constraint(moll.position))))
                    )
            sups[eps] = sup
        ratio = sups[1e-2] / sups[5e-3]
        ok = max(worst.values()) <= 1e-10 and 1.5 <= ratio <= 3.0
        report(
            f"[6] geometry identities: {'PASS' if ok else 'FAIL'} "
            f"(worst identity residual {max(worst.values()):.2e}, jacobian scaling {ratio:.2f})"
        )
        assert worst["idem"] <= 1e-10
        assert worst["annihilate"] <= 1e-10
        assert worst["onto"] <= 1e-10
        assert 1.5 <= ratio <= 3.0


class TestCriterion7KernelOracles:
    def test_frequency_pair_and_factorizations(self):
        sys = make_double_pendulum(1e-2)
        s = math.sqrt(0.5)
        x = np.array([s, -s, math.sqrt(2.0), 0.0])
        pairs = smallmat.gen_eig(sys.hess_stiff(x), np.eye(sys.n))
        omegas = np.sqrt(pairs.values[2:])
        freq_err = float(np.max(np.abs(omegas - [1.0, math.sqrt(2.0)])))

        rng = np.random.default_rng(992)
        chol_err = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 17))
            a = random_spd(rng, n)
            lower = smallmat.cholesky(a)
            chol_err = max(
                chol_err, float(np.max(np.abs(lower @ lower.T - a)) / np.max(np.abs(a)))
            )
        eig_err = 0.0
        for _ in range(100):
            m2 = smallmat.symmetrize(rng.standard_normal((2, 2)))
            tr = 0.5 * (m2[0, 0] + m2[1, 1])
            rad = math.sqrt((0.5 * (m2[0, 0] - m2[1, 1])) ** 2 + m2[0, 1] ** 2)
            eig_err = max(
                eig_err,
                float(np.max(np.abs(smallmat.sym_eig(m2).values - [tr - rad, tr + rad]))),
            )
        orth_err = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = smallmat.symmetrize(rng.standard_normal((n, n)))
            b = random_spd(rng, n)
            vecs = smallmat.gen_eig(a, b).vectors
            orth_err = max(orth_err, float(np.max(np.abs(vecs.T @ b @ vecs - np.eye(n)))))

        ok = freq_err <= 1e-10 and chol_err <= 1e-12 and eig_err <= 1e-12 and orth_err <= 1e-10
        report(
            f"[7] kernel oracles: {'PASS' if ok else 'FAIL'} "
            f"(frequency pair {freq_err:.2e}, cholesky {chol_err:.2e}, "
            f"2x2 eig {eig_err:.2e}, orthonormality {orth_err:.2e})"
        )
        assert freq_err <= 1e-10
        assert chol_err <= 1e-12
        assert eig_err <= 1e-12
        assert orth_err <= 1e-10


class TestCriterion8Reversibility:
    def test_palindromic_runs(self):
        eps = 1e-2
        sys = make_double_pendulum(eps)
        s0 = benchmark_initial_state(eps)
        errs = {}
        for kind in ("projected", "mollified"):
            method = MacroMethod(kind, 0.01)
            state = s0.copy()
            for _ in range(100):
                state = integrators.macro_step(sys, state, method)
            state = integrators.State(state.x, -state.y, 0.0)
            for _ in range(100):
                state = integrators.macro_step(sys, state, method)
            errs[kind] = max(
                float(np.max(np.abs(state.x - s0.x))),
                float(np.max(np.abs(-state.y - s0.y))),
            )
        ok = all(e <= 1e-8 for e in errs.values())
        report(
            f"[8] reversibility: {'PASS' if ok else 'FAIL'} "
            f"(projected {errs['projected']:.2e}, mollified {errs['mollified']:.2e})"
        )
        assert errs["projected"] <= 1e-8
        assert errs["mollified"] <= 1e-8


class TestCriterion9Determinism:
    def test_full_sweep_rerun_byte_identical(self, sweep, tmp_path):
        cfg = sweep["cfg"]
        rerun_out = tmp_path / "rerun.csv"
        cfg2 = SweepConfig(
            epsilon=cfg.epsilon,
            stepsizes=list(cfg.stepsizes),
            t_end=cfg.t_end,
            out=str(rerun_out),
        )
        harness.run_convergence_sweep(cfg2)
        identical = rerun_out.read_bytes() == sweep["bytes"]
        report(f"[9] determinism: {'PASS' if identical else 'FAIL'} (full-sweep rerun bytes)")
        assert identical


class TestSupplementaryConvergenceEvidence:
    """Companion evidence for the second-order claim of criterion 1.

    At eps = 1e-3 the methods sit ~2e-3 from the constrained reference
    for every stepsize (that distance is the intrinsic gap between the
    oscillatory flow and the effective model, reproduced by criterion 4's
    scaling).  The h^2 term therefore dominates only for stepsizes above
    the sweep grid; there the fitted slope does land in [1.6, 2.4].
    """

    def test_slope_in_step_dominated_range(self, sweep_reference):
        eps = EPS_SWEEP
        sys = make_double_pendulum(eps)
        s0 = benchmark_initial_state(eps)
        ref = sweep_reference
        hs = [1.0, 0.5, 0.25, 0.125]
        slopes = {}
        for kind in ("mollified", "projected"):
            ex, ep = [], []
            for h in hs:
                traj = integrators.integrate(sys, s0, MacroMethod(kind, h), 10.0)
                metrics = diagnostics.error_metrics(traj, ref, sys)
                ex.append(metrics.max_err_x)
                ep.append(metrics.max_err_py)
            slopes[(kind, "x")] = lsq_slope(hs, ex)
            slopes[(kind, "Py")] = lsq_slope(hs, ep)
        detail = ", ".join(f"{k[0]}/{k[1]}={v:.2f}" for k, v in slopes.items())
        ok = all(1.6 <= s <= 2.4 for s in slopes.values())
        report(f"[supplementary] slope in step-dominated range: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, detail

    def test_floor_equals_model_distance(self, sweep, sweep_reference):
        # the plateau of the good methods matches the distance between
        # the exact flow and the constrained reference at the same eps
        rows = sweep["rows"]
        plateau = np.median([rows[("mollified", h)].max_err_x for h in H_GRID[-3:]])
        eps = EPS_SWEEP
        sys = make_double_pendulum(eps)
        s0 = benchmark_initial_state(eps)
        ref = sweep_reference
        h_micro = eps / 100
        nsteps = int(round(10.0 / h_micro))
        micro = integrators.integrate_micro(
            sys, s0, h_micro, nsteps, sample_stride=max(1, nsteps // 1000)
        )
        model_distance = diagnostics.error_metrics(micro, ref, sys).max_err_x
        report(
            f"[supplementary] plateau {plateau:.2e} vs exact-flow/reference distance "
            f"{model_distance:.2e}"
        )
        assert plateau == pytest.approx(model_distance, rel=0.25)
