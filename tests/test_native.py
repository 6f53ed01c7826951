"""The native two-spring micro step: its hypot port, its fallback, its
cache and its packaging."""

import math
import os
import shutil
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from oscint import native
from oscint.harness import random_bounded_energy_states
from oscint.model import OscillatorySystem, make_double_pendulum

HAS_COMPILER = shutil.which(native.compiler()[0]) is not None
needs_compiler = pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler found")


def bits(v):
    return struct.pack("<d", v)


def same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or bits(a) == bits(b)


def flows_match(chain, cases):
    for state, nsteps in cases:
        h_micro = chain.epsilon / 50
        got = chain.stiff_flow(state.x, state.y, h_micro, nsteps)
        want = OscillatorySystem.stiff_flow(chain, state.x, state.y, h_micro, nsteps)
        if not (np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])):
            return False
    return True


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """native as in a new process, with its cache under tmp_path; the
    process's own kernel comes back after the test."""
    monkeypatch.setattr(native, "_loaded", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "oscint"


@needs_compiler
class TestHypotPort:
    def norm(self):
        lib = native.library()
        assert lib is not None, native.status()
        return lib.oscint_hypot

    def test_random_pairs_across_binades(self):
        norm = self.norm()
        rng = np.random.default_rng(901)
        n = 20_000
        exps = rng.integers(-1074, 1024, size=(n, 2))
        mant = rng.uniform(0.5, 1.0, size=(n, 2)) * rng.choice([-1.0, 1.0], size=(n, 2))
        with np.errstate(over="ignore"):
            pairs = np.ldexp(mant, exps).tolist()
        # near-equal magnitudes and the spring scale, where roundings tie most
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        r = 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, n)
        pairs += np.column_stack((r * np.cos(theta), r * np.sin(theta))).tolist()
        bad = [(a, b) for a, b in pairs if bits(norm(a, b)) != bits(math.hypot(a, b))]
        assert bad == []

    def test_special_values(self):
        norm = self.norm()
        tiny = 5e-324
        values = [
            0.0, -0.0, tiny, -tiny, 3 * tiny, 2.2250738585072014e-308, 2.225073858507201e-308,
            1e-310, 1e-300, 1.0, -1.0, 1e308, -1e308, 1.7976931348623157e308, 8.98846567431158e307,
            math.inf, -math.inf, math.nan,
        ]
        for a in values:
            for b in values:
                assert same_float(norm(a, b), math.hypot(a, b)), (a, b)


class TestFallback:
    def test_missing_compiler_runs_the_generic_loop(self, fresh, monkeypatch):
        monkeypatch.setenv("CC", "oscint-no-such-compiler")
        calls = []
        load = native._load
        monkeypatch.setattr(native, "_load", lambda: calls.append(1) or load())
        chain = make_double_pendulum(1e-3)
        cases = [(st, n) for st in random_bounded_energy_states(chain, 3, seed=910) for n in (0, 1, 50)]
        assert flows_match(chain, cases)
        assert native.pair_flow() is None
        assert "oscint-no-such-compiler" in native.status()
        assert native.status().startswith("generic numpy loop")
        assert calls == [1]  # one attempt per process, not one per call
        assert not fresh.exists()

    @needs_compiler
    def test_failed_compile_records_the_reason(self, fresh, monkeypatch):
        monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-UPY_MINOR",))
        assert native.pair_flow() is None
        assert "compiling _flow.c failed" in native.status()


@needs_compiler
class TestCache:
    def test_builds_once_then_loads_from_the_cache(self, fresh, monkeypatch):
        assert native.pair_flow() is not None, native.status()
        (library,) = fresh.glob("flow-*.so")
        assert native.status() == f"native kernel {library}"
        assert [p.name for p in fresh.iterdir()] == [library.name]  # no build leftovers

        def no_compiler(*args, **kwargs):
            raise AssertionError("a cached kernel must not be rebuilt")

        monkeypatch.setattr(native, "_loaded", None)
        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert native.pair_flow() is not None, native.status()
        chain = make_double_pendulum(2e-2)
        assert flows_match(chain, [(st, 50) for st in random_bounded_energy_states(chain, 2, seed=911)])

    def test_unwritable_cache_builds_into_a_temporary_directory(self, fresh):
        fresh.parent.mkdir(exist_ok=True)
        fresh.write_text("a file where the cache directory should be")
        assert native.pair_flow() is not None, native.status()
        assert str(fresh) not in native.status()
        chain = make_double_pendulum(1e-3)
        assert flows_match(chain, [(st, 100) for st in random_bounded_energy_states(chain, 2, seed=912)])

    def test_two_processes_building_at_once(self, tmp_path):
        code = (
            "from oscint import native\n"
            "from oscint.harness import random_bounded_energy_states\n"
            "from oscint.model import OscillatorySystem, make_double_pendulum\n"
            "import numpy as np\n"
            "assert native.pair_flow() is not None, native.status()\n"
            "chain = make_double_pendulum(1e-3)\n"
            "st = random_bounded_energy_states(chain, 1, seed=913)[0]\n"
            "got = chain.stiff_flow(st.x, st.y, 1e-5, 100)\n"
            "want = OscillatorySystem.stiff_flow(chain, st.x, st.y, 1e-5, 100)\n"
            "assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])\n"
            "print(native.status())\n"
        )
        src = str(Path(native.__file__).resolve().parents[1])
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        procs = [
            subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300) for p in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
            assert out.startswith(f"native kernel {tmp_path / 'oscint'}"), out
        assert len(list((tmp_path / "oscint").glob("flow-*.so"))) == 1


class TestPackaging:
    def test_source_is_package_data(self):
        source = resources.files("oscint").joinpath("_flow.c").read_text(encoding="utf-8")
        assert "int oscint_pair_flow(double *s, long nsteps)" in source
        assert "double oscint_hypot(double x, double y)" in source
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert "_flow.c" in config["tool"]["setuptools"]["package-data"]["oscint"]
