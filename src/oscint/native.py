"""The C kernel of the two-spring chain's micro steps, built on first use.

_flow.c ships with the package.  It evaluates the same IEEE 754
expressions as the Python code, so the library does not depend on the
interpreter.  The first two-spring stiff_flow call compiles it with the
C compiler (CC, else cc) into the cache directory (XDG_CACHE_HOME/oscint,
else ~/.cache/oscint) under a name keyed on the source, the flags and
the compiler, and loads it with ctypes; later processes load the cached
library.  A library is written under a temporary name and moved into
place, so processes building at once each load a complete one.  When
the cache cannot be written the library goes to a temporary directory
of this process.

Each process tries once.  When no library can be built or loaded,
pair_flow returns None, status() says why, and the chain runs the
generic numpy loop, which gives the same bits more slowly.  Nothing is
built or loaded at import.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import struct
import tempfile
import zlib
from importlib import resources

FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120

# oscint_pair_flow's argument: x, y, (a1, a2, l1, l2, kick, half, h_micro)
# and the shortest admissible spring, packed by PAIR_ARGS
PairState = ctypes.c_double * 16
PAIR_ARGS = struct.Struct("16d")

_loaded = None  # (library or None, status) once this process has tried


def cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "oscint")


def compiler() -> list:
    """The C compiler command: CC split on whitespace, else cc."""
    return os.environ.get("CC", "").split() or ["cc"]


def library():
    """The kernel library, or None; built or loaded on the process's
    first call."""
    global _loaded
    if _loaded is None:
        _loaded = _load()
    return _loaded[0]


def pair_flow():
    """oscint_pair_flow(PairState, nsteps), or None without a kernel.  It
    returns -1, or the index of a collapsed spring with its length in
    state[8]."""
    lib = library()
    return None if lib is None else lib.oscint_pair_flow


def status() -> str:
    """Which stiff_flow path the two-spring chain runs, and why."""
    library()
    return _loaded[1]


class BuildError(Exception):
    """The kernel did not compile."""


def _load():
    command = compiler()
    exe = shutil.which(command[0])
    if exe is None:
        return None, f"generic numpy loop: no C compiler {command[0]!r} found"
    source = resources.files(__package__).joinpath("_flow.c").read_bytes()
    stat = os.stat(exe)  # the compiler binary stands for its version and target
    # zlib, not hashlib: its OpenSSL would add about 3 MB to the resident set
    key = repr((source, FLAGS, command, exe, stat.st_size, stat.st_mtime_ns)).encode()
    name = f"flow-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
    path = os.path.join(cache_dir(), name)
    try:
        if not os.path.exists(path):
            path = _build(source, command, name)
        lib = ctypes.CDLL(path)
    except BuildError as err:
        return None, f"generic numpy loop: {err}"
    except OSError as err:
        return None, f"generic numpy loop: no kernel library: {err}"
    lib.oscint_pair_flow.argtypes = (PairState, ctypes.c_long)
    lib.oscint_pair_flow.restype = ctypes.c_int
    return lib, f"native kernel {path}"


def _build(source, command, name):
    """Compile into the cache and return the library's path there; when
    the cache cannot be written, into a temporary directory of this
    process."""
    import subprocess  # only for a build: loading a cached kernel needs none

    try:
        os.makedirs(cache_dir(), exist_ok=True)
        work = tempfile.mkdtemp(dir=cache_dir())
        target = os.path.join(cache_dir(), name)
    except OSError:
        work = tempfile.mkdtemp(prefix="oscint-")
        atexit.register(shutil.rmtree, work, True)
        target = None
    src = os.path.join(work, "_flow.c")
    out = os.path.join(work, name)
    try:
        with open(src, "wb") as f:
            f.write(source)
        try:
            subprocess.run(
                [*command, *FLAGS, "-o", out, src, "-lm"],
                check=True, capture_output=True, timeout=BUILD_TIMEOUT_S,
            )
        except subprocess.CalledProcessError as err:
            lines = err.stderr.decode(errors="replace").strip().splitlines()
            raise BuildError(f"compiling _flow.c failed: {lines[-1] if lines else err}") from None
        except subprocess.TimeoutExpired:
            raise BuildError(f"compiling _flow.c took over {BUILD_TIMEOUT_S} s") from None
        if target is None:
            return out
        os.replace(out, target)
        return target
    finally:
        if target is not None:
            shutil.rmtree(work, ignore_errors=True)
