"""Shared pieces of the benchmark: the layer tracer, the output-check
ledger and the provenance record printed with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# The seed that reproduces the acceptance inputs and therefore the pins.
DEFAULT_SEED = 1

ROOT = Path(__file__).resolve().parents[1]


class Tracer:
    """Seconds and counts per layer metric, accumulated in memory from
    spans placed around calls into the package's public functions."""

    def __init__(self):
        self.values = defaultdict(float)

    @contextmanager
    def time(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.values[name] += time.perf_counter() - t0

    def add(self, name: str, amount: float) -> None:
        self.values[name] += amount


class NullTracer(Tracer):
    """Tracing off: spans cost one no-op context manager each."""

    @contextmanager
    def time(self, name: str):
        yield

    def add(self, name: str, amount: float) -> None:
        pass


class Checks:
    """Ledger of checked operations; each check prints one line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))

    def close(self, name: str, value: float, expected: float, rel: float) -> None:
        ok = abs(value - expected) <= rel * abs(expected)
        self.check(name, ok, f"{value!r} vs pin {expected!r} (rel {rel:g})")

    def equal(self, name: str, value, expected) -> None:
        detail = "" if value == expected else f"{value!r} vs pin {expected!r}"
        self.check(name, value == expected, detail)


def warm_solver(tr) -> None:
    """The first BLAS-backed solve of a process can cost about a second more
    than later ones (seen with two OpenBLAS threads). Traced runs pay it
    here, as signs.solve_first_s, so the layer timings that follow are warm."""
    from circlewarp import build_synthetic_matrix, solve_hierarchical

    v = build_synthetic_matrix(512, "exact_decay")
    with tr.time("signs.solve_first_s"):
        solve_hierarchical(v, 8, 64, 0, 0.5)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None if unknown."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": _blas_threads(),
        "loadavg_start": os.getloadavg(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }
