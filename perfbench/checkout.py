"""Where the benchmark finds the package under test, where it writes, and
the environment it records next to every result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def import_facegroup():
    """Import ``facegroup`` from this checkout's ``src/`` and nowhere else.

    Exits with status 2, printing nothing on stdout, when the checkout has
    no package: an installed copy elsewhere must not be benchmarked by
    mistake.
    """
    sys.path.insert(0, str(SRC))
    try:
        import facegroup
    except ImportError as exc:
        print(f"error: cannot import facegroup from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if Path(facegroup.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: facegroup was imported from {facegroup.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return facegroup


def out_dir(name: str) -> Path:
    path = OUT / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _git_commit() -> str:
    """Commit of the checkout, or "unknown" when it is not a git repository
    (``git`` is not asked about a checkout without ``.git``, which could
    otherwise report the commit of an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _thread_count() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "process_threads": _thread_count(),
        "git_commit": _git_commit(),
    }
