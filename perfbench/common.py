"""Helpers shared by the perfbench workloads: paths, statistics, hygiene.

Nothing here imports the ``repro`` package at module level, so the
benchmark can fail cleanly (non-zero exit, no result line) when it runs
in a directory without the program's sources.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

#: The checkout the benchmark measures: the directory above ``perfbench/``.
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Environment variables that change what is measured from one run to the
#: next: a forced kernel backend, and an on-disk index tier that would let
#: a later run start warm.  Both are removed before anything is imported.
HYGIENE_VARS = ("REPRO_KERNEL_BACKEND", "REPRO_INDEX_CACHE_DIR")


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result (wrong output, dead
    server, missing sources); the runner exits non-zero without a result."""


def use_repo_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises :class:`BenchError` when the checkout has no program sources,
    so the benchmark refuses to measure whatever happens to be installed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for processes the benchmark starts (servers)."""
    env = {k: v for k, v in os.environ.items() if k not in HYGIENE_VARS}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def scrub_environment() -> dict[str, dict]:
    """Unset :data:`HYGIENE_VARS`; return what was inherited and what is used."""
    record = {}
    for name in HYGIENE_VARS:
        inherited = os.environ.pop(name, None)
        record[name] = {"inherited": inherited, "used": None}
    return record


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (0 if none)."""
    if n <= 10:
        return 0.0
    return math.floor(1000.0 * (n - 10) / n) / 10.0


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def _source_identity() -> dict:
    """The git commit when the checkout is a repository, else a digest of
    ``src/`` (an exported checkout carries the files but no ``.git``)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def provenance(workload: str, seed: int, hygiene: dict) -> dict:
    """Host, interpreter and source identity for one run."""
    import numpy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = []
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count() or 1,
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        **_source_identity(),
        "environment": hygiene,
    }
