"""Statistics, memory probes and the environment fingerprint."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

__all__ = ["median", "quantile", "tail", "windowed", "reset_peak_rss",
           "peak_rss_mb", "fingerprint", "git_info"]

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))
    return float(ordered[rank])


def tail(values) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    count = len(values)
    for percentile in TAIL_PERCENTILES:
        if count * (1.0 - percentile / 100.0) >= 10:
            return {"percentile": percentile,
                    "value": quantile(values, percentile / 100.0),
                    "samples": count}
    return None


def windowed(values, max_windows: int = 10, min_window: int = 1000) -> dict:
    """Median and tail as the median over contiguous windows of the samples.

    One stall moves the median and tail of the window it falls in, not
    the figure across windows.  Windows hold at least ``min_window``
    samples (a p99 with ten samples beyond it); with fewer samples there
    is one window.
    """
    values = list(values)
    count = max(1, min(max_windows, len(values) // min_window))
    size = len(values) // count
    chunks = [values[index * size:(index + 1) * size]
              for index in range(count - 1)] + [values[(count - 1) * size:]]
    tails = [tail(chunk) for chunk in chunks]
    result = {"p50": median([median(chunk) for chunk in chunks]),
              "p90": median([quantile(chunk, 0.9) for chunk in chunks]),
              "windows": count, "samples": len(values), "tail": None}
    if all(tails):
        percentile = min(entry["percentile"] for entry in tails)
        result["tail"] = {
            "percentile": percentile,
            "value": median([quantile(chunk, percentile / 100.0)
                             for chunk in chunks]),
            "samples_per_window": size}
    return result


def reset_peak_rss() -> bool:
    """Reset the kernel's RSS high-water mark of this process (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """``VmHWM`` of this process in MB (since start or the last reset)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def _blas() -> dict:
    import numpy as np

    info: dict = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, KeyError):
        info["name"] = "unknown"
    info["thread_env"] = {key: os.environ.get(key) for key in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """CPU count and model, BLAS name and thread setting, versions."""
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "cpu_count": cpus,
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
    }


def git_info(root: Path) -> dict:
    """Commit sha and dirty flag of ``root`` when it is itself a work tree."""
    def git(*args) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(root), *args],
                                  capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != root.resolve():
        return {"sha": None, "dirty": None}
    status = git("status", "--porcelain")
    return {"sha": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}
