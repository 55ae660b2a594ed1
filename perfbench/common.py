"""Paths, the calibrated clock, environment details and summary
statistics shared by the benchmark's modules."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"


# The calibration loop: fixed pure-Python work (dict updates, integer
# arithmetic) that shares no code with tensorquire.  The machine's speed
# drifts by tens of percent over seconds when other tenants load it, and
# the loop drifts with it, so a rate scaled by the loop's time measured
# around it compares across runs.  The reference speed is the one at
# which the loop takes CAL_REF_S.
CAL_ITERS = 25000
CAL_REF_S = 0.005


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(CAL_ITERS):
        k = i % 1000
        d[k] = d.get(k, 0) + i * 3
    return time.perf_counter() - t0


class ScaledClock:
    """Times calls, and scales each call's time to the reference speed
    by the calibration loop run just before and just after it."""

    def __init__(self) -> None:
        self.cal = calibrate()
        self.cals: list = []

    def time(self, fn, *args, **kwargs):
        """Returns (result, seconds, scaled seconds)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        cal = calibrate()
        self.cals.append(cal)
        scaled = raw * 2 * CAL_REF_S / (self.cal + cal)
        self.cal = cal
        return result, raw, scaled


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package sources)."""


def use_checkout_package() -> None:
    """Import tensorquire from this checkout's ``src`` and nowhere else."""
    if not (SRC / "tensorquire" / "__init__.py").is_file():
        raise SetupError(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tensorquire

    if Path(tensorquire.__file__).resolve().parent != (SRC / "tensorquire").resolve():
        raise SetupError(f"tensorquire imported from {tensorquire.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for child interpreters: the checkout's package first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def environment() -> dict:
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": cpus,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def summarize(samples) -> dict:
    """Median and sample count, plus the highest listed percentile that
    has at least ten samples beyond it (none below forty samples)."""
    vals = sorted(samples)
    out = {"median": statistics.median(vals), "n": len(vals)}
    if len(vals) >= 40:
        for pct in _TAILS:
            if len(vals) * (100.0 - pct) / 100.0 >= 10:
                k = min(len(vals) - 1, int(len(vals) * pct / 100.0))
                out[f"p{pct:g}"] = vals[k]
                break
    return out


def describe(summary: dict) -> str:
    tail = [f"{k}={v:.6g}" for k, v in summary.items() if k.startswith("p")]
    return " ".join([f"median={summary['median']:.6g}", f"n={summary['n']}"] + tail)
