"""Helpers shared by the workloads: statistics, memory, environment."""

from __future__ import annotations

import json
import os
import platform
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
#: seconds a child process may take from spawn to its readiness line
START_TIMEOUT = 60.0


#: seconds :func:`loop_seconds` takes on the machine the benchmark was
#: defined on (2 vCPUs, CPython 3.11), when that machine was quiet
REFERENCE_LOOP_S = 0.008


def loop_seconds() -> float:
    """One timing of a fixed pure-Python loop."""
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - started


def slowdown() -> float:
    """How much slower than the reference machine this one runs right
    now: 1.0 is the reference, 1.5 means the loop took 50% longer.

    On a shared machine the speed available to a run drifts by tens of
    percent within seconds, and not equally on every CPU.  The workloads
    time their work in short windows, measure the slowdown around each
    window, and report times and rates as they would read at reference
    speed (a duration divided by the slowdown, a rate multiplied by it),
    so that two runs compare the program rather than the neighbours.
    The loop runs once on each CPU this process may use (up to four),
    because the program's other processes run there; the slowdown is the
    mean.
    """
    cpus = sorted(os.sched_getaffinity(0))
    readings = []
    try:
        for cpu in cpus[:4]:
            os.sched_setaffinity(0, {cpu})
            readings.append(loop_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(readings) / len(readings) / REFERENCE_LOOP_S


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` maps a metric name to ``(value, unit, samples)``;
    ``attempted``/``failed`` count operations and the ones whose outcome
    differed from the input's known answer.  ``raw`` keeps the
    un-normalized value of a metric normalized by :func:`slowdown`.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: Callable[[], str]) -> None:
        """Count one operation; record it as failed unless *ok*, with the
        description *what()* (built only for failures)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what())

    def put(self, name: str, value: float, unit: str, samples: int = 1, raw: float | None = None) -> None:
        self.metrics[name] = (float(value), unit, int(samples))
        if raw is not None:
            self.raw[name] = float(raw)


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile (0..100), linearly interpolated."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return percentile(values, 50)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of process *pid*, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for process {pid}")


def calibration_ms() -> float:
    """Median of five timings of the :func:`loop_seconds` loop, in ms."""
    return median([loop_seconds() for _ in range(5)]) * 1000


def environment() -> dict:
    try:
        import numpy  # noqa: F401  (decides table_parse's "auto" lane)

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": has_numpy,
        "calibration_ms": round(calibration_ms(), 3),
    }


def work_dir(root: str) -> str:
    """A fresh scratch directory inside the checkout."""
    base = os.path.join(root, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    parent = os.path.dirname(path)
    try:
        os.rmdir(parent)  # only when no other run is using it
    except OSError:
        pass


def timed_setup(action) -> tuple[float, float, object]:
    """Run *action* once; ``(seconds at reference speed, raw seconds,
    its result)``."""
    before = slowdown()
    started = time.perf_counter()
    result = action()
    elapsed = time.perf_counter() - started
    factor = (before + slowdown()) / 2
    return elapsed / factor, elapsed, result


def spawn_ready(script: str, args: list[str], env: dict | None = None) -> tuple[subprocess.Popen, dict]:
    """Start ``python3 perfbench/<script> <args>`` and wait for the one
    JSON line it prints when it is ready; ``(process, that line)``."""
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *args],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    readable, _, _ = select.select([process.stdout], [], [], START_TIMEOUT)
    line = process.stdout.readline() if readable else ""
    if not line:
        stop(process)
        raise RuntimeError(f"{script} did not become ready")
    return process, json.loads(line)


def stop(process: subprocess.Popen, terminate: bool = True) -> None:
    """Wait for *process* to end, after SIGTERM if *terminate*; safe to
    repeat."""
    if process.poll() is None:
        if terminate:
            process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


def child_setups(workload: str, root: str, scratch: str, repeats: int) -> tuple[list[float], list[float], list[dict]]:
    """Set *workload* up *repeats* times, each in a fresh interpreter
    (``setup_main.py``) from an empty cache directory, so imports and
    every process-level memo are paid each time.  Each set-up is timed
    from spawn to the child's readiness line.  Returns the times at
    reference speed, the raw times, and each child's phase timings."""
    setups, raws, infos = [], [], []
    for repeat in range(repeats):
        cache_dir = os.path.join(scratch, f"cache-{repeat}")
        setup, raw, (process, info) = timed_setup(
            lambda: spawn_ready("setup_main.py", [workload, root, cache_dir])
        )
        stop(process, terminate=False)
        if process.returncode != 0:
            raise RuntimeError(f"{workload} set-up exited with {process.returncode}")
        setups.append(setup)
        raws.append(raw)
        infos.append(info)
    return setups, raws, infos


def slowdowns(windows: list[tuple]) -> list[float]:
    """Each window's slowdown, smoothed over its neighbours.

    Windows are ``(operations, bytes, seconds, slowdown before, slowdown
    after, latencies)``.  One reading of the calibration loop is itself
    noisy, while the machine's speed drifts over seconds, so a window
    takes the median of the readings of the windows around it.
    """
    readings = [w[3] for w in windows] + [windows[-1][4]]
    return [median(readings[max(0, i - 2) : i + 4]) for i in range(len(windows))]


def window_rate(windows: list[tuple]) -> float:
    """Median operations per second at reference speed over windows."""
    return median([w[0] / w[2] * factor for w, factor in zip(windows, slowdowns(windows))])


def put_rates(outcome: Outcome, windows: list[tuple]) -> None:
    """``ops_per_s`` and ``mb_per_s``: the median over *windows*, each at
    reference speed (raw totals kept alongside)."""
    count = sum(w[0] for w in windows)
    busy = sum(w[2] for w in windows)
    factors = slowdowns(windows)
    outcome.put("ops_per_s", window_rate(windows), "1/s", count, count / busy)
    outcome.put(
        "mb_per_s",
        median([w[1] / w[2] * factor / 1e6 for w, factor in zip(windows, factors)]),
        "MB/s",
        count,
        sum(w[1] for w in windows) / busy / 1e6,
    )


def put_latencies(outcome: Outcome, windows: list[tuple], per_window: bool = False) -> None:
    """``p50_ms`` and ``p99_ms`` of the windows' latencies, each divided
    by its window's slowdown: over all samples, or with *per_window* the
    median of the windows' own percentiles (for a workload whose windows
    each hold enough samples, so one disturbed window cannot move it)."""
    factors = slowdowns(windows)
    raw = [t for w in windows for t in w[5]]
    for name, q in (("p50_ms", 50), ("p99_ms", 99)):
        if per_window:
            value = median([percentile(w[5], q) / factor for w, factor in zip(windows, factors)])
        else:
            value = percentile([t / factor for w, factor in zip(windows, factors) for t in w[5]], q)
        outcome.put(name, value * 1000, "ms", len(raw), percentile(raw, q) * 1000)
