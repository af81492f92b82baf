"""Helpers shared by ``run.py`` and the system processes it launches."""

from __future__ import annotations

import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import numpy as np

#: The benchmark's own directory and the checkout root it runs from.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Zipf law of every workload: Zipf(1.2) over n = 4096 items.
ZIPF_N = 4096
ZIPF_SKEW = 1.2


def zipf_items(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Zipf(1.2) draws over ``range(ZIPF_N)`` as ``int64``."""
    weights = np.arange(1, ZIPF_N + 1, dtype=np.float64) ** (-ZIPF_SKEW)
    weights /= weights.sum()
    return rng.choice(ZIPF_N, size=count, p=weights).astype(np.int64)


#: The calibration kernel's keys, and the kernel's best-of-3 time on the
#: reference machine (a 2-CPU container, Python 3.11).
_CALIBRATION_KEYS = list(range(0, 140_000, 7))
REFERENCE_S = 0.0025


def calibrate(cpu: int | None = None) -> float:
    """Seconds a fixed dict-and-loop kernel takes right now (best of 3),
    on CPU ``cpu`` if given (this process hops there and back).

    The machines this runs on share their cores, and their speed drifts
    by tens of percent within seconds.  Interpreter-bound work, which is
    most of this program, slows and speeds with this kernel, so timings
    scaled by it are steady where raw ones are not.
    """
    home = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        best = float("inf")
        for _ in range(3):
            began = time.perf_counter()
            table: dict[int, int] = {}
            for key in _CALIBRATION_KEYS:
                table[key] = table.get(key ^ 5, 0) + 1
            best = min(best, time.perf_counter() - began)
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, home)
    return best


class Clock:
    """Scale factors from measured to reference-machine seconds.

    Each :meth:`factor` call closes a segment of measured work: the
    kernel is timed again, and the segment's factor is the reference
    time over the mean of the two calibrations that bracket it.
    """

    def __init__(self, cpu: int | None = None) -> None:
        self.cpu = cpu
        self.spent_s = 0.0
        self.last = self._calibrate()

    def _calibrate(self) -> float:
        began = time.perf_counter()
        taken = calibrate(self.cpu)
        self.spent_s += time.perf_counter() - began
        return taken

    def factor(self) -> float:
        now = self._calibrate()
        scale = REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
        return scale


class Segments:
    """Measured time cut into short segments, each scaled by its own
    :class:`Clock` factor.

    :meth:`begin` opens a segment; :meth:`add` files a raw sample
    (seconds or milliseconds) under a key; :meth:`cut` closes the
    segment -- the calibration it runs is not part of any segment -- and
    files every pending sample scaled.  :meth:`cut_if_due` cuts once a
    segment has run ``every_s``, so a burst of machine slowness inside a
    long run is scaled by the calibrations around it.
    """

    def __init__(self, every_s: float = 0.1, cpu: int | None = None) -> None:
        self.clock = Clock(cpu)
        self.every_s = every_s
        self.samples: dict[str, list[float]] = {}
        self.pending: list[tuple[str, float]] = []
        self.scaled_s = 0.0  # scaled seconds inside closed segments
        self.raw_s = 0.0
        self.began = time.perf_counter()

    def begin(self) -> None:
        self.began = time.perf_counter()

    def add(self, key: str, value: float) -> None:
        self.pending.append((key, value))

    def cut(self) -> None:
        elapsed = time.perf_counter() - self.began
        scale = self.clock.factor()
        self.raw_s += elapsed
        self.scaled_s += elapsed * scale
        for key, value in self.pending:
            self.samples.setdefault(key, []).append(value * scale)
        self.pending.clear()
        self.began = time.perf_counter()

    def cut_if_due(self) -> None:
        if time.perf_counter() - self.began >= self.every_s:
            self.cut()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def system_env() -> dict:
    """Environment of a system process: the checkout's ``src`` first."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = done.stdout.strip()
    return commit if done.returncode == 0 and commit else "unknown"


def stamp(seed: int) -> dict:
    """Provenance of one result: commit, versions, CPUs, seed."""
    sys.path.insert(0, SRC)
    try:
        from repro.runtime.parallel import available_cpus
    finally:
        sys.path.remove(SRC)
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "available_cpus": available_cpus(),
        "seed": seed,
    }


class System:
    """One system process, spoken to over line-oriented stdout.

    Reads are bounded by a deadline (a hung child fails the run instead
    of hanging it), and :meth:`finish` reaps the child with ``wait4`` so
    its peak RSS is known.
    """

    def __init__(
        self, argv: list[str], deadline_s: float, cpu: int | None = None
    ) -> None:
        self.started = time.perf_counter()
        self.deadline = self.started + deadline_s
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=system_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self._buffer = b""
        self.peak_rss_mb = 0.0

    def readline(self) -> str:
        """Next stdout line; raises ``RuntimeError`` at EOF or deadline."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = self.deadline - time.perf_counter()
            if left <= 0:
                raise RuntimeError("system process timed out")
            ready, _, _ = select.select([fd], [], [], min(left, 1.0))
            if not ready:
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                raise RuntimeError(
                    "system process exited early "
                    f"(after {self._buffer[-200:]!r})"
                )
            self._buffer += data
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8")

    def finish(self, timeout_s: float = 30.0) -> int:
        """Wait for exit (killing after ``timeout_s``); returns the exit
        code and records the child's peak RSS."""
        pid = self.proc.pid
        limit = time.perf_counter() + timeout_s
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.perf_counter() > limit:
                self.proc.kill()
                done, status, usage = os.wait4(pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        # Linux reports ru_maxrss in KiB.
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.finish()
