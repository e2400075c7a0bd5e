"""Machine speed during a run, from a probe thread.

On a shared virtual machine the speed of a core changes with the load of
other tenants.  On the 2-core Xeon box this was tuned on, the probe below
took either about 0.28 ms or about 0.47 ms, switching within seconds, and
raw pass times of one workload varied by 1.6x between runs.  A run cannot
average that away.  So a thread runs a fixed pure-Python probe (partition
refinement and a 2-connectivity test, the benchmark's own code, on one
24-vertex random graph) every INTERVAL seconds while the workload runs.
Of the kernels tried, this one slowed most like the census and stream
workloads in the slow state.  A time is reported at reference speed: the
raw time times the mean of REF_S / probe time over the probes taken while
it ran.  A reference core runs the probe in REF_S, the fast state of that
box, where rescaled and raw times agree.  The raw times are kept in each
run's metadata.

The probe holds the interpreter lock for about 1 ms in every INTERVAL,
so it adds about 1% to every time, on both sides of a comparison alike.
Serial workloads are pinned to one CPU, with one probe thread, so the
probe times the core that does the work.  For a pool, one probe thread
and one worker are pinned to each CPU, and the wall time is rescaled by
the slowest core's probes, since it waits for the last worker.
"""

from __future__ import annotations

import bisect
import os
import random
import threading
import time

import stream

REF_S = 0.00028
INTERVAL = 0.1
WINDOW = 0.5  # an item's latency is rescaled by the probes this close to it
REPEATS = 3
_GRAPH = stream.gnp(random.Random(0), 24, 0.3)


def _refine(adj: list[int]) -> list[int]:
    """Split cells by neighbour counts into every cell until stable."""
    cells = [(1 << len(adj)) - 1]
    while True:
        new = []
        for cell in cells:
            buckets: dict[tuple[int, ...], int] = {}
            for v in stream.bits(cell):
                key = tuple((adj[v] & c).bit_count() for c in cells)
                buckets[key] = buckets.get(key, 0) | 1 << v
            new.extend(buckets[k] for k in sorted(buckets))
        if len(new) == len(cells):
            return cells
        cells = new


def probe() -> float:
    """The least of REPEATS back-to-back runs of the probe kernel, which
    drops runs slowed by cold caches or a preempting task."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _refine(_GRAPH)
        stream.is_two_connected(_GRAPH)
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    """Probe samples (end time, duration, CPU), one thread per CPU the
    process may use, each thread pinned to its CPU.

    Processes forked while the sampler runs (a pool's workers) are pinned
    to the CPUs in turn, so each worker's core is the one a probe thread
    times.  Probes run one at a time, and a fork waits for the probe in
    flight, so no worker is forked from inside one."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, int]] = []
        self._cpus = sorted(os.sched_getaffinity(0))
        self._forks = 0
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,),
                                          daemon=True) for cpu in self._cpus]
        os.register_at_fork(before=self._before_fork,
                            after_in_parent=self._lock.release,
                            after_in_child=self._pin_child)

    def _before_fork(self) -> None:
        self._lock.acquire()
        self._forks += 1

    def _pin_child(self) -> None:
        os.sched_setaffinity(0, {self._cpus[(self._forks - 1) % len(self._cpus)]})

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(INTERVAL):
            with self._lock:
                d = probe()
                self.samples.append((time.perf_counter(), d, cpu))

    def __enter__(self) -> "Sampler":
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()

    def factor(self, t0: float, t1: float, slowest: bool = False) -> float:
        """Mean REF_S / probe time over the probes that ended in [t0, t1],
        or with slowest, the least such mean of any one CPU: a pool's wall
        time waits for the worker on the slowest core.  With no probe there
        (a span shorter than INTERVAL), one probe now."""
        lo = bisect.bisect_left(self.samples, (t0,))
        hi = bisect.bisect_right(self.samples, (t1, float("inf")))
        by_cpu: dict[int, list[float]] = {}
        for _, d, cpu in self.samples[lo:hi]:
            by_cpu.setdefault(cpu, []).append(REF_S / d)
        if not by_cpu:
            with self._lock:
                return REF_S / probe()
        if slowest:
            return min(sum(fs) / len(fs) for fs in by_cpu.values())
        fs = [f for fs in by_cpu.values() for f in fs]
        return sum(fs) / len(fs)


def pin_to_one_cpu() -> None:
    """Keep this thread, and the threads and processes it starts later, on
    the CPU it runs on now."""
    with open("/proc/self/stat") as f:
        cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
