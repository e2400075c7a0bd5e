"""The four workloads, each with the outputs it pins.

A workload's execute() makes the calls into distcrit and nothing else, so
the caller can time it; check() then judges the outputs and returns one
reason per failed operation.  An exception inside distcrit is a failed
operation, never a crash of the benchmark.

Pinned values: connected classes per order are OEIS A001349; critical
classes are the paper's census; the lemma `checked` counts are those of
the seed commit, where all 14 lemmas pass.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field

import stream

CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117,
             9: 261080}
CRITICAL = {7: 4, 9: 168}
LEMMA_CHECKED = {
    8: {"GIRTH": 9, "CYCLE5": 21, "NO_DOM": 21, "EDGE_ADD": 5, "DEG3": 11,
        "S_SIZE": 21, "DPSTAR": 510, "ANTICHAIN": 21, "MIN_EDGES": 25,
        "MAX_DEG": 20, "REG_BOUND": 10, "NONEDGE_S": 8, "T_CLIQUE": 8,
        "MAXL_CONN": 21},
    6: {"GIRTH": 2, "CYCLE5": 2, "NO_DOM": 2, "EDGE_ADD": 0, "DEG3": 0,
        "S_SIZE": 2, "DPSTAR": 33, "ANTICHAIN": 2, "MIN_EDGES": 4,
        "MAX_DEG": 1, "REG_BOUND": 4, "NONEDGE_S": 2, "T_CLIQUE": 2,
        "MAXL_CONN": 2},
}


@dataclass
class Pass:
    """What one pass produced: each item's (start, seconds) on the
    perf_counter clock, and the raw results, one per call."""

    items: list[tuple[float, float]] = field(default_factory=list)
    results: list = field(default_factory=list)


def _timed(fn, *args):
    """(result or the exception, (start, seconds))."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a failure of the program under test
        out = exc
    return out, (t0, time.perf_counter() - t0)


class Census:
    """run_enumeration(n, jobs=jobs); one item per pass."""

    def __init__(self, n: int, jobs: int, nominal_s: float):
        self.n, self.jobs, self.nominal_s = n, jobs, nominal_s

    def execute(self, distcrit, tracer=None) -> Pass:
        out, span = _timed(lambda: distcrit.run_enumeration(self.n, jobs=self.jobs))
        return Pass([span], [out])

    def attempted(self, p: Pass) -> int:
        return len(p.results)

    def check(self, p: Pass) -> list[str]:
        bad = []
        for out in p.results:
            if isinstance(out, Exception):
                bad.append(f"census raised {out!r}")
                continue
            tally = out[0]
            got = (tally.connected_count, tally.critical_count)
            want = (CONNECTED[self.n], CRITICAL[self.n])
            if got != want:
                bad.append(f"census n={self.n}: {got}, expected {want}")
        return bad

    def extra(self, p: Pass) -> dict:
        return {}


class Lemmas:
    """run_all_lemmas(cap); one item per pass, 14 operations per item."""

    jobs = 1

    def __init__(self, cap: int, nominal_s: float):
        self.cap, self.nominal_s = cap, nominal_s

    def execute(self, distcrit, tracer=None) -> Pass:
        out, span = _timed(distcrit.run_all_lemmas, self.cap)
        return Pass([span], [out])

    def attempted(self, p: Pass) -> int:
        return len(LEMMA_CHECKED[self.cap]) * len(p.results)

    def check(self, p: Pass) -> list[str]:
        want = LEMMA_CHECKED[self.cap]
        bad = []
        for out in p.results:
            if isinstance(out, Exception):
                bad += [f"lemma sweep raised {out!r}"] * len(want)
                continue
            got = {c.id: c for c in out}
            for lid, checked in want.items():
                c = got.get(lid)
                if c is None or not c.ok or c.checked != checked:
                    bad.append(f"lemma {lid}: "
                               f"{c and (c.ok, c.checked)}, expected "
                               f"(True, {checked})")
        return bad

    def extra(self, p: Pass) -> dict:
        times = {c.id: c.elapsed for out in p.results
                 if not isinstance(out, Exception) for c in out}
        checked = sum(c.checked for out in p.results
                      if not isinstance(out, Exception) for c in out)
        return {
            "verify.lemma.GIRTH.s": times.get("GIRTH", 0.0),
            "verify.lemma.CYCLE5.s": times.get("CYCLE5", 0.0),
            "verify.lemma.rest.s": sum(t for lid, t in times.items()
                                       if lid not in ("GIRTH", "CYCLE5")),
            "verify.checked": checked,
            "verify.universe": sum(CONNECTED[k] for k in range(1, self.cap + 1)),
        }


class GraphStream:
    """Seeded graph6 items fed one at a time to the CLI, in process."""

    jobs = 1

    def __init__(self, seed: int, tiny: bool, nominal_s: float):
        self.items = stream.make_items(seed, tiny)
        self.nominal_s = nominal_s

    def execute(self, distcrit, tracer=None) -> Pass:
        run = distcrit.cli.run
        if tracer is not None:
            run = tracer.wrap("cli", run)
        p = Pass()
        for item in self.items:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code, span = _timed(run, item["argv"])
            p.items.append(span)
            p.results.append((code, buf.getvalue()))
        return p

    def attempted(self, p: Pass) -> int:
        return len(p.results)

    def check(self, p: Pass) -> list[str]:
        bad = []
        for item, (code, out) in zip(self.items, p.results):
            if isinstance(code, Exception):
                why = f"raised {code!r}"
            else:
                try:
                    why = stream.judge(item, code, out)
                except (ValueError, KeyError, IndexError) as exc:
                    why = f"unreadable output ({exc!r})"
            if why is not None:
                bad.append(f"{' '.join(item['argv'][:3])}: {why}")
        return bad

    def extra(self, p: Pass) -> dict:
        return {}


NAMES = ("census9", "census9-jobs2", "lemmas8", "graph-stream")


def make(name: str, seed: int, tiny: bool):
    """The workload called name; tiny shrinks it for the self-tests.
    nominal_s is the seconds one full-size pass takes at the seed commit
    on a 2-core x86 box, used to turn --seconds into a fixed pass count."""
    if name == "census9":
        return Census(7 if tiny else 9, 1, 35.0)
    if name == "census9-jobs2":
        return Census(7 if tiny else 9, 2, 20.0)
    if name == "lemmas8":
        return Lemmas(6 if tiny else 8, 3.5)
    if name == "graph-stream":
        return GraphStream(seed, tiny, 2.6)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
