"""Per-layer tracing from outside the package.

The layers are distcrit's modules.  A call crosses a layer boundary when a
module calls a name it imported from another module, so the tracer swaps
those names, in the importing module's namespace, for wrappers that add
up time and calls.  The enumeration engine's own stages (_child_states,
_subset_reps) are wrapped too, because they are the steps a change to the
engine moves.  Nothing under src/ is edited and no profiler is used.

Hot inner calls are only summed: each wrapper adds its duration to its
record and to its caller's child time, which gives self time without
keeping spans.  Whole calls into the package (one census, one lemma sweep,
one CLI invocation) are the only spans, one per item.

Records are lists, indexed by the constants below, to keep the wrappers
cheap: a census at n = 9 makes about two million wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import multiprocessing
import time

S, SELF, CALLS, HITS, ITEMS = range(5)

# Enumeration names: (attribute, record key, counting rule).  "none" on
# refine counts aborts, "true" on the fast test counts critical graphs,
# "parents" times a generator and counts the subsets each parent offers.
ENUMERATION = (
    ("_child_states", "enumeration.child_states", "parents"),
    ("_subset_reps", "enumeration.subset_reps", None),
    ("refine", "canon.refine", "none"),
    ("_search", "canon.search", None),
    ("degree_cells", "canon.degree_cells", None),
    ("_articulation_mask", "graph.articulation", None),
    ("_is_critical_fast", "criticality.fast", "true"),
)

# Other boundaries, by module; the CLI's are every library function it
# imports (see Tracer.install).
OTHERS = (
    ("verify", "iter_connected", "verify.enum", "gen"),
    ("verify", "_is_critical_fast", "criticality.fast", "true"),
    ("verify", "girth", "graph.girth", None),
    ("verify", "is_two_connected", "graph.two_connected", None),
    ("verify", "all_pairs_distances", "graph.distances", None),
    ("criticality", "all_pairs_distances", "graph.distances", None),
)

CLI_KEYS = {
    "is_distance_critical_direct": "criticality.direct",
    "is_distance_critical_pairs": "criticality.pairs",
    "girth": "graph.girth",
    "is_connected": "graph.connected",
    "is_two_connected": "graph.two_connected",
    "max_clique_size": "clique",
    "regular_extremal": "constructions.regular",
    "cycle_power": "constructions.other",
    "embed_host": "constructions.other",
    "gamma": "constructions.other",
    "max_degree_extremal": "constructions.other",
    "product": "products",
    "decode_graph6": "graph6.decode",
    "encode_graph6": "graph6.encode",
}

_HIT_TESTS = {"none": lambda out: out is None, "true": lambda out: out is True}


class Tracer:
    """Sums time, self time and calls per layer while installed."""

    def __init__(self) -> None:
        self.recs: dict[str, list] = {}
        self.task_cpu: list[float] = []
        self._child = [0.0]
        self._undo: list[tuple[object, str, object]] = []
        self._queue = None

    def rec(self, key: str) -> list:
        r = self.recs.get(key)
        if r is None:
            r = self.recs[key] = [0.0, 0.0, 0, 0, 0]
        return r

    def reset(self) -> None:
        for r in self.recs.values():
            r[:] = [0.0, 0.0, 0, 0, 0]
        self._child[0] = 0.0

    # -- wrappers -----------------------------------------------------------

    def wrap(self, key: str, fn, count: "str | None" = None):
        """fn with its time, self time and calls added to record key."""
        if count in ("gen", "parents"):
            return self._wrap_gen(key, fn, count == "parents")
        rec, child, perf = self.rec(key), self._child, time.perf_counter
        hit = _HIT_TESTS.get(count)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = child[0]
            child[0] = 0.0
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                rec[S] += dt
                rec[SELF] += dt - child[0]
                rec[CALLS] += 1
                child[0] = outer + dt
            if hit is not None and hit(out):
                rec[HITS] += 1
            return out

        return traced

    def _wrap_gen(self, key: str, fn, parents: bool):
        """Generators are timed per resumption: work the consumer does
        between two items is not theirs.  CALLS counts generators and ITEMS
        their items; with parents, HITS adds the 2^k - 1 candidate subsets
        of each _child_states(state, k)."""
        rec, child, perf = self.rec(key), self._child, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec[CALLS] += 1
            if parents:
                rec[HITS] += (1 << args[1]) - 1
            it = fn(*args, **kwargs)
            while True:
                outer = child[0]
                child[0] = 0.0
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf() - t0
                    rec[S] += dt
                    rec[SELF] += dt - child[0]
                    child[0] = outer + dt
                rec[ITEMS] += 1
                yield item

        return traced

    # -- installing ---------------------------------------------------------

    def _patch(self, module, name: str, key: str, count: "str | None") -> None:
        fn = getattr(module, name)
        self._undo.append((module, name, fn))
        setattr(module, name, self.wrap(key, fn, count))

    def install(self, pool: bool = False) -> None:
        enum = importlib.import_module("distcrit.enumeration")
        for name, key, count in ENUMERATION:
            self._patch(enum, name, key, count)
        for mod, name, key, count in OTHERS:
            self._patch(importlib.import_module(f"distcrit.{mod}"), name,
                        key, count)
        cli = importlib.import_module("distcrit.cli")
        for name, obj in list(vars(cli).items()):
            home = getattr(obj, "__module__", "") or ""
            if (inspect.isfunction(obj) and home.startswith("distcrit.")
                    and home != cli.__name__):
                key = CLI_KEYS.get(name, f"{home[len('distcrit.'):]}.{name}")
                self._patch(cli, name, key, None)
        if pool:
            self._install_pool_hook(enum)

    def _install_pool_hook(self, enum) -> None:
        """Pool workers are forked with the wrappers in place; each task
        sends its records back on a queue made before the fork.  The hook
        keeps the worker's module and name so the pool pickles it by
        reference to the patched attribute."""
        queue = self._queue = multiprocessing.get_context("fork").SimpleQueue()
        worker = enum._pool_worker
        tracer = self

        @functools.wraps(worker)
        def task(args):
            tracer.reset()
            c0 = time.process_time()
            out = worker(args)
            queue.put((tracer.recs, time.process_time() - c0))
            return out

        self._undo.append((enum, "_pool_worker", worker))
        enum._pool_worker = task

    def collect_pool(self) -> None:
        """Merge the records pool tasks sent since the last call."""
        while self._queue is not None and not self._queue.empty():
            recs, cpu = self._queue.get()
            self.task_cpu.append(cpu)
            for key, src in recs.items():
                dst = self.rec(key)
                for i, v in enumerate(src):
                    dst[i] += v

    def uninstall(self) -> None:
        while self._undo:
            module, name, fn = self._undo.pop()
            setattr(module, name, fn)
        if self._queue is not None:
            self._queue.close()
            self._queue = None


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit).

    extra carries what the workload measured itself: per-lemma times,
    lemma instances checked, distinct classes up to the lemma cap, pool
    CPU and idle share, and the traced over untraced wall ratio."""
    def r(key: str) -> list:
        return tracer.recs.get(key, [0.0, 0.0, 0, 0, 0])

    states, refine = r("enumeration.child_states"), r("canon.refine")
    venum = r("verify.enum")
    universe = extra.get("verify.universe", 0)
    out = {
        "enumeration.parents": (states[CALLS], "count"),
        "enumeration.candidates": (states[HITS], "count"),
        "enumeration.prefiltered": (refine[CALLS], "count"),
        "enumeration.accepts": (states[ITEMS], "count"),
        "enumeration.accept_ratio": (
            states[ITEMS] / refine[CALLS] if refine[CALLS] else 0.0, "ratio"),
        "enumeration.child_states.self_s": (states[SELF], "s"),
        "verify.enum.s": (venum[S], "s"),
        "verify.enum.graphs": (venum[ITEMS], "count"),
        "verify.enum.dup_ratio": (
            venum[ITEMS] / universe if universe else 0.0, "ratio"),
        "cli.self_s": (r("cli")[SELF], "s"),
    }
    timed = ("enumeration.subset_reps", "canon.refine", "canon.search",
             "canon.degree_cells", "graph.articulation", "criticality.fast",
             "criticality.direct", "criticality.pairs", "graph.distances",
             "graph.girth", "graph.two_connected", "graph.connected",
             "clique", "constructions.regular", "constructions.other",
             "products", "graph6.decode", "graph6.encode")
    for key in timed:
        out[f"{key}.s"] = (r(key)[S], "s")
    for key in ("enumeration.subset_reps", "canon.refine", "canon.search",
                "graph.articulation", "criticality.fast",
                "criticality.direct", "graph.distances"):
        out[f"{key}.calls"] = (r(key)[CALLS], "count")
    out["canon.refine.aborts"] = (refine[HITS], "count")
    out["criticality.fast.hits"] = (r("criticality.fast")[HITS], "count")
    for key, unit in (("verify.lemma.GIRTH.s", "s"),
                      ("verify.lemma.CYCLE5.s", "s"),
                      ("verify.lemma.rest.s", "s"),
                      ("pool.children_cpu_s", "s"),
                      ("pool.idle_share", "share"),
                      ("pool.imbalance", "ratio"),
                      ("trace.overhead", "ratio")):
        out[key] = (extra.get(key, 0.0), unit)
    out["verify.checked"] = (extra.get("verify.checked", 0), "count")
    return out
