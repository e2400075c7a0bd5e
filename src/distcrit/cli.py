"""Command line interface.

One executable, seven subcommands:

  check      criticality verdict for graphs (stdin lines or --graph)
  pairs      determining-pair witnesses and the involved set
  product    cartesian / tensor / strong product of two graphs
  construct  the explicit families (cycle-power, gamma, embed,
             max-degree, regular)
  enumerate  connected-graph census with criticality tallies
  verify     the lemma harness
  stats      one-stop numeric summary of a graph

Exit codes: 0 success (and, for assertive subcommands, positive verdict);
1 negative verdict or property violation; 2 usage, parse or input errors.
A reader that closes stdout early ends the run quietly with exit 1.

The argument parsers are built once per process and reused by every run
call, which parses with the parser of the command path argv names (the
top parser, a command's, or a construct family's) rather than walking
the subparser tree from the top; arguments that parser leaves over are
refused by the top parser, as parse_args refuses them.  Each parse makes
a fresh namespace, and help and usage are formatted when printed.

Output discipline: results go to stdout and are byte-deterministic for
identical invocations (fixed key order, no timestamps, no timings);
progress and timing summaries go to stderr.  Graph-consuming subcommands
read one graph6 string per stdin line and emit one JSON object per line;
inputs are validated up front so a bad line never yields partial output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .clique import max_clique_size
from .constructions import (
    cycle_power,
    embed_host,
    gamma,
    max_degree_extremal,
    regular_extremal,
)
from .criticality import (
    determining_pairs_of,
    is_distance_critical_direct,
    is_distance_critical_pairs,
)
from .enumeration import _check_args, run_enumeration
from .graph import Graph, girth, is_connected, is_two_connected
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .products import ProductKind, product
from .verify import LEMMA_IDS, run_all_lemmas, run_lemma


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(", ", ": "))


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _input_graphs(args) -> list[Graph]:
    """Graphs from --graph or stdin, all decoded before any output."""
    if getattr(args, "graph", None) is not None:
        lines = [args.graph]
    else:
        lines = [ln.strip() for ln in sys.stdin if ln.strip()]
        if not lines:
            raise Graph6Error("no graph6 input given "
                              "(use --graph or pipe one per line)")
    return [decode_graph6(ln) for ln in lines]


def _cmd_check(args) -> int:
    graphs = _input_graphs(args)
    code = 0
    out = []
    for g in graphs:
        if args.method == "pairs":
            rep = is_distance_critical_pairs(g)
            d = rep.to_json_dict()
            verdict = rep.verdict
        elif args.method == "direct":
            verdict = is_distance_critical_direct(g)
            d = {"n": g.n, "critical": verdict, "method": "direct"}
        else:
            rep = is_distance_critical_pairs(g)
            direct = is_distance_critical_direct(g)
            d = rep.to_json_dict()
            d["method"] = "both"
            d["direct"] = direct
            d["agree"] = rep.verdict == direct
            verdict = rep.verdict and direct
            if not d["agree"]:
                code = 1
        if not verdict:
            code = 1
        out.append(_dump(d))
    print("\n".join(out))
    return code


def _cmd_pairs(args) -> int:
    graphs = _input_graphs(args)
    out = []
    for g in graphs:
        if args.vertex is not None:
            pairs = determining_pairs_of(g, args.vertex)
            out.append(_dump({
                "n": g.n,
                "vertex": args.vertex,
                "pairs": [[a, b] for a, b in pairs],
            }))
        else:
            out.append(_dump(is_distance_critical_pairs(g).to_json_dict()))
    print("\n".join(out))
    return 0


def _cmd_product(args) -> int:
    g = decode_graph6(args.g)
    h = decode_graph6(args.h)
    p = product(ProductKind(args.kind), g, h)
    print(encode_graph6(p))
    return 0


def _cmd_construct(args) -> int:
    layout_obj: "dict | None" = None
    if args.family == "cycle-power":
        g = cycle_power(args.n, args.k)
    elif args.family == "gamma":
        g, layout = gamma(args.m)
        layout_obj = {
            "m": layout.m,
            "a": [[i, j, v] for (i, j), v in sorted(layout.a.items())],
            "b": list(layout.b),
            "c": list(layout.c),
        }
    elif args.family == "embed":
        base = _input_graphs(args)
        if len(base) != 1:
            raise Graph6Error("embed takes exactly one input graph")
        g, inj = embed_host(base[0])
        layout_obj = {"injection": [[v, w] for v, w in sorted(inj.items())]}
    elif args.family == "max-degree":
        g = max_degree_extremal(args.n)
    else:
        g = regular_extremal(args.n)
    print(encode_graph6(g))
    if getattr(args, "layout", False) and layout_obj is not None:
        print(_dump(layout_obj))
    return 0


def _cmd_enumerate(args) -> int:
    # an out-of-range argument is refused before the long-run gate, which
    # cannot make it valid
    _check_args(args.n, args.shards, args.shard, args.jobs)
    if args.n >= 11 and not args.allow_long_run:
        return _fail("n = 11 takes hours, or about 30 seconds with "
                     "--critical-only --jobs 2; pass --allow-long-run to "
                     "confirm")
    tally, hits = run_enumeration(
        args.n,
        shards=args.shards,
        shard=args.shard,
        jobs=args.jobs,
        edge_maximal=args.edge_maximal,
        collect=not args.count_only,
        critical_only=args.critical_only,
    )
    if args.count_only:
        print(_dump(tally.to_json_dict()))
    else:
        for g in hits or []:
            print(encode_graph6(g))
        print(_dump(tally.to_json_dict()), file=sys.stderr)
    print(f"elapsed {tally.elapsed:.2f}s", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    if args.lemma == "all":
        checks = run_all_lemmas(args.n_cap)
    else:
        checks = [run_lemma(args.lemma, args.n_cap)]
    code = 0
    out = []
    for c in checks:
        if not c.ok:
            code = 1
        if args.json:
            out.append(_dump(c.to_json_dict()))
        elif c.ok:
            out.append(f"{c.id}: PASS checked={c.checked}")
        else:
            certs = ",".join(c.violations)
            out.append(f"{c.id}: FAIL checked={c.checked} violations={certs}")
        print(f"{c.id} elapsed {c.elapsed:.2f}s", file=sys.stderr)
    print("\n".join(out))
    return code


def _cmd_stats(args) -> int:
    graphs = _input_graphs(args)
    out = []
    for g in graphs:
        rep = is_distance_critical_pairs(g)
        out.append(_dump({
            "n": g.n,
            "edges": g.edge_count(),
            "girth": girth(g),
            # the null graph has no degrees
            "min_degree": g.min_degree() if g.n else None,
            "max_degree": g.max_degree() if g.n else None,
            "clique_number": max_clique_size(g),
            "connected": is_connected(g),
            "two_connected": is_two_connected(g),
            "critical": rep.verdict,
            "involved_size": len(rep.involved),
        }))
    print("\n".join(out))
    return 0


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", metavar="G6",
                   help="graph6 string (default: read stdin lines)")


@functools.cache
def _parser_table() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """The parser of every command path: () is the top parser, ("check",)
    a command's and ("construct", "gamma") a family's.  Built once per
    process."""
    table = {}
    ap = table[()] = argparse.ArgumentParser(
        prog="distcrit",
        description="Distance-critical graph toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(group, path, **kwargs):
        table[path] = group.add_parser(path[-1], **kwargs)
        return table[path]

    p = add(sub, ("check",), help="criticality verdict")
    _add_graph_source(p)
    p.add_argument("--method", choices=("pairs", "direct", "both"),
                   default="pairs")
    p.set_defaults(func=_cmd_check)

    p = add(sub, ("pairs",), help="determining-pair witnesses")
    _add_graph_source(p)
    p.add_argument("--vertex", type=int, default=None,
                   help="list every determining pair of this vertex")
    p.set_defaults(func=_cmd_pairs)

    p = add(sub, ("product",), help="graph product")
    p.add_argument("--kind", choices=("cartesian", "tensor", "strong"),
                   required=True)
    p.add_argument("g", metavar="G6")
    p.add_argument("h", metavar="G6")
    p.set_defaults(func=_cmd_product)

    p = add(sub, ("construct",), help="explicit families")
    fam = p.add_subparsers(dest="family", required=True)

    def family(name):
        # run parses with the family's parser alone, so the family's own
        # defaults name it; construct's subparser action would not
        q = add(fam, ("construct", name))
        q.set_defaults(func=_cmd_construct, family=name)
        return q

    q = family("cycle-power")
    q.add_argument("-n", type=int, required=True, dest="n")
    q.add_argument("-k", type=int, required=True, dest="k")
    q = family("gamma")
    q.add_argument("-m", type=int, required=True, dest="m")
    q.add_argument("--layout", action="store_true",
                   help="also print the vertex-class layout as JSON")
    q = family("embed")
    _add_graph_source(q)
    q.add_argument("--layout", action="store_true",
                   help="also print the injection map as JSON")
    q = family("max-degree")
    q.add_argument("-n", type=int, required=True, dest="n")
    q = family("regular")
    q.add_argument("-n", type=int, required=True, dest="n")

    p = add(sub, ("enumerate",), help="connected-graph census")
    p.add_argument("-n", type=int, required=True, dest="n")
    p.add_argument("--edge-maximal", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--critical-only", action="store_true",
                   help="generate only the critical classes at the last "
                        "level (same output; no connected_count)")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--shard", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--allow-long-run", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = add(sub, ("verify",), help="lemma harness")
    p.add_argument("--lemma", required=True,
                   choices=LEMMA_IDS + ("all",))
    p.add_argument("--n-cap", type=int, required=True, dest="n_cap")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = add(sub, ("stats",), help="numeric summary")
    _add_graph_source(p)
    p.set_defaults(func=_cmd_stats)

    return table


def build_parser() -> argparse.ArgumentParser:
    return _parser_table()[()]


def run(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parsers = _parser_table()
    # The top parser would hand argv past a command (and family) name to
    # that name's parser; starting there skips a parse per level.  What
    # the leaf leaves over is refused as parse_args refuses it.
    path = next(p for p in (tuple(argv[:2]), tuple(argv[:1]), ())
                if p in parsers)
    try:
        args, extra = parsers[path].parse_known_args(argv[len(path):])
        if extra:
            parsers[()].error("unrecognized arguments: " + " ".join(extra))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does).  Point stdout
        # at devnull so the flush at exit cannot fail again (the recipe in
        # the Python signal docs) and exit 1 with nothing on stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
