"""distcrit benchmark: one workload per run, or all four in turn.

    python3 bench/run.py --workload census9 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; distcrit is imported from ./src, and
the run fails (exit 2, no result) when that tree is missing.  The last line
on stdout is the result object {correct, attempted, failed, metrics}; the
line before it carries the run's metadata.  With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (see README.md).

One client in one process calls distcrit's entry points in a closed loop.
--seconds fixes the work of a run: passes = round(seconds / nominal pass
time at the seed commit), at least one, so both sides of a comparison do
the same work.  A traced run makes one untraced pass and then one traced
pass of the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import layers  # noqa: E402  (sibling modules; HERE is sys.path[0])
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import distcrit\n"
    "dt = time.perf_counter() - t0\n"
    "if not distcrit.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit('imported distcrit from ' + distcrit.__file__)\n"
    "print(repr(dt))\n"
)


def setup_seconds() -> list[tuple[float, float]]:
    """(raw, at reference speed) import times of distcrit in fresh
    interpreters, one per sample, each rescaled by probes run just before
    and after it."""
    out = []
    for _ in range(SETUP_SAMPLES):
        before = speed.probe()
        proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC)],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=60, check=False)
        after = speed.probe()
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        raw = float(proc.stdout)
        out.append((raw, raw * (speed.REF_S / before + speed.REF_S / after) / 2))
    return out


def import_distcrit():
    sys.path.insert(0, str(SRC))
    import distcrit
    import distcrit.cli  # noqa: F401  (the stream's entry point)
    if not Path(distcrit.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported distcrit from {distcrit.__file__}")
    return distcrit


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it; with fewer than 11 samples, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def cpu_now() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def timed_pass(wl, distcrit, sampler, tracer=None) -> dict:
    """One pass with its wall and CPU time (children included), raw and at
    reference speed, and its item latencies at reference speed, each
    rescaled by the probes within speed.WINDOW of it."""
    c_me, c_kids = cpu_now()
    t0 = time.perf_counter()
    p = wl.execute(distcrit, tracer)
    t1 = time.perf_counter()
    d_me, d_kids = cpu_now()
    f = sampler.factor(t0, t1, slowest=True)
    kids = d_kids - c_kids
    return {"pass": p, "factor": f, "raw_wall": t1 - t0, "wall": f * (t1 - t0),
            "cpu": sampler.factor(t0, t1) * (d_me - c_me + kids),
            "kids_cpu": kids,
            "latencies": [dt * sampler.factor(t - speed.WINDOW,
                                              t + dt + speed.WINDOW, True)
                          for t, dt in p.items]}


def peak_rss_mb(jobs: int) -> float:
    """Own peak resident set, plus jobs times the largest child's when a
    pool ran (each worker is resident at once)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (me + jobs * kids) / 1024.0


def commit() -> str:
    """HEAD of the source tree when it is a git checkout, else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args) -> int:
    load_before = os.getloadavg()[0]
    wl = workloads.make(args.workload, args.seed, args.scale == "tiny")
    jobs = wl.jobs
    allowed = os.sched_getaffinity(0)
    speed.pin_to_one_cpu()  # the import probes run next to the speed probes
    setup = setup_seconds()
    if jobs > 1:
        os.sched_setaffinity(0, allowed)
    distcrit = import_distcrit()
    with speed.Sampler() as sampler:
        passes = 1 if args.trace else max(1, round(args.seconds / wl.nominal_s))
        done = [timed_pass(wl, distcrit, sampler) for _ in range(passes)]
        if args.trace:
            tracer = layers.Tracer()
            tracer.install(pool=jobs > 1)
            try:
                done.append(timed_pass(wl, distcrit, sampler, tracer))
                tracer.collect_pool()
            finally:
                tracer.uninstall()
    if args.trace:
        ref, traced = done
        extra = wl.extra(traced["pass"])
        extra["trace.overhead"] = traced["wall"] / ref["wall"]
        if jobs > 1:
            kids = traced["kids_cpu"]
            extra["pool.children_cpu_s"] = kids
            extra["pool.idle_share"] = 1.0 - kids / (jobs * traced["raw_wall"])
            cpus = tracer.task_cpu
            if cpus:
                extra["pool.imbalance"] = max(cpus) / statistics.mean(cpus)
        metrics = {k: (v * traced["factor"] if u == "s" else v, u)
                   for k, (v, u) in layers.layer_metrics(tracer, extra).items()}
    latencies = [x for d in done for x in d["latencies"]]
    item_tail, tail_pct = tail(latencies)
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(x for _, x in setup), "s"),
            "wall_s": (statistics.median(d["wall"] for d in done), "s"),
            "cpu_s": (statistics.median(d["cpu"] for d in done), "s"),
            "peak_rss_mb": (peak_rss_mb(jobs), "MB"),
            "item_ms_p50": (1000.0 * statistics.median(latencies), "ms"),
            "item_ms_tail": (1000.0 * item_tail, "ms"),
        }
    attempted = sum(wl.attempted(d["pass"]) for d in done)
    reasons = [why for d in done for why in wl.check(d["pass"])]
    for why in reasons[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "passes": len(done),
        "items": len(latencies), "item_tail_pct": round(tail_pct, 2),
        "error_rate": len(reasons) / attempted,
        "raw_setup_s": [x for x, _ in setup],
        "raw_pass_walls_s": [d["raw_wall"] for d in done],
        "pass_factors": [d["factor"] for d in done],
        "probes": len(sampler.samples),
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        "commit": commit(), "load1_before": load_before,
        "load1_after": os.getloadavg()[0],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not reasons,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, with a table
    of every metric by name and unit plus each workload's error rate."""
    report = {}
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=600, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: run failed with exit {proc.returncode}",
                  file=sys.stderr)
            return 1
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        report[name] = {"meta": meta, "result": result}
        print(f"== {name}  passes={meta['passes']}  items={meta['items']}  "
              f"tail=p{meta['item_tail_pct']}  load1 {meta['load1_before']:.2f}"
              f" -> {meta['load1_after']:.2f}")
        for key, m in result["metrics"].items():
            print(f"  {key:34s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'error_rate':34s} {meta['error_rate']:>14.6g} share "
              f"({result['failed']} of {result['attempted']})")
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(total))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small sizes, for the self-tests")
    ap.add_argument("--out", help="with --workload all: write the report here")
    args = ap.parse_args(argv)
    if not (SRC / "distcrit" / "__init__.py").is_file():
        print(f"error: no distcrit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
