"""so4atom benchmark: three workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload proofs|cli_all|spectrum \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  Each pass runs in a fresh interpreter (worker.py), one
caller, closed loop, and passes are repeated for about --seconds.

--trace 0 prints the end-to-end metrics: the medians of wall_s, setup_s
and peak_rss_mb over the passes; verdict_p50_ms, the median over verdicts
of each verdict's median latency across the passes; verdict_tail_ms, a
fixed high percentile of the latencies pooled over all passes; and
min_headroom = 1 - the largest error/tolerance ratio among passing numeric
verdicts (1.0 where every verdict is exact).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics (see layers.py), with trace_overhead_s = traced minus untraced
median wall_s; a count or ratio that differs between the traced passes is
a failed verdict.

Every verdict is checked against a known answer (verdicts.py).  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  A report with the environment and every pass goes to
perfbench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

# tail percentile per workload; a run keeps going until the tail has at
# least TAIL_BEYOND pooled samples above it, and makes MIN_PASSES at least
TAIL_PCT = {
    "proofs": 99.0,     # 571 timed verdicts a pass
    "cli_all": 98.0,    # 236 timed verdicts a pass
    "spectrum": 90.0,   # 10 sectors a pass
}
TAIL_BEYOND = 10
MIN_PASSES = 3
MIN_TRACED = 2              # traced passes, so counts can be compared
PASS_TIMEOUT_S = 150.0
STOP_LAUNCHING_S = 140.0    # keeps a run inside 180 s whatever --seconds says
BLAS_THREADS = 1            # one caller; LAPACK threads only add host noise


class BenchError(Exception):
    pass


def tail_rank(count, pct):
    """Nearest-rank index (0-based) of the pct percentile of count samples."""
    return max(0, math.ceil(pct / 100.0 * count) - 1)


def samples_needed(pct):
    """Fewest samples for which the pct percentile has TAIL_BEYOND samples above it."""
    count = 1
    while count - 1 - tail_rank(count, pct) < TAIL_BEYOND:
        count += 1
    return count


def tail(samples, pct):
    """The pct percentile; raises unless at least TAIL_BEYOND samples lie above it."""
    ordered = sorted(samples)
    rank = tail_rank(len(ordered), pct)
    if len(ordered) - 1 - rank < TAIL_BEYOND:
        raise BenchError("p%g of %d samples has fewer than %d beyond it"
                         % (pct, len(ordered), TAIL_BEYOND))
    return ordered[rank]


def verdict_p50(passes_ms):
    """Median over verdicts of each verdict's median across passes.

    Every pass runs the same verdicts in the same order, so position i is
    one verdict; its median drops the pass-to-pass jitter that reorders
    neighbouring verdicts in a pooled sample.
    """
    return statistics.median(statistics.median(v) for v in zip(*passes_ms))


def worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # setup_s imports cached bytecode
    # the default kernel and the packaged suites, whatever the caller's shell says
    env.pop("SO4ATOM_PURE", None)
    env.pop("SO4ATOM_DATA_DIR", None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(env, *args):
    cmd = [sys.executable, WORKER, "--src", SRC] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("pass timed out after %.0f s" % exc.timeout) from exc
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def source_digest():
    """sha256 over the package sources, to identify a checkout without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "so4atom")
    for folder, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".so")):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def passes(workload, seed, seconds, trace, env):
    """Run passes until the time is used and the minimums are met.

    Untraced runs launch a pass while one more fits in --seconds; traced
    runs alternate an untraced and a traced pass the same way.
    """
    need = samples_needed(TAIL_PCT[workload]) if not trace else 0
    plain, traced = [], []
    started = time.monotonic()
    step = 0.0
    while True:
        elapsed = time.monotonic() - started
        enough = (len(traced) >= MIN_TRACED) if trace else (
            len(plain) >= MIN_PASSES
            and sum(len(p["latencies_ms"]) for p in plain) >= need)
        if enough and (elapsed + step > seconds or elapsed > STOP_LAUNCHING_S):
            break
        if not enough and elapsed > STOP_LAUNCHING_S:
            raise BenchError("minimum passes not reached in %.0f s" % elapsed)
        t0 = time.monotonic()
        plain.append(run_worker(env, "--workload", workload, "--seed", seed, "--trace", 0))
        if trace:
            traced.append(run_worker(env, "--workload", workload, "--seed", seed,
                                     "--trace", 1))
        step = time.monotonic() - t0
    return plain, traced


def end_to_end(plain, tail_pct):
    pooled = [ms for p in plain for ms in p["latencies_ms"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "verdict_p50_ms": verdict_p50([p["latencies_ms"] for p in plain]),
        "verdict_tail_ms": tail(pooled, tail_pct),
        "min_headroom": 1.0 - max(p["worst_margin"] for p in plain),
    }


def per_layer(plain, traced):
    """Medians over the traced passes, and the exact metrics that differ
    between them."""
    out, unsteady = {}, []
    for metric in layers.PER_LAYER:
        if metric == "trace_overhead_s":
            continue
        values = [t["layers"][metric] for t in traced]
        if metric not in layers.EXACT:
            out[metric] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            unsteady.append(metric)
        out[metric] = values[0]
    out["trace_overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out, unsteady


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "so4atom", "__init__.py")):
        print("error: no so4atom sources under %s" % SRC, file=sys.stderr)
        return 2

    env = worker_env()
    try:
        run_worker(env, "--import-only")     # writes the bytecode caches, untimed
        plain, traced = passes(args.workload, args.seed, args.seconds, args.trace, env)
        tail_pct = TAIL_PCT[args.workload]
        unsteady = []
        if args.trace:
            metrics, unsteady = per_layer(plain, traced)
            units = layers.PER_LAYER
        else:
            metrics, units = end_to_end(plain, tail_pct), layers.END_TO_END
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    runs = plain + traced
    # in a traced run each exact metric is one more verdict: it must repeat
    attempted = sum(p["attempted"] for p in runs) + (len(layers.EXACT) if args.trace else 0)
    failed = sum(p["failed"] for p in runs) + len(unsteady)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "pythonhashseed": env["PYTHONHASHSEED"],
        **plain[0]["env"],
    }
    print("env " + json.dumps(record))
    for kind, group in (("pass", plain), ("traced", traced)):
        for i, p in enumerate(group):
            print("%s %d: wall %.3f s, setup %.3f s, rss %.1f MiB, %d verdicts, %d failed"
                  % (kind, i, p["wall_s"], p["setup_s"], p["peak_rss_mb"],
                     p["attempted"], p["failed"]))
            for label in p["failures"]:
                print("  failed verdict: %s" % label)
    if args.trace:
        for metric in unsteady:
            print("failed: %s differs between traced passes" % metric)
        busiest = max((m for m in metrics if m.endswith(".self_s")), key=metrics.get)
        print("largest self time: %s" % busiest)
    else:
        pooled = sum(len(p["latencies_ms"]) for p in plain)
        print("verdict_tail_ms is p%g of %d pooled verdicts; worst margin %.4g"
              % (tail_pct, pooled, 1.0 - metrics["min_headroom"]))
    for name, value in metrics.items():
        print("%-34s %14.6g %s" % (name, value, units[name]))

    os.makedirs(OUT_DIR, exist_ok=True)
    report = dict(record, passes=plain, traced=traced, metrics=metrics,
                  tail_pct=tail_pct, unsteady=unsteady,
                  predictions=layers.PREDICTIONS if args.trace else None)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                             args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
