"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --src SRC --workload NAME --seed N --trace 0|1
    python3 perfbench/worker.py --src SRC --import-only

run.py starts this once per pass, so no cache inside so4atom survives from
one pass to the next, as for a user running the CLI.  setup_s is the import
of so4atom and every module the CLI pulls in (numpy and scipy included);
wall_s runs from the first call of the workload to its last verdict.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
import types

import layers
import verdicts as V
from spans import Patches, Tracer
from workloads import WORKLOADS, Probe, missing_calls

MODULES = ("operators", "lang", "catalog", "ansatz", "oracle", "spectrum", "cli")


def import_so4atom(src):
    """Import the package from src only; returns (namespace, seconds)."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    mods = {name: importlib.import_module("so4atom." + name) for name in MODULES}
    seconds = time.perf_counter() - start
    origin = os.path.realpath(sys.modules["so4atom"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError("so4atom was imported from %s, not from %s" % (origin, src))
    return types.SimpleNamespace(**mods), seconds


def environment():
    kernel = sys.modules.get("so4atom._kernel")
    return {
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        "kernel": getattr(kernel, "KERNEL_NAME", None),
    }


def scored(fn, *args):
    """fn's verdicts; an exception is one failed verdict, so the pass still reports."""
    try:
        return fn(*args)
    except Exception as exc:
        traceback.print_exc()
        return V.crashed(exc)


def run_pass(so4, workload, seed, trace):
    patches = Patches()
    probe = Probe()
    probe.install(so4, patches)
    tracer = None
    if trace:
        tracer = Tracer()
        layers.install(tracer, so4, patches)
    start = time.perf_counter()
    found = scored(WORKLOADS[workload], so4, seed, probe)
    end = time.perf_counter()
    patches.undo()
    found += scored(missing_calls, workload, so4, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, worst = V.tally(found)
    result = {
        "wall_s": end - start,
        "peak_rss_mb": rss_mb,
        "latencies_ms": probe.latencies_ms,
        "attempted": attempted,
        "failed": failed,
        "worst_margin": worst,
        "failures": [v.label for v in found if not v.ok][:10],
    }
    if tracer is not None:
        per, counts, unattributed = tracer.summary(start, end)
        result["layers"] = layers.metrics(per, counts, unattributed)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)
    so4, setup_s = import_so4atom(args.src)
    if args.import_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_pass(so4, args.workload, args.seed, args.trace)
    result["setup_s"] = setup_s
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
