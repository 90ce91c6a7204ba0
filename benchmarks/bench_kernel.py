"""Kernel shoot-out: compiled extension vs pure-Python reference.

Runs the same workload twice in fresh interpreters, once with
``SO4ATOM_PURE=1`` and once without, and prints per-stage timings with
the speedup ratio.  Run from the repository root:

    python3 benchmarks/bench_kernel.py [--repeat N]
"""

import argparse
import json
import os
import subprocess
import sys

_WORKLOAD = r"""
import json, time
from so4atom import _kernel
from so4atom import catalog
from so4atom.catalog import run_suite
from so4atom import ansatz
from so4atom.operators import SpinMode

def stage(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0

def fresh_r2():
    # the widest single identity: squared raising vector vs eigenform, on
    # an uncached suite so the stage includes elaborating its definitions
    suite = catalog.load_suite("spectrum_algebra")
    env = suite.env(SpinMode.ABSTRACT)
    spec = suite.spec("R2_expansion")
    catalog.run_check(spec, env)

timings = {}
timings["warm"] = stage(lambda: run_suite("so3"))
timings["suite_so4"] = stage(lambda: run_suite("so4"))
timings["suite_theorem"] = stage(lambda: run_suite("theorem"))
timings["suite_spectrum"] = stage(lambda: run_suite("spectrum_algebra"))
timings["r2_expansion"] = stage(fresh_r2)
timings["spin_scan"] = stage(lambda: ansatz.build_spin_constraints().solve())
timings["kernel"] = _kernel.KERNEL_NAME
print(json.dumps(timings))
"""


def run_once(pure):
    env = dict(os.environ)
    if pure:
        env["SO4ATOM_PURE"] = "1"
    else:
        env.pop("SO4ATOM_PURE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _WORKLOAD],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def best_of(pure, repeat):
    runs = [run_once(pure) for _ in range(repeat)]
    out = {"kernel": runs[0]["kernel"]}
    for key in runs[0]:
        if key != "kernel":
            out[key] = min(r[key] for r in runs)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="take the best of N runs (default 3)")
    args = parser.parse_args(argv)

    fast = best_of(False, args.repeat)
    slow = best_of(True, args.repeat)
    if fast["kernel"] == slow["kernel"]:
        print("compiled kernel unavailable; both runs used %r" % fast["kernel"])

    stages = [k for k in fast if k not in ("kernel", "warm")]
    width = max(len(s) for s in stages)
    print("%-*s  %10s  %10s  %8s" % (width, "stage", fast["kernel"],
                                     slow["kernel"], "speedup"))
    for s in stages:
        ratio = slow[s] / fast[s] if fast[s] else float("inf")
        print("%-*s  %9.1fms  %9.1fms  %7.2fx" % (width, s, fast[s] * 1e3,
                                                  slow[s] * 1e3, ratio))
    total_f = sum(fast[s] for s in stages)
    total_s = sum(slow[s] for s in stages)
    print("%-*s  %9.1fms  %9.1fms  %7.2fx" % (width, "total", total_f * 1e3,
                                              total_s * 1e3, total_s / total_f))
    return 0


if __name__ == "__main__":
    sys.exit(main())
