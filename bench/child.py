"""One timed sample of one workload, run in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N [--trace] [--small]

Prints one JSON object: the verdict, the time to it (wall and CPU), peak
RSS, and with --trace the per-layer metrics of tracer.Tracer plus a check
that every wrapper was removed afterwards.  Without --trace the sample
also runs reference.timed() just before and just after the workload and
reports the two runs' summed wall and CPU seconds, so that bench/run.py
can scale its times to the reference speed.  bench/run.py starts this with
PYTHONPATH pointing at the checkout's src/.
"""

import argparse
import json
import resource
import sys
import time

import qmatalg
import qmatalg.cli  # noqa: F401  (the sft workload runs it)
from qmatalg import invariants, laurent

import reference
from tracer import Tracer, qmatalg_modules
from workloads import WORKLOADS


def _bindings():
    """Every attribute the tracer may patch, for the restore check."""
    owners = qmatalg_modules() + [laurent.LaurentInt, invariants._Context]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def run(workload, seed, trace, small):
    fn = WORKLOADS[workload]
    out = {"qmatalg_file": qmatalg.__file__}
    tracer = None
    if trace:
        before = _bindings()
        tracer = Tracer()
        tracer.install()
    else:
        ref_before = reference.timed()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        verdict = fn(seed, small)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["verdict"] = verdict
    out["wall_s"] = wall
    out["cpu_s"] = cpu
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        ref_after = reference.timed()
        out["ref_wall_s"] = ref_before[0] + ref_after[0]
        out["ref_cpu_s"] = ref_before[1] + ref_after[1]
    else:
        after = _bindings()
        out["restored"] = after.keys() == before.keys() and all(
            after[k] is v for k, v in before.items())
        out["layers"] = tracer.metrics(wall)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--small", action="store_true")
    args = p.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.trace, args.small)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
