"""qmatalg benchmark: time to an exact verdict on fixed theorem instances.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qmatalg is imported from its src/.
Workloads (bench/workloads.py):

  fft_kernel    fft_check((1,1,1,1,2,1), 3): kernel back-substitution with
                coefficient growth, then the containment rank
  sft_ideal     qmatalg sft -k 2 -r 2 -m 1 -N 7 --minor-ideal through
                cli.main: rank of wide, mostly-zero ideal matrices, then
                the kernel of psi
  rewrite_grid  C03, C04, C05 over every 7th tuple of the 512-tuple grid
                plus seeded associativity trials: rewriting only, no
                elimination

Every sample runs in a fresh interpreter (bench/child.py), single-threaded,
so lru caches and the word-image memo start cold, as for a CLI user.  Only
rewrite_grid uses --seed (it draws the associativity trials); the other two
are fixed instances.  Each verdict must equal bench/golden/<workload>.json,
captured from the seed commit as the "verdict" field of
`python3 bench/child.py --workload NAME --seed 0`.

--trace 0 reports the end-to-end metrics over the samples that fit in
--seconds (at least one): setup_s times a fresh interpreter that only
imports qmatalg, and wall_s, cpu_s and peak_rss_mb come from the workload
samples taken in turn with it.  The host's speed swings from minute to
minute, so every time is scaled to the speed of a fixed reference loop
(bench/reference.py) that each workload sample runs before and after its
workload: wall_s and cpu_s are the run's total workload seconds over its
total reference seconds, times REFERENCE_S; setup_s is the median set-up
time scaled by the same wall-clock factor.  The measured medians and the
factor are printed before the result line.

--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of bench/tracer.py, the traced wall time, the part of it no layer
span covers (unattributed_s) and the tracing overhead, all as measured.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exit status is 0 when a
result was printed, 2 when the checkout has no qmatalg sources.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fft_kernel", "sft_ideal", "rewrite_grid")
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "laurent.mul_calls": "count",
    "laurent.div_exact_calls": "count",
    "exactla.nullspace.calls": "count",
    "exactla.nullspace.self_s": "s",
    "exactla.kernel_coeff_bits_max": "bits",
    "exactla.kernel_exp_span_max": "exponents",
    "exactla.rank.calls": "count",
    "exactla.rank.self_s": "s",
    "exactla.cells": "count",
    "exactla.nnz": "count",
    "qalgebra.normal_form.calls": "count",
    "qalgebra.normal_form.self_s": "s",
    "qalgebra.rewrite_steps": "count",
    "qalgebra.multiply.calls": "count",
    "qalgebra.graded_basis.self_s": "s",
    "uqaction.act.calls": "count",
    "uqaction.act.self_s": "s",
    "uqaction.is_invariant.calls": "count",
    "uqaction.invariant_subspace.self_s": "s",
    "invariants.word_image.calls": "count",
    "invariants.word_image.hit_ratio": "ratio",
    "exactla.self_s": "s",
    "hookcomb.self_s": "s",
    "qalgebra.self_s": "s",
    "uqaction.self_s": "s",
    "invariants.self_s": "s",
    "cli.self_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace_overhead_s": "s",
}
# units of the per-layer figures that are counts, which must repeat exactly
COUNT_UNITS = {"count", "bits", "exponents"}


class Runner:
    """Starts child interpreters against one checkout, within a time limit.
    `small` selects the reduced workload instances used by the tests."""

    def __init__(self, root, limit_s, small=False):
        self.root = root
        self.small = small
        self.deadline = time.monotonic() + limit_s
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def left(self):
        return self.deadline - time.monotonic()

    def python(self, args):
        """Run `python3 ARGS`; returns (elapsed seconds, stdout), or None on
        failure or timeout.  subprocess.run kills and reaps on timeout."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(self.left(), 1))
        except subprocess.TimeoutExpired:
            return None
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return None
        return elapsed, proc.stdout

    def sample(self, workload, seed, trace=False):
        args = [str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed)]
        args += ["--trace"] * trace + ["--small"] * self.small
        got = self.python(args)
        return None if got is None else json.loads(got[1].splitlines()[-1])


def sample_ok(result, golden, root):
    """A sample counts only if it imported this checkout's qmatalg, matched
    the golden verdict exactly and, when traced, removed every wrapper."""
    return (
        result is not None
        and Path(result["qmatalg_file"]).resolve() == root / "src" / "qmatalg" / "__init__.py"
        and result["verdict"] == golden
        and result.get("restored", True)
    )


def measure(runner, workload, seed, seconds, golden):
    """Alternate one set-up sample and one workload sample until `seconds`
    have passed, so both span the same stretch of machine time.
    Times are scaled to the reference speed of bench/reference.py: wall_s
    and cpu_s are the run's total workload seconds times REFERENCE_S per
    second the reference loop took in the same samples, and setup_s is the
    median set-up time scaled by the same wall-clock factor."""
    runner.python(["-c", "import qmatalg.cli"])  # compile bytecode once
    setup, samples, attempted = [], [], 0
    t0 = time.monotonic()
    while attempted == 0 or (time.monotonic() - t0 < seconds and runner.left() > 0):
        attempted += 2
        got = runner.python(["-c", "import qmatalg, qmatalg.cli"])
        if got is not None:
            setup.append(got[0])
        result = runner.sample(workload, seed)
        if sample_ok(result, golden, runner.root):
            samples.append(result)
    failed = attempted - len(samples) - len(setup)
    values = {}
    if samples and setup:
        # each sample ran the reference loop twice
        ref_s = 2 * REFERENCE_S * len(samples)
        wall_scale = ref_s / sum(r["ref_wall_s"] for r in samples)
        cpu_scale = ref_s / sum(r["ref_cpu_s"] for r in samples)
        values = {
            "wall_s": sum(r["wall_s"] for r in samples) / len(samples) * wall_scale,
            "cpu_s": sum(r["cpu_s"] for r in samples) / len(samples) * cpu_scale,
            "setup_s": statistics.median(setup) * wall_scale,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in samples),
        }
        print(f"{workload}: measured medians wall_s "
              f"{statistics.median(r['wall_s'] for r in samples):.4f} s, cpu_s "
              f"{statistics.median(r['cpu_s'] for r in samples):.4f} s, setup_s "
              f"{statistics.median(setup):.4f} s; machine at {wall_scale:.3f} of "
              f"the reference speed (wall), {cpu_scale:.3f} (CPU)")
    print(f"{workload}: {len(samples)} timed samples, {len(setup)} set-up samples, "
          f"fail_frac {failed}/{attempted} = {failed / attempted:.3f}")
    if len(samples) > 1:
        q1, q2, q3 = statistics.quantiles((r["wall_s"] for r in samples), n=4)
        print(f"{workload}: measured wall_s quartiles {q1:.4f} {q2:.4f} {q3:.4f}")
    return attempted, failed, values, END_TO_END_UNITS


def measure_traced(runner, workload, seed, seconds, golden):
    """Alternate untraced and traced samples until `seconds` have passed.
    Layer figures come from the traced sample of median wall time, so its
    self times still add up to its wall time; counts must be identical in
    every traced sample."""
    plain, traced, attempted = [], [], 0
    t0 = time.monotonic()
    while attempted == 0 or (time.monotonic() - t0 < seconds and runner.left() > 0):
        attempted += 2
        for out, trace in ((plain, False), (traced, True)):
            result = runner.sample(workload, seed, trace=trace)
            if sample_ok(result, golden, runner.root):
                out.append(result)
    failed = attempted - len(plain) - len(traced)
    counts = {json.dumps({k: r["layers"][k] for k, unit in PER_LAYER_UNITS.items()
                          if unit in COUNT_UNITS}) for r in traced}
    if len(counts) > 1:
        print(f"{workload}: counts differ between traced samples")
        failed += 1
    values = {}
    if plain and traced:
        traced.sort(key=lambda r: r["wall_s"])
        middle = traced[(len(traced) - 1) // 2]
        values = dict(middle["layers"])
        values["trace.wall_s"] = middle["wall_s"]
        values["trace_overhead_s"] = middle["wall_s"] - statistics.median_low(
            r["wall_s"] for r in plain)
    print(f"{workload}: {len(plain)} untraced and {len(traced)} traced samples, "
          f"fail_frac {failed}/{attempted} = {failed / attempted:.3f}")
    return attempted, failed, values, PER_LAYER_UNITS


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qmatalg" / "__init__.py").is_file():
        print(f"error: no qmatalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden" / f"{args.workload}.json").read_text())
    runner = Runner(ROOT, RUN_LIMIT_S)
    if args.trace:
        attempted, failed, values, units = measure_traced(
            runner, args.workload, args.seed, args.seconds, golden)
    else:
        attempted, failed, values, units = measure(
            runner, args.workload, args.seed, args.seconds, golden)
    for name, v in values.items():
        print(f"  {name:36s} {v:14.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(units),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
