"""dispflow benchmark: one workload, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload tomo_configs --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ./src.  The
run repeats whole passes over the workload's operations until --seconds
have gone by, checks every pass against references computed apart from
the package, and prints one JSON object as its last line of output:
correctness, operations attempted and failed, and the metrics that
BENCHMARK.json lists (its end_to_end list with --trace 0, its per_layer
list with --trace 1).  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

#: BLAS threads; one keeps the dense products steady on a shared machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import checks  # noqa: E402  (after the BLAS settings: it imports numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: fresh interpreters whose set-up time is measured; the median is reported
SETUP_REPEATS = 7


def import_program():
    """Import dispflow from this checkout, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "dispflow", "__init__.py")):
        sys.exit(f"perfbench: no dispflow package under {SRC}")
    sys.path.insert(0, SRC)
    import dispflow

    if os.path.dirname(os.path.dirname(os.path.abspath(dispflow.__file__))) != SRC:
        sys.exit(f"perfbench: imported dispflow from {dispflow.__file__}, not {SRC}")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args()


def measure_setup(args) -> float:
    """Median wall time of imports plus workload set-up in fresh interpreters."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{out.stderr}")
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class Runner:
    def __init__(self, workload, tracing):
        self.workload = workload
        self.tracing = tracing
        self.tracer = tracing.Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, traced: bool) -> float:
        """One timed pass; the checks run after the clock stops."""
        results = {}
        self.tracer.reset()
        with self.tracing.install(self.tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            for name, op in self.workload.operations():
                self.attempted += 1
                try:
                    results[name] = op()
                except Exception as exc:  # an operation that fails is counted, not fatal
                    self.failed += 1
                    print(f"operation {name} failed: {exc!r}", file=sys.stderr)
            elapsed = time.perf_counter() - t0
        self.check(lambda: self.workload.check(results))
        if traced:
            self.check(lambda: checks.check_flows_reached(self.tracer.flows))
        return elapsed

    def check(self, fn):
        try:
            fn()
        except checks.CheckFailed as exc:
            if str(exc) not in self.problems:
                self.problems.append(str(exc))
                print(f"check failed: {exc}", file=sys.stderr)


def main():
    args = parse_args()
    outdir = os.path.join(ROOT, ".perfbench_runs", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    if args.setup_only:
        import_program()
        import workloads

        workloads.WORKLOADS[args.workload](ROOT, args.seed, outdir)
        print(repr(time.perf_counter() - T0))
        return

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    setup_s = None if args.trace else measure_setup(args)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, outdir)
    runner = Runner(workload, tracing)
    # --trace 1 alternates plain and traced passes, so that the tracing
    # overhead is the difference of two medians taken in one process
    modes = (False, True) if args.trace else (False,)
    passes = {False: [], True: []}
    layers = []
    start = time.perf_counter()
    try:
        while True:
            for traced in modes:
                passes[traced].append(runner.run_pass(traced))
                if traced:
                    layers.append(runner.tracer.summary())
                print(f"{'traced' if traced else 'plain'} pass {len(passes[traced])}: "
                      f"{passes[traced][-1]:.4f} s", flush=True)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    pass_s = statistics.median(passes[False])
    if args.trace:
        values = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
        values["trace.pass_s"] = statistics.median(passes[True])
        values["trace.overhead_s"] = values["trace.pass_s"] - pass_s
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
