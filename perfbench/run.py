"""treesum benchmark: seeded inputs, timed workloads, output checks.

Run from the repository root:

    python3 perfbench/run.py --workload paper_train --seed 1 --seconds 20 \\
        --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` the run also times a traced job and
the object holds every per-layer metric.  Human-readable figures go to
stderr.  Each run leaves its ``result.json`` (and, traced, ``spans.tsv``)
under ``.perfbench_work/<workload>/``.

    python3 perfbench/run.py --record

writes ``BENCHMARK.json`` from `spec` and ``perfbench/baseline.json`` with
the machine's facts and one untraced and one traced run of each workload.

The package is imported from ``src/`` of the checkout the script sits in;
without it the benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc): timings then do not depend on how
# OpenBLAS splits small GEMMs between cores.  Must precede the numpy import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spec  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")


class MissingPackage(Exception):
    pass


def import_treesum():
    """The package under ``src/`` of this checkout, never another copy."""
    package_dir = os.path.join(SRC, "treesum")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise MissingPackage(f"no treesum package at {package_dir}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import treesum
    import treesum.cli  # noqa: F401  (the CLI is not imported by the package)

    if os.path.dirname(os.path.abspath(treesum.__file__)) != package_dir:
        raise MissingPackage(f"treesum imported from {treesum.__file__}")
    return treesum


def measure(workload, state, seconds):
    """Run job passes until ``seconds`` have passed (at least one pass);
    checks run between passes, outside the timed region."""
    times, outputs, checks, operations = [], [], [], 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out = workload.job(state)
        times.append(perf_counter() - t0)
        operations += workload.operations(state, out)
        checks += workload.check(state, out)
        outputs.append(out)
        if perf_counter() - start >= seconds:
            return times, outputs, checks, operations


def run_workload(name, seed, seconds, trace):
    from tracer import Tracer, count_targets, span_targets
    from workloads import WORKLOADS

    ts = import_treesum()
    workload = WORKLOADS[name]
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    setup_times = []
    for _ in range(spec.SETUP_REPEATS):
        state = None   # release the previous model before building the next
        t0 = perf_counter()
        state = workload.setup(ts, seed, workdir)
        setup_times.append(perf_counter() - t0)

    budget = seconds / 2 if trace else seconds
    times, outputs, checks, operations = measure(workload, state, budget)
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "setup_s_each": setup_times,
              "job_s_each": times}
    if trace:
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in
                     span_targets(ts) + count_targets(ts)]
        tracer = Tracer(ts)
        tracer.install()
        try:
            traced = measure(workload, state, budget)
        finally:
            tracer.restore()
        checks.append(("tracer restored every original", all(
            vars(owner)[attr] is original
            for owner, attr, original in originals)))
        checks += traced[2]
        operations += traced[3]
        tracer.write_spans(os.path.join(workdir, "spans.tsv"))
        layer_times = tracer.layer_times()
        result["traced_job_s_each"] = traced[0]
        result["layer_busy_s"] = {n: b for n, (b, _) in layer_times.items()}
        result["layer_calls"] = {n: c for n, (_, c) in layer_times.items()}
        result["counts"] = dict(tracer.counts)
        result["per_layer"] = spec.layer_values(
            layer_times, tracer.counts, len(traced[0]), sum(traced[0]),
            float(np.median(traced[0])), float(np.median(times)))
        outputs += traced[1]
    checks += workload.final_checks(state, outputs)

    failed = [label for label, ok in checks if not ok]
    result.update({
        "attempted": operations + len(checks),
        "failed": len(failed),
        "failed_checks": sorted(set(failed)),
        "end_to_end": {
            "job_s": float(np.median(times)),
            "setup_s": float(np.median(setup_times)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "stages": workload.stages(state, outputs[:len(times)], times),
    })
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return result


def report(result):
    """Human-readable figures on stderr."""
    out = sys.stderr
    e2e = result["end_to_end"]
    share = result["failed"] / result["attempted"]
    print(f"{result['workload']} seed {result['seed']}: "
          f"{len(result['job_s_each'])} untraced passes, "
          f"{len(result['setup_s_each'])} setups", file=out)
    for m in spec.END_TO_END:
        print(f"  {m['name']:28s} {e2e[m['name']]:12.4f} {m['unit']}",
              file=out)
    print(f"  {'failed_share':28s} {share:12.4f} fraction "
          f"({result['failed']}/{result['attempted']})", file=out)
    for name, value in result["stages"].items():
        print(f"  {name:28s} {value:12.4f}", file=out)
    for label in result["failed_checks"]:
        print(f"  FAILED CHECK: {label}", file=out)
    if "per_layer" not in result:
        return
    traced = float(np.median(result["traced_job_s_each"]))
    print(f"  traced job {traced:.4f} s; tracing overhead "
          f"{result['per_layer']['trace.overhead_share']:+.1%} of the "
          f"untraced job", file=out)
    print(f"  {'span (self time)':36s} {'busy_s':>10s} {'calls':>9s} "
          f"{'share':>7s}", file=out)
    total = sum(result["traced_job_s_each"])
    for name in sorted(result["layer_busy_s"],
                       key=lambda n: -result["layer_busy_s"][n]):
        busy = result["layer_busy_s"][name]
        print(f"  {name:36s} {busy:10.4f} {result['layer_calls'][name]:9d} "
              f"{busy / total:7.1%}", file=out)
    print("  wait time: none; one process, one worker, no queue", file=out)


def result_line(result):
    if result["trace"]:
        values, wanted = result["per_layer"], spec.PER_LAYER
    else:
        values, wanted = result["end_to_end"], spec.END_TO_END
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    })


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "platform": platform.platform()}


def record(seed):
    """Write BENCHMARK.json and a baseline of every workload."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
              encoding="utf-8") as fh:
        json.dump(spec.benchmark_record(), fh, indent=2)
        fh.write("\n")
    baseline = {"machine": machine_facts(), "seed": seed, "runs": {}}
    for name, _ in spec.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds",
                 str(spec.RUN_SECONDS), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            sys.stderr.write(proc.stderr)
            with open(os.path.join(WORK, name, "result.json"),
                      encoding="utf-8") as fh:
                full = json.load(fh)
            baseline["runs"][f"{name} trace={trace}"] = {
                "line": json.loads(proc.stdout.splitlines()[-1]),
                "stages": full["stages"],
                "job_s_each": full["job_s_each"],
                "setup_s_each": full["setup_s_each"]}
    with open(os.path.join(ROOT, "perfbench", "baseline.json"), "w",
              encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write BENCHMARK.json and perfbench/baseline.json")
    args = parser.parse_args(argv)
    try:
        import_treesum()
    except MissingPackage as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.record:
        record(args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(result)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
