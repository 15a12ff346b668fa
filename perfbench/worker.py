"""One measured run of one workload, in a fresh process started by run.py.

Set-up (import of arithcs, input generation from the seed, and the
workload's warm-up) is timed from the first line of this file.  Passes of
the workload's fixed batch of operations then run back to back, as a closed
loop with one client.  The number of passes is ``--seconds`` divided by the
workload's nominal pass time (a constant), but at least the workload's
minimum.  So a run lasts about ``--seconds`` on the machine where the
nominal times were measured, and every commit is measured on the same
number of samples, which keeps the tail percentile comparable.  With
``--trace 1`` untraced and traced passes alternate, half of them each, and
the traced ones give the per-layer metrics.  Answers are checked after the
timed passes and the peak-RSS reading.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


class Raised:
    """An operation that raised instead of answering."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __repr__(self):
        return f"raised {self.text}"


def run_pass(wl, ops, tracer=None):
    """Run every operation once; returns (latencies, results)."""
    latencies, results = [], []
    for i, op in enumerate(ops):
        wl.before_op(op)
        if tracer is not None:
            tracer.request = i
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            result = Raised(exc)
        latencies.append(time.perf_counter() - start)
        results.append(result)
    return latencies, results


def tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def median(values):
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def import_time(env, root, repeats=3):
    """Median wall time of ``python -c 'import arithcs'`` in a fresh process."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import arithcs"], cwd=root, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills a running request process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()

    import arithcs as A
    import arithcs.cli  # noqa: F401 - completes the package import (dataio, verify, fixtures)

    src = os.path.join(root, "src", "arithcs")
    if os.path.dirname(os.path.abspath(A.__file__)) != src:
        raise SystemExit(f"arithcs was imported from {A.__file__}, not from {src}")

    import workloads

    workdir = os.path.join(root, ".perfbench", f"cli-{args.seed}-{os.getpid()}")
    wl = workloads.make(args.workload, A, args.seed, root, workdir, dict(os.environ))
    try:
        wl.warm()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = measure(A, wl, args, root)
            result["setup_s"] = setup_s
    finally:
        wl.close()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def measure(A, wl, args, root):
    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(A)
        if args.workload == "cli":
            # per-layer figures need the library in this process
            wl.in_process_mode = True
    ops = wl.ops()
    # answers of the first pass are kept for the checks; later passes keep
    # only fingerprints, so memory does not grow with the pass count
    first, prints = None, []
    walls, latencies, traced = [], [], []
    layer_runs = []
    passes = max(wl.min_passes, round(args.seconds / wl.nominal_pass_s))
    if tracer is not None:
        # a traced run lasts as long as an untraced one: half its passes
        # untraced, half traced, and at least one of each
        passes = max(1, passes // 2)
    for _ in range(passes):
        if first is None:
            with wl.first_pass():
                lat, first = run_pass(wl, ops)
        else:
            lat, res = run_pass(wl, ops)
            prints.append([workloads.fingerprint(r) for r in res])
            del res
        walls.append(sum(lat))
        latencies += lat
        if tracer is not None:
            first_span = tracer.begin_pass()
            wl.cache_stats.reset()
            tracer.install()
            try:
                tlat, tres = run_pass(wl, ops, tracer)
            finally:
                tracer.uninstall()
            wl.cache_stats.collect()
            metrics = tracer.layer_metrics(first_span)
            stats = wl.cache_stats
            metrics["cochains.cache_hit_ratio"] = stats.hits / stats.lookups if stats.lookups else 0.0
            layer_runs.append(metrics)
            traced.append(sum(tlat))
            prints.append([workloads.fingerprint(r) for r in tres])
            del tres
    peak_rss_kb = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    ).ru_maxrss

    failures, failed, refused_badly = [], 0, 0
    for i, op in enumerate(ops):
        answer = first[i]
        try:
            if isinstance(answer, Raised):
                raise workloads.Mismatch(f"unexpected exception: {answer.text}")
            op.check(answer)
            bad = None
        except workloads.Mismatch as exc:
            bad = str(exc)
        except Exception as exc:  # noqa: BLE001 - a check that crashes is a failed answer
            bad = f"check raised {Raised(exc).text}"
        reference = workloads.fingerprint(answer)
        for k, fp in enumerate([reference] + [p[i] for p in prints]):
            why = bad
            if why is None and fp != reference:
                why = f"answer of pass {k + 1} differs from pass 1"
            if why is None:
                continue
            if op.malformed:
                refused_badly += 1
            else:
                failed += 1
            if k == 0 or why != bad:
                kind = "UNDOCUMENTED REFUSAL" if op.malformed else "FAILED"
                failures.append(f"{kind} {op.name}: {why}")
    attempted = len(ops) * (1 + len(prints))
    p, q, n = tail(latencies)
    result = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * p,
        "tail_percentile": q,
        "samples": n,
        "passes": len(walls),
        "ops_per_pass": len(ops),
        "peak_rss_mb": peak_rss_kb / 1024,
        "attempted": attempted,
        "failed": failed,
        "refused_badly": refused_badly,
        "failures": failures,
        "cache_policy": wl.cache_policy,
    }
    if tracer is not None:
        layers = {key: median([run[key] for run in layer_runs]) for key in layer_runs[0]}
        layers["cli.import_s"] = import_time(dict(os.environ), root)
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(walls)
        result["layers"] = layers
        os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
        tracer.write(os.path.join(root, ".perfbench", f"spans-{args.workload}-{args.seed}.jsonl"))
    return result


if __name__ == "__main__":
    main()
