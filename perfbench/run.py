"""Benchmark of arithcs: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the library is imported from ``src/``.
Every measurement happens in fresh child processes with numpy's thread
pools pinned to one thread.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics, with ``--trace 1`` the
per-layer metrics.  The lines before it are a readable report; answers that
fail their checks are listed on standard error.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cohomology_cold", "cs_sweep", "cochain_ops", "cli")
SETUPS = 3  # set-ups per run; setup_s is their median

# The per-layer metrics printed by a traced run: (name, unit).
PER_LAYER = [
    ("zmod.self_s", "s"), ("zmod.calls", "count"), ("zmod.solve_linear_s", "s"), ("zmod.kernel_s", "s"),
    ("zmod.diagonalize_s", "s"), ("zmod.lattice_s", "s"), ("zmod.cells", "count"),
    ("zmod.repeat_ratio", "ratio"),
    ("cochains.dmatrix_s", "s"), ("cochains.dense_bytes", "bytes"), ("cochains.cache_hit_ratio", "ratio"),
    ("cochains.differential_s", "s"), ("cochains.calls", "count"), ("cochains.self_s", "s"),
    ("ops.self_s", "s"), ("ops.calls", "count"), ("ops.homotopy_s", "s"), ("ops.cup_s", "s"),
    ("ops.entries", "count"),
    ("groups.self_s", "s"), ("groups.calls", "count"),
    ("cstheory.self_s", "s"), ("cstheory.calls", "count"), ("cstheory.solves_per_value", "count"),
    ("dataio.self_s", "s"), ("dataio.bytes_in", "bytes"), ("dataio.bytes_out", "bytes"),
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
BUDGET_S = 170  # a run must end within 180 s


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, root, env, deadline, setup_only):
    out = os.path.join(root, ".perfbench", f"result-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: the {args.workload} worker did not finish within the time budget")
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if code != 0:
        raise SystemExit(f"error: the {args.workload} worker exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the worker is killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "arithcs", "__init__.py")):
        print("error: run from the root of an arithcs checkout (src/arithcs is missing)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    env = child_env(root)

    setups = []
    if not args.trace:
        setups = [run_worker(args, root, env, deadline, True)["setup_s"] for _ in range(SETUPS - 1)]
    res = run_worker(args, root, env, deadline, False)
    setups.append(res["setup_s"])
    for line in res["failures"]:
        print(line, file=sys.stderr)

    attempted, failed, bad = res["attempted"], res["failed"], res["refused_badly"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {res['passes']} pass(es) of "
          f"{res['ops_per_pass']} operations, one client, closed loop; caches {res['cache_policy']}")
    print(f"error_rate {(failed + bad) / attempted:.4f} ({failed} wrong answers, {bad} malformed requests "
          f"without a documented refusal, of {attempted} attempted)")
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": res["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_rate": {"value": (attempted - failed - bad) / attempted, "unit": "ratio"},
        }
        print(f"op_tail_ms is the p{res['tail_percentile']:.1f} latency of {res['samples']} samples; "
              f"setup_s is the median of {len(setups)} set-ups")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
