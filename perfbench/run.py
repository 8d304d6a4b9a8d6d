"""tilegate benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The inputs are built from the seed, untimed, under
``.bench_build/perfbench/``.  Then fresh processes, one thread each, are
timed: eight that only set up and one that sets up and runs the workload
(``measure.py``).  Every op's output is checked against ``oracle``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass; the traced
pass's spans go to ``.bench_build/perfbench/trace-<workload>-s<seed>.json``.
Lines before it, prefixed ``perfbench:``, give the environment and details.
"""
from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_build") / "perfbench"

# fresh processes that only set up; with the workload process's own set-up
# they give the median set-up time
SETUP_PROCESSES = 8

# the whole run must end within this many seconds
DEADLINE_S = 170

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _env_block(seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def _child(argv: list, deadline: float) -> dict:
    """Run measure.py in a fresh process; return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("out of time before starting a workload process")
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), *argv],
        capture_output=True, text=True, env=_child_env(), timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _seconds(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "tilegate" / "__init__.py").is_file():
        print(f"perfbench: no tilegate sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    compileall.compile_dir(str(SRC), quiet=1)
    run_dir = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    trace_out = WORK / f"trace-{args.workload}-s{args.seed}.json"
    try:
        plan = workloads.build(args.workload, args.seed, str(run_dir))
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        plan_args = ["--plan", str(plan_path)]

        setup_runs = []
        if not args.trace:
            for _ in range(SETUP_PROCESSES):
                setup_runs.append(_child([*plan_args, "--mode", "setup"], deadline))
        run = _child([*plan_args, "--mode", "run", "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--trace-out", str(trace_out)], deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups = [r["setup_s"] for r in setup_runs] + [run["setup_s"]]
    raw_setups = [r["setup_raw_s"] for r in setup_runs] + [run["setup_raw_s"]]

    print("perfbench: env " + json.dumps(_env_block(args.seed), sort_keys=True))
    print(f"perfbench: workload {args.workload}: {workloads.WORKLOADS[args.workload]}")
    print(f"perfbench: {len(plan['ops'])} ops per pass, {run['passes']} untraced passes "
          f"of {_seconds(run['pass_walls'])} s at probe speed, "
          f"{_seconds(run['raw_pass_walls'])} s measured; output digest {run['digest'][:16]}")
    if not args.trace:
        print(f"perfbench: op_tail_ms is p{run['tail_pct']:.2f} of each pass's {len(plan['ops'])} "
              f"op latencies (at least 10 ops beyond it in 3 passes), median over "
              f"{run['passes']} passes; op_p50_ms is the median over passes of each pass's median")
        print(f"perfbench: setup_s samples {_seconds(setups)} s at probe speed, "
              f"{_seconds(raw_setups)} s measured")
    for err in run["errors"]:
        print(f"perfbench: FAILED {err}")

    correct = run["failed"] == 0 and run["self_check_ok"]
    if args.trace:
        print(f"perfbench: tracer self-check on verify(gen_trivial(47)): {run['self_check']} "
              f"{'ok' if run['self_check_ok'] else 'MISMATCH'}")
        print(f"perfbench: spans written to {trace_out}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": run["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": run["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": run["op_tail_ms"], "unit": "ms"},
            "largest_op_s": {"value": run["largest_op_s"], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        print(f"perfbench: fail_frac {run['failed']}/{run['attempted']}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
