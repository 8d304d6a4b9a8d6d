"""One fresh workload process: set up, run timed passes, check every output.

    python3 perfbench/measure.py --plan PLAN --mode setup
    python3 perfbench/measure.py --plan PLAN --mode run --seconds S --trace 0|1 [--trace-out F]

``setup`` times ``import tilegate`` plus one untimed warm-up op per
distinct modulus of the workload, and prints it.  ``run`` does the same,
then runs passes over the plan's ops: untraced passes for ``--seconds``
(at least ``MIN_PASSES``); with ``--trace 1``, untraced passes for half the
time, then one traced pass and the tracer self-check.  The last stdout line
is one JSON object with the measurements.  ``run.py`` starts this script;
it is not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import time
from fractions import Fraction

# imported inside main(), after the set-up clock starts
tilegate = oracle = Tracer = layer_metrics = verify_subtree_counts = None

MIN_PASSES = 3

# an op running longer than this has failed
OP_TIMEOUT_S = 60

# The op tail is read at a fixed percentile per workload: the highest with
# at least TAIL_BEYOND ops beyond it among MIN_PASSES passes.  Like the median
# op, it is taken in each pass and reported as the median over passes, so
# that a run's figure does not hinge on one slow sample.
TAIL_BEYOND = 10

# verify(gen_trivial(47)) as measured from outside the program: calls below
# the verify span.  They must repeat exactly on every traced run.
SELF_CHECK_N = 47
SELF_CHECK = {"orientation": 28576, "fallbacks": 141, "fallback_zero": 141,
              "disjoint": 4371, "angle_matches": 376}


# -- speed probe ----------------------------------------------------------------
#
# On a shared host a VM's speed can swing by up to +-30% within seconds,
# more than any regression bound.  So every time is reported at a fixed probe
# speed: a fixed piece of interpreter work, none of it tilegate's, is timed
# every PROBE_EVERY_S of CPU time (from a SIGPROF handler, so inside long ops
# too), and an op's measured seconds, less the probes run inside it, are
# scaled by PROBE_NOMINAL_S over the median probe time around it.  Raw
# seconds are reported beside the scaled ones.

PROBE_EVERY_S = 0.02
PROBE_WINDOW_S = 0.25
# probe time on the machine the benchmark was defined on (2-vCPU Xeon VM)
PROBE_NOMINAL_S = 7.0e-4


def probe() -> float:
    """Seconds taken by a fixed piece of integer, dict and Fraction work."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(3000):
        acc += (i * 7919) % 1009
        table[i & 255] = acc
    f = Fraction(1, 3)
    for i in range(60):
        f = f * Fraction(i + 1, i + 2) + 1
    return time.perf_counter() - t0


class Speed:
    """Probe samples taken while the context is active."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0  # seconds spent probing, to subtract from op times
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.took.append(probe())
        self.at.append(start)
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Speed":
        self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from measured to probe-speed seconds for [t0, t1]: the
        median probe within PROBE_WINDOW_S of it, and at least the nearest
        probe on each side."""
        at = self.at
        lo = min(bisect.bisect_left(at, t0 - PROBE_WINDOW_S), max(bisect.bisect_right(at, t0) - 1, 0))
        hi = max(bisect.bisect_right(at, t1 + PROBE_WINDOW_S), min(bisect.bisect_left(at, t1) + 1, len(at)))
        return PROBE_NOMINAL_S / statistics.median(self.took[lo:hi])


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op ran longer than {OP_TIMEOUT_S} s")


def warm_up(plan: dict) -> None:
    """One small verify per polygon (so per modulus): builds the field
    tables, cosine enclosures, polygon vertices and rotations once."""
    for n in plan["warmup_ns"]:
        full = tilegate.gen_trivial(n)
        one = tilegate.Tiling(full.n, full.alpha, full.modulus, full.triangles[:1])
        tilegate.verify(one)
    if not plan["warmup_ns"]:
        with contextlib.redirect_stdout(io.StringIO()):
            tilegate.cli.main(["candidates", "--n", "5", "--json"])


def _prepare(op: dict):
    if op["kind"] == "cli":
        return _run_cli, tuple(op["argv"])
    return _run_audit, (op["n"], Fraction(op["a"]))


def _run_cli(*argv) -> "tuple[int, str]":
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(OP_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tilegate.cli.main(list(argv))
    finally:
        signal.alarm(0)
    return code, out.getvalue()


def _run_audit(n: int, a: Fraction) -> "tuple[int, str]":
    # serialized the way the CLI's --json output is
    verdict = tilegate.classify.impossibility_audit(n, a)
    return 0, json.dumps(verdict.to_obj(), sort_keys=True, separators=(",", ":")) + "\n"


def run_pass(ops: list, prepared: list, tracer: "Tracer | None") -> dict:
    """Run every op once; return latencies, outputs' digest and failures."""
    gc.collect()
    spans, results = [], []
    clock = time.perf_counter
    begin = clock()
    with Speed() as speed:
        for op, (fn, args) in zip(ops, prepared):
            ctx = tracer.op(op["id"], op["kind"]) if tracer else contextlib.nullcontext()
            probed, t0 = speed.spent, clock()
            try:
                with ctx:
                    code, out = fn(*args)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                code, out = None, f"raised {exc!r}"
            spans.append((t0, clock(), speed.spent - probed))
            results.append((code, out))
    elapsed = clock() - begin
    raw = [t1 - t0 - probed for t0, t1, probed in spans]
    latencies = [r * speed.scale(t0, t1) for r, (t0, t1, _) in zip(raw, spans)]
    digest = hashlib.sha256()
    errors = []
    for op, (code, out), latency in zip(ops, results, raw):
        digest.update(f"{op['id']}\0{code}\0{out}\0".encode())
        if code is None:
            err = out
        elif latency > OP_TIMEOUT_S:
            err = f"took {latency:.1f} s"
        else:
            err = oracle.check(op["expect"], code, out)
        if err:
            errors.append(f"op {op['id']} {op.get('argv') or (op['n'], op['a'])}: {err}")
    stdout_bytes = sum(len(out.encode()) for op, (_, out) in zip(ops, results)
                       if op["kind"] == "cli")
    return {"wall": sum(latencies), "raw_wall": sum(raw), "elapsed": elapsed,
            "latencies": latencies,
            "digest": digest.hexdigest(),
            "errors": errors, "stdout_bytes": stdout_bytes}


def tail_percentile(ops_per_pass: int) -> float:
    pooled = ops_per_pass * MIN_PASSES
    return 100.0 * max(0.0, 1.0 - TAIL_BEYOND / pooled)


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def self_check() -> dict:
    tiling = tilegate.gen_trivial(SELF_CHECK_N)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(-1, "selfcheck"):
            tilegate.tiling.verify(tiling)
    finally:
        tracer.uninstall()
    return verify_subtree_counts(tracer)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--mode", choices=["setup", "run"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    global tilegate, oracle, Tracer, layer_metrics, verify_subtree_counts
    with Speed() as speed:
        probed, t0 = speed.spent, time.perf_counter()
        import tilegate.classify
        import tilegate.cli
        warm_up(plan)
        t1, probed = time.perf_counter(), speed.spent - probed
    setup_raw = t1 - t0 - probed
    setup_s = setup_raw * speed.scale(t0, t1)

    import oracle
    from tracer import Tracer, layer_metrics, verify_subtree_counts
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    ops = plan["ops"]
    prepared = [_prepare(op) for op in ops]
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = []
    begin = time.perf_counter()
    # start another pass only if it should end within the budget
    while (len(passes) < (1 if args.trace else MIN_PASSES)
           or time.perf_counter() - begin + passes[-1]["elapsed"] <= budget):
        passes.append(run_pass(ops, prepared, None))
    traced = None
    layers = {}
    check_counts = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, prepared, tracer)
        finally:
            tracer.uninstall()
        if args.trace_out:
            tracer.write(args.trace_out)
        layers = layer_metrics(tracer)
        layers["cli.stdout_bytes"] = (traced["stdout_bytes"], "bytes")
        untraced_wall = statistics.median(p["wall"] for p in passes)
        overhead = traced["wall"] - untraced_wall
        layers["trace.overhead_s"] = (overhead, "s")
        layers["trace.overhead_frac"] = (overhead / untraced_wall, "ratio")
        check_counts = self_check()

    every = passes + ([traced] if traced else [])
    reference = every[0]["digest"]
    attempted = failed = 0
    errors = []
    for p in every:
        attempted += len(ops)
        if p["digest"] != reference:
            failed += len(ops)
            errors.append("output digest differs from the first pass")
        else:
            failed += len(p["errors"])
            errors.extend(p["errors"])
    tail_pct = tail_percentile(len(ops))
    largest = plan["largest"]
    result = {
        "setup_s": setup_s,
        "passes": len(passes),
        "pass_walls": [p["wall"] for p in passes],
        "raw_pass_walls": [p["raw_wall"] for p in passes],
        "setup_raw_s": setup_raw,
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(p["latencies"]) for p in passes),
        "op_tail_ms": 1e3 * statistics.median(percentile(p["latencies"], tail_pct) for p in passes),
        "tail_pct": tail_pct,
        "largest_op_s": statistics.median(p["latencies"][largest] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "digest": reference,
        "layers": layers,
        "self_check": check_counts,
        "self_check_ok": check_counts is None or check_counts == SELF_CHECK,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
