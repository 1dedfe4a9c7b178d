#!/usr/bin/env python3
"""Benchmark of the iCPDA simulator: one workload, one seed, one result.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a source checkout. On first use it configures and
builds perfbench/ (the simulator libraries from src/ plus the driver)
into .bench_build/perfbench, then runs the driver, checks every output
the driver reports, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json). The line before it is a {"meta": ...} object that
stamps the run with the host, compiler, build type, commit, seed, load
average and CPU steal. A traced run also writes its spans to
.bench_build/spans/<workload>-seed<seed>.json. Workloads, metrics and
known defects are described in perfbench/NOTES.md.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

WORKLOADS = {
    # name: kind
    "epoch_20k_single": "epoch",
    "epoch_20k_sharded": "epoch",
    "service_400n_100q": "service",
    "attack_2k_serialized": "attack",
}

# Workloads whose epochs synchronize worker threads at every barrier
# crossing (~248k per epoch). A burst of CPU steal on any vCPU stalls
# them all, so single epochs can take several times the others
# (NOTES.md). Their wall_s is the run's fastest epoch, not its median.
BARRIER_BOUND = {"epoch_20k_sharded"}

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
DRIVER_TIMEOUT_S = 170
REL_TOL = 1e-9      # float round-off allowed in count/sum identities
ABS_TOL = 1e-6      # absolute slack on service query errors
# Heap in use after a teardown may exceed the first operation's by the
# main thread's lineage-node recycling pool (at most 16384 nodes, under
# 1 MB), not more: anything beyond is memory leaked across Networks.
LEAK_SLACK_B = 2 << 20
SUM_KIND, AVG_KIND, VAR_KIND = 0, 1, 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- Build -------------------------------------------------------------

def build():
    """Configure (once) and build the driver; raise on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "perfbench_driver", "perfbench_repro"],
                   check=True, stdout=sys.stderr)


# ---- Driver ------------------------------------------------------------

def run_driver(workload, seed, seconds, trace, nodes=None, spans=None):
    """Run the driver; return its records, one dict per output line."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if nodes:
        cmd += ["--nodes", str(nodes)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=DRIVER_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with code %d" % proc.returncode)
    return [json.loads(line) for line in proc.stdout.decode().splitlines() if line]


def records_of(records, kind, role=None):
    return [r for r in records
            if r["rec"] == kind and (role is None or r.get("role") == role)]


def ops_with_queries(records):
    """(op record, its query records) pairs; the driver prints a service
    run's query records just before the run's own record."""
    pending = []
    for r in records:
        if r["rec"] == "query":
            pending.append(r)
        elif r["rec"] == "op":
            yield r, pending
            pending = []


# ---- Output checks -----------------------------------------------------

def close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def exceeds(count, sensors):
    return count > sensors * (1.0 + REL_TOL)


def check_op(kind, op, reading):
    """Problems with one epoch or service-run record ([] when correct).
    Every sensor reads `reading`."""
    bad = []
    if op["events"] <= 0:
        bad.append("no events executed")
    if op.get("lookahead_violations", 0) != 0:
        bad.append("lookahead violations: %d" % op["lookahead_violations"])
    if op.get("lineage_undecided", 0) != 0:
        bad.append("undecided lineage compares: %d" % op["lineage_undecided"])
    if kind == "epoch":
        if not op["has_result"]:
            bad.append("no aggregate reached the base station")
        if op["significant_alarms"] != 0:
            bad.append("benign epoch rejected: %d significant alarms"
                       % op["significant_alarms"])
        if exceeds(op["count"], op["live_sensors"]):
            bad.append("count %.17g exceeds %d live sensors"
                       % (op["count"], op["live_sensors"]))
        if not close(op["sum"], reading * op["count"]):
            bad.append("sum %.17g != %g * count %.17g"
                       % (op["sum"], reading, op["count"]))
    elif kind == "attack":
        if op["compromised"] <= 0:
            bad.append("no node compromised")
        if op["significant_alarms"] == 0 and op["crosscheck_alarms"] == 0:
            bad.append("polluted epoch neither rejected nor flagged")
    elif kind == "service":
        if op["queries"] != 100:
            bad.append("%d query records, expected 100" % op["queries"])
    return bad


def check_teardown(op, heap_base):
    """Problems with the process state after an operation's Network
    (and Dispatcher) were destroyed ([] when nothing outlived them)."""
    bad = []
    # The driver reads 0 threads where /proc is missing.
    if op["threads_after_teardown"] > 1:
        bad.append("%d threads outlive the Network" % op["threads_after_teardown"])
    growth = op["heap_after_teardown_b"] - heap_base
    if growth > LEAK_SLACK_B:
        bad.append("heap in use after teardown grew %d bytes since the first "
                   "operation" % growth)
    return bad


def check_query(q, live_sensors, reading):
    """Problems with one service query record ([] when correct)."""
    bad = []
    if not q["completed"]:
        return ["query %d did not complete" % q["id"]]
    if not q["accepted"]:
        bad.append("query %d rejected" % q["id"])
    if exceeds(q["count"], live_sensors):
        bad.append("query %d count %.17g exceeds %d sensors"
                   % (q["id"], q["count"], live_sensors))
    if q["kind"] == SUM_KIND:
        # One reading everywhere: the error is exactly the readings lost.
        limit = reading * (live_sensors - q["count"] + ABS_TOL * live_sensors)
    else:
        limit = ABS_TOL
    if q["abs_error"] > limit:
        bad.append("query %d abs_error %.3g beyond %.3g"
                   % (q["id"], q["abs_error"], limit))
    return bad


# Outcome fields that must agree between runs of the same deployment.
COUNT_FIELDS = ("events", "count", "sum", "heads", "alarms",
                "significant_alarms", "clusters_failed", "compromised")


def check(workload, records, trace):
    """Count attempted and failed operations; return (attempted, failed, problems).

    An operation is an epoch, or one query of a service run. A service
    run that fails a run-level check fails all of its queries.
    """
    kind = WORKLOADS[workload]
    reading = records_of(records, "meta")[0]["reading"]
    problems = []
    attempted = failed = 0
    ops = records_of(records, "op")
    if not ops:
        problems.append("driver measured nothing")
        return 1, 1, problems
    heap_base = ops[0]["heap_after_teardown_b"]
    for i, (op, queries) in enumerate(ops_with_queries(records)):
        bad = check_op(kind, op, reading) + check_teardown(op, heap_base)
        problems += ["%s op %d: %s" % (op["role"], i, b) for b in bad]
        if kind != "service":
            attempted += 1
            failed += bool(bad)
            continue
        if len(queries) != op["queries"]:
            bad.append("%d query records for %d queries" % (len(queries), op["queries"]))
            problems.append(bad[-1])
        if not queries:
            attempted += 1
            failed += 1
        for q in queries:
            qbad = check_query(q, op["live_sensors"], reading)
            problems += qbad
            attempted += 1
            failed += bool(qbad or bad)
    if trace:
        # Instrumentation must not change the simulation, and the
        # sharded engine must reproduce the single-shard run exactly.
        plain = records_of(records, "op", "plain")
        traced = records_of(records, "op", "traced")
        ref = records_of(records, "op", "reference")
        pairs = [("traced vs plain", traced, plain)]
        if ops[0]["shards"] > 1 or ref:
            pairs.append(("sharded vs shards=1 reference", traced, ref))
        for label, a, b in pairs:
            if len(a) != 1 or len(b) != 1:
                problems.append("%s: missing run" % label)
                attempted += 1
                failed += 1
                continue
            diff = [f for f in COUNT_FIELDS if a[0].get(f) != b[0].get(f)]
            attempted += 1
            if diff:
                failed += 1
                problems.append("%s: %s differ" % (label, ", ".join(diff)))
    return attempted, failed, problems


# ---- Metrics ----------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, records):
    """Median set-up time, median (or, barrier-bound, fastest) epoch
    time, and the process's peak RSS up to the end of its first epoch.
    On the attack workload later epochs often add ~90 MB each that the
    allocator keeps in its per-thread arenas (NOTES.md), so they are
    left out of it; check_teardown catches real leaks instead."""
    setups = [r["s"] for r in records_of(records, "setup")]
    ops = records_of(records, "op", "measured")
    wall = min if workload in BARRIER_BOUND else statistics.median
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall(o["wall_s"] for o in ops), "s"),
        "peak_rss_mb": metric(ops[0]["max_rss_kb"] / 1024.0, "MB"),
    }


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(workload, records):
    """Per-layer metrics of a traced run. Engine metrics read 0 on an
    unsharded workload; service metrics exist only on the service."""
    kind = WORKLOADS[workload]
    op = records_of(records, "op", "traced")[0]
    plain = records_of(records, "op", "plain")[0]
    refs = records_of(records, "op", "reference")
    traced_queries = next(q for o, q in ops_with_queries(records) if o is op)
    builds = [r["s"] for r in records_of(records, "setup")]
    nodes = op["nodes"]
    m = {}

    def put(name, value, unit):
        m[name] = metric(value, unit)

    put("net.build_s", statistics.median(builds), "s")
    put("sim.events", op["events"], "count")
    put("sim.events_per_s", ratio(op["events"], op["wall_s"]), "1/s")
    put("sim.lineage_peak", op["lineage_peak"], "count")
    put("sim.lineage_undecided", op["lineage_undecided"], "count")

    ok = op["channel.rx_ok"]
    put("net.channel.tx_frames", op["channel.tx_frames"], "count")
    put("net.channel.rx_ok", ok, "count")
    put("net.channel.rx_collided", op["channel.rx_collided"], "count")
    put("net.channel.rx_ok_ratio",
        ratio(ok, ok + op["channel.rx_collided"] + op["channel.rx_lost"]
              + op["channel.rx_halfduplex"]), "ratio")
    put("net.mac.tx_attempts", op["mac.tx_attempts"], "count")
    put("net.mac.attempts_per_ok", ratio(op["mac.tx_attempts"], op["mac.tx_ok"]),
        "ratio")
    put("net.mac.cs_busy", op["mac.cs_busy"], "count")
    for part in ("topology", "schedulers", "channel", "macs", "metrics", "plan",
                 "objects"):
        put("net.footprint.%s_b_per_node" % part, op["fp." + part] / nodes, "B")

    rounds = op.get("engine.rounds", 0)
    crossings = rounds + op.get("engine.gate_rounds", 0)
    gate = op.get("engine.gate_events", 0)
    par = op.get("engine.parallel_events", 0)
    put("net.engine.rounds", rounds, "count")
    put("net.engine.gate_rounds", op.get("engine.gate_rounds", 0), "count")
    put("net.engine.gate_events", gate, "count")
    put("net.engine.parallel_fraction", ratio(par, par + gate), "ratio")
    put("net.engine.lookahead_violations", op["lookahead_violations"], "count")
    put("net.engine.plan_border_nodes", op.get("plan.border_nodes", 0), "count")
    put("net.engine.plan_balance", op.get("plan.balance", 0.0), "ratio")
    overhead = op["wall_s"] - refs[0]["wall_s"] if refs else 0.0
    put("net.engine.overhead_s", overhead, "s")
    put("net.engine.overhead_us_per_round", ratio(overhead * 1e6, crossings), "us")
    put("net.engine.speedup", ratio(refs[0]["wall_s"], op["wall_s"]) if refs else 0.0,
        "ratio")

    put("proc.wall_s", op["wall_s"], "s")
    put("proc.cpu_s", op["cpu_s"], "s")
    put("proc.cores_busy", ratio(op["cpu_s"], op["wall_s"]), "ratio")
    put("proc.trace_overhead_frac", ratio(op["wall_s"] - plain["wall_s"], plain["wall_s"]),
        "ratio")

    put("crypto.link_key_calls", op["crypto.link_key_calls"], "count")
    put("crypto.link_keys_calls", op["crypto.link_keys_calls"], "count")
    put("crypto.key_s", op["crypto.key_s"], "s")

    outcomes = traced_queries if kind == "service" else [op]
    for field in ("heads", "count", "clusters_failed", "alarms",
                  "significant_alarms", "compromised"):
        put("core." + field, sum(o[field] for o in outcomes), "count")
    put("core.share_sent", op["icpda.share_sent"], "count")
    put("core.report_merged", op["icpda.report_merged"], "count")

    if kind != "service":
        return m
    put("service.instances_created", op["service.instance_created"], "count")
    put("service.frames_retired_query", op["service.frame_retired_query"], "count")
    put("service.rss_per_query_kb", op["heap_growth_b"] / 1024.0 / op["queries"], "kB")
    put("service.sim_p50_s", op["sim_p50_s"], "s")
    put("service.sim_p99_s", op["sim_p99_s"], "s")
    put("service.sim_queue_wait_mean_s", op["sim_queue_wait_mean_s"], "s")
    put("service.events_per_query", ratio(op["events"], op["queries"]), "count")
    return m


# ---- Span summary ------------------------------------------------------

def span_self_times(path):
    """Total self time (span minus its children) per span name, seconds."""
    with open(path) as f:
        spans = json.load(f)["spans"]
    self_ns = {}
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    for s, c in zip(spans, child_ns):
        self_ns[s["name"]] = self_ns.get(s["name"], 0) + s["end_ns"] - s["start_ns"] - c
    return {k: v * 1e-9 for k, v in sorted(self_ns.items())}


# ---- Main ------------------------------------------------------------

def cpu_ticks():
    """The host's CPU time counters (the "cpu" line of /proc/stat), or
    None where there is no such file."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_fraction(start, end):
    """Share of all CPU time the hypervisor took from this VM between
    two cpu_ticks() readings. Stolen time stalls the sharded engine's
    barrier; it explains most slow sharded epochs (NOTES.md)."""
    if not start or not end or len(start) < 8 or len(end) < 8:
        return None
    total = sum(end) - sum(start)
    return (end[7] - start[7]) / total if total > 0 else None


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10, check=False)
        return out.stdout.decode().strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    load_start = os.getloadavg()
    cpu_start = cpu_ticks()
    try:
        build()
        spans = None
        if args.trace:
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, "%s-seed%d.json" % (args.workload, args.seed))
        records = run_driver(args.workload, args.seed, args.seconds, args.trace,
                             spans=spans)
        attempted, failed, problems = check(args.workload, records, args.trace)
        metrics = (per_layer(args.workload, records) if args.trace
                   else end_to_end(args.workload, records))
        bad_names = [n for n in metrics if not METRIC_NAME.match(n)]
        if bad_names:
            raise ValueError("malformed metric names: %s" % bad_names)
    except (RuntimeError, OSError, subprocess.SubprocessError, KeyError,
            IndexError, ValueError, statistics.StatisticsError) as e:
        log("perfbench: %s: %s" % (type(e).__name__, e))
        return 1
    for p in problems:
        log("perfbench: FAILED CHECK: " + p)

    meta = dict(records_of(records, "meta")[0])
    del meta["rec"]
    meta.update({
        "git_describe": git_describe(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "steal_frac": steal_fraction(cpu_start, cpu_ticks()),
        "max_rss_mb_end": records_of(records, "proc")[0]["max_rss_kb"] / 1024.0,
        "failed_ratio": failed / attempted,
        "setup_samples": len(records_of(records, "setup")),
        "op_walls_s": [r["wall_s"] for r in records_of(records, "op")],
    })
    if spans:
        meta["spans"] = os.path.relpath(spans, ROOT)
        meta["span_self_s"] = span_self_times(spans)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
