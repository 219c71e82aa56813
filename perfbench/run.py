#!/usr/bin/env python3
"""Wall-clock TPC-W benchmark over SharedDB's TCP front door.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
repository's library from source), runs the tests of the benchmark's own
logic, then measures one workload with two processes:

  * perfbench_server: net::Server + api::Server + Engine over the TPC-W
    database, pinned to every allowed core but the first;
  * perfbench_loadgen: one thread pipelining EXECUTE frames for every
    closed-loop client over at most nproc connections, pinned to the first.

This script relays the generator's window boundaries to the server, checks
the outputs and prints the metrics. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it carry the
provenance record, the raw detail and a human-readable summary.

  python3 perfbench/run.py --workload ordering --seed 1 --seconds 45 --trace 0

--trace 0 reports the end-to-end metrics from one untraced window;
--trace 1 reports the per-layer metrics from a traced run (see README.md).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("browsing", "ordering", "point_lookup")
# setup_s is the median of set-ups timed before and after the measurement,
# so that it samples the host at two moments of the run.
SETUP_REPS_BEFORE = 5
SETUP_REPS_AFTER = 6
# Untraced run: end-to-end metrics are medians over equal slices of about
# this length. A 1.5 s slice holds >= 1,000 interactions of every workload
# even on a slow host, so its p99 still has ten samples beyond it.
SLICE_S = 1.5
WARMUP_S = 2.0          # closed loop running, not measured
RUN_TIMEOUT_S = 150     # watchdog for one run, after the build
GEN_BOUND_FRAC = 0.9    # generator CPU share that flags a generator-bound run
MISSED = 1e9            # ms reported for a percentile that landed on a failure

# Operator kinds of the TPC-W global plan (SharedOp::kind_name()); the
# detail record lists the work of every kind the plan has.
OP_KINDS = ("ClockScan", "GroupBy", "HashJoin", "IndexNLJoin", "IndexProbe",
            "TopN")
WORK_COUNTERS = ("tuples_in", "tuples_out", "rows_scanned", "hash_builds",
                 "hash_probes", "comparisons", "index_lookups",
                 "predicate_evals", "agg_updates", "updates_applied",
                 "qid_elems")

END_TO_END_UNITS = {
    "wips": "1/s",
    "interaction_p50_ms": "ms",
    "interaction_p99_ms": "ms",
    "cpu_us_per_stmt": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not 1 <= a.seconds <= 600:
        die("--seconds must be within [1, 600]", 2)
    if a.seed < 0:
        die("--seed must be non-negative", 2)
    return a


# --- build ----------------------------------------------------------------------


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def build(out_dir):
    """Configures (once) and builds the package; returns the binary dir."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no repository sources next to perfbench/ (need ../src and "
            "../CMakeLists.txt)", 2)
    bdir = os.path.join(out_dir, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "perfbench-build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                die(f"build failed ({' '.join(cmd)}):\n{tail}")
    return bdir


def self_test(bdir):
    """Runs the tests of the benchmark's own logic; None when not built."""
    exe = os.path.join(bdir, "perfbench_test")
    if not os.path.isfile(exe):
        return None
    r = subprocess.run([exe], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=60)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-3000:])
    return r.returncode == 0


# --- provenance -----------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, names in os.walk(top):
            dirnames.sort()
            for n in sorted(names):
                if n.endswith((".h", ".cc", ".py", ".txt")):
                    path = os.path.join(dirpath, n)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# --- one run --------------------------------------------------------------------


class Run:
    """The server and generator processes of one run, and their relay."""

    def __init__(self, bdir, args, work_dir):
        self.bdir = bdir
        self.args = args
        self.work_dir = work_dir
        self.procs = []
        self.timed_out = False

    def start(self, cmd, log_name):
        log = open(os.path.join(self.work_dir, log_name), "w")
        p = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=log, text=True, bufsize=1, cwd=ROOT)
        log.close()
        self.procs.append(p)
        return p

    def kill_all(self):
        self.timed_out = True
        for p in self.procs:
            if p.poll() is None:
                p.kill()

    def stop_all(self):
        for p in self.procs:
            if p.poll() is None:
                try:
                    p.stdin.close()
                except OSError:
                    pass
                try:
                    p.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    p.kill()
                    p.wait()

    @staticmethod
    def read_json(p, what):
        line = p.stdout.readline()
        if not line:
            raise RuntimeError(f"{what}: process ended early")
        try:
            return json.loads(line)
        except ValueError:
            raise RuntimeError(f"{what}: unparseable line {line[:200]!r}")

    def execute(self, cpus, windows, window_s, trace_prefix):
        a = self.args
        gen_cpus = cpus[:1]
        srv_cpus = cpus[1:] if len(cpus) > 1 else cpus
        server = self.start(
            [os.path.join(self.bdir, "perfbench_server"),
             f"--workload={a.workload}", f"--seed={a.seed}",
             f"--setup-reps={SETUP_REPS_BEFORE if not a.trace else 1}",
             f"--tmp-dir={self.work_dir}", f"--trace={a.trace}",
             f"--trace-out={trace_prefix}-server.json" if a.trace else "--trace-out=",
             "--cpus=" + ",".join(map(str, srv_cpus))],
            "server.log")
        ready = self.read_json(server, "server")["ready"]
        gen = self.start(
            [os.path.join(self.bdir, "perfbench_loadgen"),
             f"--workload={a.workload}", f"--seed={a.seed}",
             f"--port={ready['port']}", f"--connections={len(cpus)}",
             f"--warmup-s={WARMUP_S}", f"--window-s={window_s}",
             "--windows=" + ",".join("1" if t else "0" for t in windows),
             f"--next-order={ready['next_order']}",
             f"--next-order-line={ready['next_order_line']}",
             f"--next-cart={ready['next_cart']}",
             f"--next-customer={ready['next_customer']}",
             f"--trace-out={trace_prefix}-client.json" if a.trace else "--trace-out=",
             "--cpus=" + ",".join(map(str, gen_cpus))],
            "loadgen.log")
        result = None
        while result is None:
            msg = self.read_json(gen, "generator")
            if "event" in msg:
                cmd = ("begin %d" % msg["traced"]) if msg["event"] == "begin" else "end"
                server.stdin.write(cmd + "\n")
                server.stdin.flush()
                self.read_json(server, "server")
            else:
                result = msg["result"]
        gen.wait(timeout=30)
        server.stdin.write("report\n")
        server.stdin.flush()
        report = self.read_json(server, "server")["report"]
        setup_s = ready["setup_s"]
        if not a.trace:
            server.stdin.write(f"setup {SETUP_REPS_AFTER}\n")
            server.stdin.flush()
            more = self.read_json(server, "server")
            if not more["ok"]:
                raise RuntimeError("server: a set-up after the run failed")
            setup_s += more["setup_s"]
        return ready, result, report, setup_s


# --- metrics ----------------------------------------------------------------------


def finite(v):
    return MISSED if v is None or not math.isfinite(v) else v


def ratio(num, den):
    return num / den if den else 0.0


def server_sum(report, traced):
    out = {}
    for w in report["windows"]:
        if bool(w["traced"]) != traced:
            continue
        for k, v in w.items():
            if k != "traced":
                out[k] = out.get(k, 0) + v
    return out


def end_to_end(gen_windows, srv_windows, report, setup_s):
    """Medians over the run's equal slices: a burst of host noise that hits
    a few slices moves none of them."""
    med = statistics.median
    return {
        "wips": med(ratio(g["interactions_ok"], g["wall_s"]) for g in gen_windows),
        "interaction_p50_ms": med(finite(g.get("interaction_p50_ms"))
                                  for g in gen_windows),
        "interaction_p99_ms": med(finite(g.get("interaction_p99_ms"))
                                  for g in gen_windows),
        "cpu_us_per_stmt": med(ratio(s["cpu_s"] * 1e6, s["admitted"])
                               for s in srv_windows),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "setup_s": med(setup_s),
    }


def per_layer(gen_t, gen_u, gen_windows, srv, tracer, wal_on):
    stmts = gen_t["stmts_ok"] + gen_t["stmts_failed"]
    admitted = srv["admitted"]
    refused = srv["rejected"] + srv["shed"] + srv["cancelled"] + srv["unavailable"]
    m = {
        "net.wire_ms_p50": gen_t["wire_p50_ms"],
        "net.wire_ms_p99": gen_t["wire_p99_ms"],
        "net.client_encode_us_per_stmt": ratio(gen_t["encode_ns"] / 1e3, stmts),
        "net.client_decode_us_per_stmt": ratio(gen_t["decode_ns"] / 1e3, stmts),
        "net.bytes_out_per_stmt": ratio(srv["bytes_out"], admitted),
        "net.bytes_in_per_stmt": ratio(srv["bytes_in"], admitted),
        "net.frames_out_per_stmt": ratio(srv["frames_out"], admitted),
        "api.queue_ms_p50": gen_t["queue_p50_ms"],
        "api.queue_ms_p99": gen_t["queue_p99_ms"],
        "api.batches_waited_mean": gen_t["batches_waited_mean"],
        "api.mean_batch_occupancy": ratio(admitted, srv["batches"]),
        "api.refused_ratio": ratio(refused, srv["submitted"]),
        "core.batches_per_s": ratio(srv["batches"], srv["wall_s"]),
        "core.exec_ms_p50": tracer["exec_ms_p50"],
        "core.exec_ms_p99": tracer["exec_ms_p99"],
        "core.formation_ms_mean": tracer["formation_ms_mean"],
        "core.post_exec_ms_mean": tracer["post_exec_ms_mean"],
        "core.sharing_ratio": ratio(tracer["rows_delivered"], tracer["rows_touched"]),
        "core.shared_work_saved_per_stmt": ratio(srv["shared_work_saved"], admitted),
    }
    for kind in OP_KINDS:
        m[f"ops.{kind}.work_per_stmt"] = ratio(
            tracer["work_by_kind"].get(kind, 0), tracer["statements"])
    for c in WORK_COUNTERS:
        m[f"ops.{c}_per_stmt"] = ratio(tracer["counters"][c], tracer["statements"])
    builds, rebinds = srv["index_builds"], srv["index_rebinds"]
    m["storage.index_rebind_ratio"] = ratio(rebinds, builds + rebinds)
    m["storage.wal_bytes_per_update"] = ratio(tracer["wal_bytes"], tracer["updates"])
    m["storage.wal_syncs_per_s"] = (
        ratio(tracer["wal_batches"], srv["wall_s"]) if wal_on else 0.0)
    m["runtime.pool_tasks_per_batch"] = ratio(srv["pool_tasks"], srv["batches"])
    m["client.stmt_p50_ms"] = finite(gen_t["stmt_p50_ms"])
    m["client.stmt_p99_ms"] = finite(gen_t["stmt_p99_ms"])
    m["client.gen_cpu_frac"] = ratio(gen_t["cpu_s"], gen_t["wall_s"])
    wips_u = ratio(gen_u["interactions_ok"], gen_u["wall_s"])
    wips_t = ratio(gen_t["interactions_ok"], gen_t["wall_s"])
    m["trace.wips_overhead_pct"] = 100.0 * ratio(wips_u - wips_t, wips_u)
    p50 = {t: statistics.median(finite(g["interaction_p50_ms"])
                                for g in gen_windows[t]) for t in (False, True)}
    m["trace.p50_overhead_pct"] = 100.0 * ratio(p50[True] - p50[False], p50[False])
    return m


PER_LAYER_UNITS = {
    "net.wire_ms_p50": "ms", "net.wire_ms_p99": "ms",
    "net.client_encode_us_per_stmt": "us", "net.client_decode_us_per_stmt": "us",
    "net.bytes_out_per_stmt": "B", "net.bytes_in_per_stmt": "B",
    "net.frames_out_per_stmt": "count",
    "api.queue_ms_p50": "ms", "api.queue_ms_p99": "ms",
    "api.batches_waited_mean": "count", "api.mean_batch_occupancy": "count",
    "api.refused_ratio": "ratio",
    "core.batches_per_s": "1/s", "core.exec_ms_p50": "ms", "core.exec_ms_p99": "ms",
    "core.formation_ms_mean": "ms", "core.post_exec_ms_mean": "ms",
    "core.sharing_ratio": "ratio", "core.shared_work_saved_per_stmt": "count",
    "core.missing_root_outputs": "count",
    "storage.index_rebind_ratio": "ratio", "storage.wal_bytes_per_update": "B",
    "storage.wal_syncs_per_s": "1/s", "runtime.pool_tasks_per_batch": "count",
    "client.stmt_p50_ms": "ms", "client.stmt_p99_ms": "ms",
    "client.gen_cpu_frac": "ratio",
    "trace.wips_overhead_pct": "%", "trace.p50_overhead_pct": "%",
}


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.startswith("ops."):
        return "count"
    return PER_LAYER_UNITS[name]


# --- main ----------------------------------------------------------------------------


def main():
    args = parse_args()
    out_dir = build_root()
    bdir = build(out_dir)
    tests_ok = self_test(bdir)

    cpus = sorted(os.sched_getaffinity(0))
    work_dir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    # One pair of span files per workload: each traced run replaces the
    # last, so repeated runs do not fill the disk.
    trace_prefix = os.path.join(trace_dir, args.workload)
    if args.trace:
        # Untraced, traced, traced, untraced: the two halves see the same
        # drift (the ordering tables grow), so their difference is the
        # tracing overhead alone.
        windows, window_s = [False, True, True, False], args.seconds / 4.0
    else:
        slices = max(1, round(args.seconds / SLICE_S))
        windows, window_s = [False] * slices, args.seconds / slices

    run = Run(bdir, args, work_dir)
    watchdog = threading.Timer(RUN_TIMEOUT_S + args.seconds, run.kill_all)
    watchdog.start()
    try:
        ready, result, report, setup_s = run.execute(cpus, windows, window_s,
                                                     trace_prefix)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        run.kill_all()
        run.stop_all()
        die(f"run failed: {e}" + (" (watchdog fired)" if run.timed_out else "")
            + f"; logs in {work_dir}")
    finally:
        watchdog.cancel()
        run.stop_all()
    shutil.rmtree(work_dir, ignore_errors=True)

    gen_u = result.get("untraced")
    gen_t = result.get("traced")
    gen = gen_t if args.trace else gen_u
    if gen is None or len(result["windows"]) != len(windows) or \
            len(report["windows"]) != len(windows):
        die("the generator or the server is missing measurement windows")
    gen_windows = {t: [g for g, f in zip(result["windows"], windows) if f == t]
                   for t in (False, True)}
    srv_windows = {t: [s for s in report["windows"] if bool(s["traced"]) == t]
                   for t in (False, True)}
    srv_t = server_sum(report, True)

    checks = {
        "self_test": tests_ok is not False,
        "generator_ok": bool(result["ok"]),
        "all_calls_drained": result["drained"] and result["outstanding_at_end"] == 0,
        "outputs_match": result["check_failures"] == 0,
        "admission_identity": report["identity_ok"] and report["pending"] == 0,
        "missing_root_outputs_zero": report["missing_root_outputs"] == 0,
        "wal_ok": report["wal_ok"],
    }
    if args.workload != "point_lookup":
        # The TPC-W mixes must actually share: several statements per
        # heartbeat, and Γ delivering rows to more than one subscriber.
        all_srv = server_sum(report, bool(args.trace))
        checks["shares_batches"] = ratio(all_srv["admitted"],
                                         all_srv["batches"]) > 1.0
        checks["shares_work"] = all_srv["shared_work_saved"] > 0
    if args.trace:
        checks["traced_batches_match_server"] = (
            report["tracer_batches"] == report["batches"])
    correct = all(checks.values())

    attempted = gen["stmts_ok"] + gen["stmts_failed"]
    failed = gen["stmts_failed"]
    if attempted == 0:
        die("no statement was answered during the measurement")
    gen_cpu_frac = ratio(gen["cpu_s"], gen["wall_s"])
    generator_bound = gen_cpu_frac >= GEN_BOUND_FRAC

    if args.trace:
        metrics = per_layer(gen_t, gen_u, gen_windows, srv_t, report["tracer"],
                            args.workload == "ordering")
        metrics["core.missing_root_outputs"] = float(report["missing_root_outputs"])
    else:
        metrics = end_to_end(gen_windows[False], srv_windows[False], report,
                             setup_s)
    interaction_samples = sum(g["interaction_samples"]
                              for g in gen_windows[bool(args.trace)])

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "windows": ["traced" if t else "untraced" for t in windows],
        "window_s": window_s,
        "warmup_s": WARMUP_S,
        "nproc": len(cpus),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "compiler": ready.get("compiler"),
        "build_type": ready.get("build_type"),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "db_scale": {"items": 10000, "num_ebs": 100, "customers": 28800,
                     "orders": ready["next_order"]},
        "client_slots": result["slots"],
        "slot_kind": "outstanding calls" if args.workload == "point_lookup" else "EBs",
        "think_time_s": 0,
        "loop": "closed",
        "connections": result["connections"],
        "generator_threads": result["threads"],
        "pinning": {"generator": cpus[:1],
                    "server": cpus[1:] if len(cpus) > 1 else cpus,
                    "disjoint": len(cpus) > 1},
        "durability": ("group commit, one fsync per heartbeat"
                       if args.workload == "ordering" else "off"),
        "setup_reps": len(setup_s),
        "metric_aggregation": ("per-layer metrics over the traced windows"
                               if args.trace else
                               f"medians over {len(windows)} equal slices"),
    }
    detail = {
        "checks": checks,
        "error_ratio": ratio(failed, attempted),
        "interaction_samples": interaction_samples,
        "interactions_failed": gen["interactions_failed"],
        "stmt_samples": attempted,
        "first_failure": gen["first_failure"] or None,
        "first_check_failure": result["first_check_failure"] or None,
        "generator_error": result["error"] or None,
        "gen_cpu_frac": gen_cpu_frac,
        "generator_bound": generator_bound,
        "server_windows": report["windows"],
        "server_totals": {k: report[k] for k in (
            "submitted", "admitted", "rejected", "shed", "cancelled",
            "unavailable", "batches", "max_batch_occupancy",
            "shared_work_saved", "missing_root_outputs", "cpu_total_s")},
        "setup_s_reps": setup_s,
        "client_windows": result["windows"],
    }
    if args.trace:
        detail["tracer_batches"] = report["tracer_batches"]
        detail["work_by_kind"] = report["tracer"]["work_by_kind"]
        detail["untraced_windows"] = gen_u
        detail["traced_windows"] = gen_t
        detail["trace_files"] = [p for p in (trace_prefix + "-client.json",
                                             trace_prefix + "-server.json")
                                 if os.path.isfile(p)]
    if generator_bound:
        print(f"perfbench: generator-bound run (generator thread busy "
              f"{gen_cpu_frac:.0%} of the window)", file=sys.stderr)

    # Reported, not bounded: p95 sits between the bounded p50 and p99; the
    # error ratio is 0 when healthy, and a bound relative to 0 means nothing.
    unbounded = {}
    if not args.trace:
        unbounded = {
            "interaction_p95_ms": (statistics.median(
                finite(g["interaction_p95_ms"]) for g in gen_windows[False]), "ms"),
            "error_ratio": (detail["error_ratio"], "ratio"),
        }
        detail["interaction_p95_ms"] = unbounded["interaction_p95_ms"][0]
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"detail": detail}))
    lines = [(k, v, unit_of(k)) for k, v in metrics.items()]
    lines += [(k, v, u) for k, (v, u) in unbounded.items()]
    for name, value, unit in lines:
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print(f"# samples: {interaction_samples} interactions, "
          f"{attempted} statements; correct={correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
