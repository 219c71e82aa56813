#!/usr/bin/env bash
# Runs the micro benchmarks (micro_shared_ops, micro_ablation) in Release and
# emits a merged BENCH_micro.json for the perf trajectory. The parallel
# benchmarks (BM_*Parallel) carry their worker count as a benchmark argument,
# so one run records the whole worker sweep (0 = serial path baseline).
#
# Usage:
#   bench/run_benches.sh [output.json] [--min-time SECONDS] [--overwrite]
#                        [--with-fig8]
#
# --with-fig8 additionally runs fig8_core_scaling --quick once per worker
# count in SDB_FIG8_WORKERS (default "0 2 4") with SDB_WORKERS=<n> and
# records the wall seconds of each run as fig8_wall_seconds/<n>. The fig8
# WIPS numbers themselves are virtual-time (cost-model) results and do not
# change with real worker counts; the wall series shows how long the real
# execution underneath takes.
#
# The output records one entry per benchmark: {"name", "ns"}. When a previous
# BENCH_micro.json with "before_ns"/"after_ns" entries exists at the output
# path it is left as committed history unless you pass --overwrite; the
# "parallel_sweep" and "client_latency" sections are appended/refreshed
# either way. client_latency runs the Server/Session end-to-end bench
# (p50/p95 per blocking Execute at 1/8/64 concurrent sessions).
#
# serial_tails sweeps the formerly-serial cycle tails (k-way merge,
# group-by build) and a Γ-heavy batch across worker counts
# (SDB_TAIL_WORKERS, default "0,2,4"). On a 1-core host only the serial
# baseline (workers:0, plus the shared_work_saved row count, which is
# worker-independent) is recorded and a warning explains why the
# parallel worker counts are skipped — their wall-times there measure
# scheduling overhead, not speedup.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="${1:-$REPO_ROOT/BENCH_micro.json}"
MIN_TIME="0.5"
OVERWRITE=0
WITH_FIG8=0
shift || true
while [[ $# -gt 0 ]]; do
  case "$1" in
    --min-time) MIN_TIME="$2"; shift 2 ;;
    --overwrite) OVERWRITE=1; shift ;;
    --with-fig8) WITH_FIG8=1; shift ;;
    *) echo "unknown arg: $1" >&2; exit 2 ;;
  esac
done

BUILD_DIR="$REPO_ROOT/build-bench"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release \
      -DSDB_BUILD_TESTS=OFF -DSDB_BUILD_EXAMPLES=OFF >/dev/null
TARGETS=(micro_shared_ops micro_ablation client_latency micro_wal serial_tails)
if [[ "$WITH_FIG8" == "1" ]]; then TARGETS+=(fig8_core_scaling); fi
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TARGETS[@]}" >/dev/null

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
"$BUILD_DIR/micro_shared_ops" --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json > "$TMP/shared.json" 2>/dev/null
"$BUILD_DIR/micro_ablation" --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json > "$TMP/ablation.json" 2>/dev/null
"$BUILD_DIR/client_latency" | grep -v '^#' > "$TMP/client_latency.tsv"
"$BUILD_DIR/micro_wal" | grep -v '^#' > "$TMP/micro_wal.tsv"

# serial_tails compares the serial cycle paths against their parallel
# twins (merge, group-by) and times a Γ-heavy batch. On a 1-core box the "parallel"
# numbers are pure scheduling overhead dressed up as a sweep — warn,
# record only the serial baseline (workers:0; shared_work_saved is a
# row count and worker-independent, so it stays meaningful).
if [[ "$(nproc)" -le 1 ]]; then
  echo "warning: nproc=1 — serial_tails records only the workers:0 baseline" \
       "(parallel wall-times would be misleading on a single core); re-run" \
       "on a multi-core host for the real sweep" >&2
  TAIL_WORKERS="0"
else
  TAIL_WORKERS="${SDB_TAIL_WORKERS:-0,2,4}"
fi
"$BUILD_DIR/serial_tails" --workers="$TAIL_WORKERS" \
    | grep -v '^#' > "$TMP/serial_tails.tsv"

FIG8_SERIES=""
if [[ "$WITH_FIG8" == "1" ]]; then
  for W in ${SDB_FIG8_WORKERS:-0 2 4}; do
    T0=$(date +%s.%N)
    SDB_WORKERS="$W" "$BUILD_DIR/fig8_core_scaling" --quick >/dev/null
    T1=$(date +%s.%N)
    FIG8_SERIES+="$W $(echo "$T1 $T0" | awk '{print $1-$2}')\n"
  done
fi

python3 - "$TMP/shared.json" "$TMP/ablation.json" "$OUT" "$OVERWRITE" \
    "$(printf "%b" "$FIG8_SERIES")" "$TMP/client_latency.tsv" \
    "$TMP/micro_wal.tsv" "$TMP/serial_tails.tsv" <<'EOF'
import json, sys, datetime

shared, ablation, out_path, overwrite = (
    sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1")
fig8_raw = sys.argv[5] if len(sys.argv) > 5 else ""
client_tsv = sys.argv[6] if len(sys.argv) > 6 else ""
wal_tsv = sys.argv[7] if len(sys.argv) > 7 else ""
tails_tsv = sys.argv[8] if len(sys.argv) > 8 else ""

client_latency = []
backpressure = []
net_latency = []
if client_tsv:
    with open(client_tsv) as f:
        for line in f:
            parts = line.split()
            if len(parts) != 4:
                continue
            series = parts[0]
            if series.startswith("backpressure/"):
                _, p50, p99, shed = parts
                backpressure.append({"name": f"{series}/p50", "ns": float(p50)})
                backpressure.append({"name": f"{series}/p99", "ns": float(p99)})
                backpressure.append(
                    {"name": f"{series}/shed_rate", "ns": float(shed)})
            elif series.startswith("net_latency/"):
                _, p50, p99, occ = parts
                net_latency.append({"name": f"{series}/p50", "ns": float(p50)})
                net_latency.append({"name": f"{series}/p99", "ns": float(p99)})
                net_latency.append(
                    {"name": f"{series}/mean_batch_occupancy",
                     "ns": float(occ)})
            else:
                _, p50, p95, occ = parts
                client_latency.append({"name": f"{series}/p50", "ns": float(p50)})
                client_latency.append({"name": f"{series}/p95", "ns": float(p95)})
                client_latency.append(
                    {"name": f"{series}/mean_batch_occupancy", "ns": float(occ)})

wal_durability = []
if wal_tsv:
    with open(wal_tsv) as f:
        for line in f:
            parts = line.split()
            if len(parts) != 4:
                continue
            series, per_batch, ops, wal_bytes = parts
            wal_durability.append({"name": f"{series}/ns_per_batch",
                                   "ns": float(per_batch)})
            wal_durability.append({"name": f"{series}/ops_per_sec",
                                   "ns": float(ops)})

serial_tails = []
if tails_tsv:
    with open(tails_tsv) as f:
        for line in f:
            parts = line.split()
            if len(parts) != 4 or not parts[0].startswith("serial_tails/"):
                continue
            series, per_unit, aux, _reps = parts
            if "/gamma/" in series:
                serial_tails.append({"name": f"{series}/ns_per_batch",
                                     "ns": float(per_unit)})
                serial_tails.append({"name": f"{series}/shared_work_saved",
                                     "ns": float(aux)})
            else:
                serial_tails.append({"name": f"{series}/ns_per_row",
                                     "ns": float(per_unit)})

def load(path):
    with open(path) as f:
        data = json.load(f)
    return [{"name": b["name"], "ns": round(b["real_time"], 1)}
            for b in data["benchmarks"]]

entries = load(shared) + load(ablation)
sweep = [e for e in entries if "Parallel" in e["name"]]
# Rebind-heavy series: same statement mix, fresh params per cycle.
# BM_ClockScanCycleRebind rides the template cache's constant-swap path;
# BM_ClockScanCycleRebuild pays a full index build every cycle (the pre-cache
# behavior) — the gap is the rebind win.
rebind = [e for e in entries
          if "Rebind" in e["name"] or "Rebuild" in e["name"]]
for line in fig8_raw.strip().splitlines():
    w, secs = line.split()
    sweep.append({"name": f"fig8_wall_seconds/workers:{w}",
                  "ns": round(float(secs) * 1e9, 1)})

try:
    with open(out_path) as f:
        existing = json.load(f)
    has_history = any("before_ns" in b for b in existing.get("benchmarks", []))
except (FileNotFoundError, json.JSONDecodeError):
    existing, has_history = None, False

REBIND_NOTE = ("rebind-heavy cycles: same statement mix, fresh params each "
               "cycle; Rebind = cached index constant-swap path, Rebuild = "
               "full per-cycle index build")

SWEEP_NOTE = "BM_*Parallel arg pairs end in the worker count; 0 = serial path"

CLIENT_NOTE = ("end-to-end blocking Session::Execute (item_by_id) through the "
               "server heartbeat driver at N closed-loop sessions; "
               "mean_batch_occupancy is statements per non-empty batch (its "
               "'ns' field is a plain count, not nanoseconds)")

BACKPRESSURE_NOTE = ("oversubscription sweep: bounded-admission server "
                     "(queue 16, 2 in-flight/session) under N retrying "
                     "closed-loop sessions; shed_rate is the fraction of raw "
                     "submissions refused synchronously (rejected + shed; a "
                     "plain ratio, not nanoseconds)")

NET_NOTE = ("connections-vs-latency sweep over the TCP front door: N "
            "net::Client loopback connections in closed loop (item_by_id); "
            "compare with client_latency/sessions:N for the cost of the "
            "process boundary; mean_batch_occupancy is a plain count, not "
            "nanoseconds")

WAL_NOTE = ("wal_raw = 100-record batch appended to the log then flushed "
            "(page cache) or synced (fsync); wal_durability = 16-update "
            "engine heartbeat per DurabilityMode; ops_per_sec entries are "
            "records-or-updates/sec (plain rates, not nanoseconds)")

SERIAL_TAILS_NOTE = ("formerly-serial cycle tails at each worker count (0 = "
                     "serial path): merge/group_by report median ns_per_row "
                     "for one SortOp/GroupByOp cycle; gamma reports median "
                     "ns_per_batch for StepBatch with 48 calls over 8 shared "
                     "results, and shared_work_saved is the batch's Γ sharing "
                     "win in rows (a plain count, not nanoseconds); on "
                     "1-core hosts only workers:0 is recorded — the parallel "
                     "sweep there would be misleading")

def kept_note(section, default):
    # A committed section's note may carry hand-written caveats (e.g. the
    # 1-core-container warning) — refreshing the numbers must not clobber it.
    if existing and isinstance(existing.get(section), dict):
        return existing[section].get("note") or default
    return default

if has_history and not overwrite:
    # Committed history stays; refresh the sweep/rebind/client sections.
    existing["parallel_sweep"] = {
        "date": datetime.date.today().isoformat(),
        "note": kept_note("parallel_sweep", SWEEP_NOTE),
        "benchmarks": sweep,
    }
    existing["rebind_series"] = {
        "date": datetime.date.today().isoformat(),
        "note": kept_note("rebind_series", REBIND_NOTE),
        "benchmarks": rebind,
    }
    if client_latency:
        existing["client_latency"] = {
            "date": datetime.date.today().isoformat(),
            "note": kept_note("client_latency", CLIENT_NOTE),
            "benchmarks": client_latency,
        }
    if backpressure:
        existing["backpressure"] = {
            "date": datetime.date.today().isoformat(),
            "note": kept_note("backpressure", BACKPRESSURE_NOTE),
            "benchmarks": backpressure,
        }
    if wal_durability:
        existing["wal_durability"] = {
            "date": datetime.date.today().isoformat(),
            "note": kept_note("wal_durability", WAL_NOTE),
            "benchmarks": wal_durability,
        }
    if net_latency:
        existing["net_latency"] = {
            "date": datetime.date.today().isoformat(),
            "note": kept_note("net_latency", NET_NOTE),
            "benchmarks": net_latency,
        }
    if serial_tails:
        existing["serial_tails"] = {
            "date": datetime.date.today().isoformat(),
            "note": kept_note("serial_tails", SERIAL_TAILS_NOTE),
            "benchmarks": serial_tails,
        }
    with open(out_path, "w") as f:
        json.dump(existing, f, indent=1)
    print(f"{out_path}: committed history kept; parallel_sweep + rebind_series "
          f"+ client_latency + backpressure + wal_durability + net_latency "
          f"+ serial_tails refreshed ({len(sweep)}+{len(rebind)}+{len(client_latency)}"
          f"+{len(backpressure)}+{len(wal_durability)}+{len(net_latency)}"
          f"+{len(serial_tails)} series). Full current run:")
    for e in entries:
        print(f'  {e["name"]:45s} {e["ns"]:>14} ns')
    sys.exit(0)

result = {
    "meta": {
        "date": datetime.date.today().isoformat(),
        "config": "Release, benchmark_min_time from run_benches.sh",
        "unit": "ns",
    },
    "benchmarks": entries,
}
if sweep:
    result["parallel_sweep"] = {
        "date": datetime.date.today().isoformat(),
        "note": kept_note("parallel_sweep", SWEEP_NOTE),
        "benchmarks": sweep,
    }
if rebind:
    result["rebind_series"] = {
        "date": datetime.date.today().isoformat(),
        "note": kept_note("rebind_series", REBIND_NOTE),
        "benchmarks": rebind,
    }
if client_latency:
    result["client_latency"] = {
        "date": datetime.date.today().isoformat(),
        "note": kept_note("client_latency", CLIENT_NOTE),
        "benchmarks": client_latency,
    }
if backpressure:
    result["backpressure"] = {
        "date": datetime.date.today().isoformat(),
        "note": kept_note("backpressure", BACKPRESSURE_NOTE),
        "benchmarks": backpressure,
    }
if wal_durability:
    result["wal_durability"] = {
        "date": datetime.date.today().isoformat(),
        "note": kept_note("wal_durability", WAL_NOTE),
        "benchmarks": wal_durability,
    }
if net_latency:
    result["net_latency"] = {
        "date": datetime.date.today().isoformat(),
        "note": kept_note("net_latency", NET_NOTE),
        "benchmarks": net_latency,
    }
if serial_tails:
    result["serial_tails"] = {
        "date": datetime.date.today().isoformat(),
        "note": kept_note("serial_tails", SERIAL_TAILS_NOTE),
        "benchmarks": serial_tails,
    }
with open(out_path, "w") as f:
    json.dump(result, f, indent=1)
print(f"wrote {out_path} ({len(entries)} benchmarks)")
EOF
