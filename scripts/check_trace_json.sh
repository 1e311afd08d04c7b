#!/usr/bin/env sh
# CI check for the bench harness's --trace Chrome-trace/Perfetto dumps.
#
# Usage: check_trace_json.sh <path-to-fig6a_stream_count> [fig7_macro]
#
# Runs the fastest figure bench in --quick mode with both --trace and --json,
# then validates the span dump: well-formed Chrome trace events (ph/ts/dur),
# sane timestamps, phase coverage across client/mds/osd/disk, the on-demand
# allocator's state-machine instants, the slow-request log, and the span
# quantiles in the metrics registry.
#
# When a fig7_macro binary is also passed, reruns it with --timeseries and
# validates the flight-recorder counter tracks merged into the trace: named
# process metas on pid >= 3, ph "C" counter events with numeric values on a
# non-decreasing per-series time axis, the frag.extent_count track, and the
# workloads' epoch instants.  Registered as a ctest (see bench/CMakeLists.txt).
set -eu

SCRIPT_DIR="$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)"
. "$SCRIPT_DIR/lib.sh"

BENCH="${1:?usage: check_trace_json.sh <fig6a_stream_count binary> [fig7_macro]}"
FIG7="${2:-}"
mif_tmpfile TRACE trace_json
mif_tmpfile METRICS trace_metrics

"$BENCH" --quick --trace "$TRACE" --json "$METRICS" > /dev/null

python3 - "$TRACE" "$METRICS" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def require(cond, msg):
    if not cond:
        sys.exit(f"check_trace_json: FAIL: {msg}")

events = doc.get("traceEvents")
require(isinstance(events, list) and events, "traceEvents missing or empty")

spans = [e for e in events if e.get("ph") == "X"]
require(spans, "no complete ('X') span events")
for e in spans:
    for key in ("name", "cat", "ts", "dur", "pid", "tid"):
        require(key in e, f"span event missing '{key}': {e}")
    require(e["ts"] >= 0, f"negative timestamp: {e}")
    require(e["dur"] >= 0, f"negative duration: {e}")
    require(e["pid"] in (1, 2), f"unknown pid (host=1, sim=2): {e}")
    args = e.get("args", {})
    require("trace_id" in args and "span_id" in args,
            f"span event missing identity args: {e}")

# Phase coverage: every layer of the stack shows up, ≥ 6 distinct phases.
names = {e["name"] for e in spans}
require(len(names) >= 6, f"expected >= 6 distinct phases, got {sorted(names)}")
for layer in ("client.", "mds.", "osd.", "disk."):
    require(any(n.startswith(layer) for n in names),
            f"no '{layer}*' phase in trace ({sorted(names)})")

# The on-demand allocator's state machine shows up as thread-scoped instants
# on the host clock, each naming the (inode, stream) it belongs to.
alloc_instants = [e for e in events if e.get("ph") == "i" and
                  e.get("name") in ("alloc.layout_miss",
                                    "alloc.pre_alloc_layout")]
require(alloc_instants, "no alloc.layout_miss / alloc.pre_alloc_layout "
        "instant ('i') event")
for e in alloc_instants:
    require(e.get("pid") == 1, f"allocator instant off the host pid: {e}")
    for key in ("s", "ts"):
        require(key in e, f"allocator instant missing '{key}': {e}")
    args = e.get("args", {})
    for key in ("inode", "stream"):
        require(key in args, f"allocator instant missing 'args.{key}': {e}")

# Parent/child timestamps are causally sane per trace on the host clock:
# children start no earlier than their parent.
by_span = {e["args"]["span_id"]: e for e in spans if e["pid"] == 1}
checked = 0
for e in by_span.values():
    parent = by_span.get(e["args"].get("parent_id"))
    if parent is None:
        continue
    require(e["ts"] + 1e-6 >= parent["ts"],
            f"child starts before parent: {e}")
    checked += 1
require(checked > 0, "no parent/child pair found on the host clock")

# Sim-disk spans never overlap on one disk's timeline (tid = track).
by_track = {}
for e in spans:
    if e["pid"] == 2:
        by_track.setdefault(e["tid"], []).append((e["ts"], e["dur"]))
for track, ts in by_track.items():
    ts.sort()
    for (a_ts, a_dur), (b_ts, _) in zip(ts, ts[1:]):
        require(a_ts + a_dur <= b_ts + 1e-3,  # 1 ns slack for ms→µs rounding
                f"overlapping sim spans on disk track {track}")
require(by_track, "no sim-disk spans recorded")

slow = doc.get("slowTraces")
require(isinstance(slow, list) and slow, "slowTraces missing or empty")
for t in slow:
    require(t.get("spans"), f"slow trace {t.get('trace_id')} has no spans")
durs = [t["dur_us"] for t in slow]
require(durs == sorted(durs, reverse=True), "slowTraces not slowest-first")

# The metrics registry carries span quantiles for the key phases.
with open(sys.argv[2]) as f:
    metrics = json.load(f)
runs = metrics.get("runs")
require(isinstance(runs, list) and runs, "metrics report has no runs")
hist = runs[-1].get("metrics", {}).get("histograms", {})
for phase in ("span.disk.seek", "span.journal.commit", "span.client.write"):
    require(phase in hist, f"histogram '{phase}' missing from metrics")
    for q in ("p50", "p95", "p99", "p999"):
        require(q in hist[phase], f"'{phase}' missing quantile '{q}'")

print(f"check_trace_json: OK ({len(spans)} spans, {len(names)} phases, "
      f"{len(alloc_instants)} allocator instants, {len(slow)} slow traces)")
EOF

# ---- flight-recorder counter tracks (fig7_macro --timeseries --trace) ------
[ -n "$FIG7" ] || exit 0
"$FIG7" --quick --trace "$TRACE" --timeseries --json "$METRICS" > /dev/null

python3 - "$TRACE" "$METRICS" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def require(cond, msg):
    if not cond:
        sys.exit(f"check_trace_json: FAIL: {msg}")

events = doc.get("traceEvents", [])
require(events, "traceEvents missing or empty")

# Spans still present and still confined to the host/sim pids.
require(any(e.get("ph") == "X" for e in events), "no span events in trace")
for e in events:
    if e.get("ph") == "X":
        require(e["pid"] in (1, 2), f"span on a timeline pid: {e}")

counters = [e for e in events if e.get("ph") == "C"]
require(counters, "no counter ('C') events — timelines not merged")
series = {}
for e in counters:
    for key in ("name", "cat", "ts", "pid", "tid"):
        require(key in e, f"counter event missing '{key}': {e}")
    require(e["pid"] >= 3, f"counter on a span pid: {e}")
    require(e["ts"] >= 0, f"negative counter timestamp: {e}")
    value = e.get("args", {}).get("value")
    require(isinstance(value, (int, float)), f"counter value not numeric: {e}")
    series.setdefault((e["pid"], e["name"]), []).append(e["ts"])
for (pid, name), ts in series.items():
    require(ts == sorted(ts),
            f"counter '{name}' (pid {pid}) timestamps not non-decreasing")
require(any(name == "frag.extent_count" for _, name in series),
        "no frag.extent_count counter track")

# Every timeline pid is a named Perfetto process; epochs land as instants.
meta_pids = {e["pid"] for e in events
             if e.get("ph") == "M" and e.get("name") == "process_name"}
counter_pids = {pid for pid, _ in series}
require(counter_pids <= meta_pids,
        f"unnamed timeline pids: {sorted(counter_pids - meta_pids)}")
instants = [e for e in events
            if e.get("ph") == "i" and e.get("cat") == "epoch"]
require(instants, "no epoch instant ('i') events")
require(any(e.get("name") == "end" for e in instants),
        "no 'end' epoch instant")

# The JSON report carries the matching timeseries sections.
with open(sys.argv[2]) as f:
    metrics = json.load(f)
with_ts = [r for r in metrics.get("runs", []) if "timeseries" in r]
require(with_ts, "fig7 --timeseries report has no timeseries runs")
for run in with_ts:
    times = run["timeseries"].get("times_ms", [])
    require(times, f"run '{run.get('name')}' has an empty time axis")
    for a, b in zip(times, times[1:]):
        require(a < b, f"run '{run.get('name')}' time axis not strictly "
                "increasing")

print(f"check_trace_json: OK (fig7 timeseries: {len(counters)} counter "
      f"events across {len(series)} tracks on {len(counter_pids)} timelines, "
      f"{len(instants)} epoch instants, {len(with_ts)} report runs)")
EOF
