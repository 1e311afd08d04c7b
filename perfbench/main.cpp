// mif_perfbench — the repository benchmark program.
//
//   mif_perfbench --workload <shared_ckpt|smallfile_churn|aged_meta>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// Repeats rounds of one workload (mount, set up, fixed measured phase,
// checks) with the same seed until the measured phases add up to --seconds
// (at least three untraced rounds; with --trace 1 untraced and traced rounds
// alternate, at least two traced).  Prints every metric with its unit and
// sample count, then one JSON result line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  Exits 1 when a
// correctness or determinism check fails, 2 on a usage error.  See
// perfbench/README.md for what each workload and metric means.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinUntraced = 3;
constexpr std::size_t kMinTraced = 2;
/// Stop starting rounds after this much wall time, so a run always ends
/// well inside three minutes.
constexpr double kWallCapS = 120.0;
/// Host times are reported in reference seconds: a round's CPU seconds
/// times kRefCalibrationS over the mean of the calibration times measured
/// just before and just after the round.  The constant only fixes the unit
/// (one reference second is the time of 1 / 0.057 kernel runs); it was
/// picked so that the unit is close to a CPU second on a 4-vCPU 2.1 GHz
/// Xeon VM.  The scaling exists because on a shared host the speed of a CPU
/// second drifts between runs minutes apart, which no rerun of the same
/// build can average out.
constexpr double kRefCalibrationS = 0.057;
/// Span ring size for traced rounds; the recorder drains it every few calls,
/// and a round whose ring still wrapped fails its trace check.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::size_t samples;  // latency samples, rounds, or lookups behind it
};

struct Args {
  std::string workload;
  u64 seed{1};
  double seconds{16.0};
  bool trace{false};
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::string(v) == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

/// Hand freed heap back to the kernel, then reset the process's
/// resident-set high-water mark to what is left, so a round's peak leaves
/// out the calibration kernel and earlier rounds.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Resident-set high-water mark in MB since the last reset_peak_rss().
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  return 0.0;
}

/// A host-clock value from one round, with the samples behind it.
struct Value {
  double v{0.0};
  std::size_t n{0};
};

/// What one finished round contributes to the report.  Rounds are reduced
/// to this as they finish, so memory does not grow with the run length.
struct Sample {
  double calibration_s{0.0};
  // Host times in reference seconds (see kRefCalibrationS).
  double setup_s{0.0};
  double measure_s{0.0};
  double ops_per_s{0.0};
  double peak_rss_mb{0.0};
  std::map<std::string, Value> host;
};

std::string latency_key(Call c, const char* q) {
  return std::string(info(c).metric) + ".host_us." + q;
}

Sample summarise(const Round& r, double calibration_s, double rss_mb,
                 bool traced) {
  Sample s;
  const double to_ref = kRefCalibrationS / calibration_s;
  s.calibration_s = calibration_s;
  s.setup_s = r.setup_s * to_ref;
  s.measure_s = r.measure_s * to_ref;
  s.ops_per_s = static_cast<double>(r.rec.ops()) / s.measure_s;
  s.peak_rss_mb = rss_mb;
  auto& h = s.host;
  if (traced) {
    for (const auto& [layer, ms] : r.ledger.self_ms()) h[layer + ".self_ms"] = {ms, 1};
    const auto& decide = r.ledger.alloc_decide_us();
    h["alloc.decide.host_us.p99"] = {percentile(decide, 0.99), decide.size()};
    return s;
  }
  for (std::size_t i = 0; i < Recorder::kCalls; ++i) {
    const Call c = static_cast<Call>(i);
    const auto& v = r.rec.samples(c);
    h[latency_key(c, "p50")] = {percentile(v, 0.50), v.size()};
    h[latency_key(c, "p99")] = {percentile(v, 0.99), v.size()};
  }
  h["sim.drain.host_ms"] = {r.rec.total_ms(Call::kSimDrain),
                            r.rec.samples(Call::kSimDrain).size()};
  h["block.data.find_run.probe_us"] = {r.probe.data_find_run_us,
                                       r.probe.data_lookups};
  h["block.meta.free_scan.probe_us"] = {r.probe.meta_free_scan_us,
                                        r.probe.meta_scans};
  return s;
}

/// Median over samples of one per-round value.
template <typename F>
double median_of(const std::vector<Sample>& samples, F&& f) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(f(s));
  return median(std::move(v));
}

/// Median over samples of a host value, with the samples summed.  A value
/// a round never produced (a layer with no spans) counts as 0.
Metric host_metric(const std::vector<Sample>& samples, const std::string& key,
                   const char* unit) {
  std::size_t n = 0;
  const double v = median_of(samples, [&](const Sample& s) {
    const auto it = s.host.find(key);
    if (it == s.host.end()) return 0.0;
    n += it->second.n;
    return it->second.v;
  });
  return {key, unit, v, n};
}

std::vector<Metric> end_to_end(const std::vector<Sample>& untraced,
                               const std::map<std::string, double>& det) {
  const std::size_t n = untraced.size();
  double max_rss = 0.0;
  for (const Sample& s : untraced) max_rss = std::max(max_rss, s.peak_rss_mb);
  return {
      {"setup_s", "s", median_of(untraced, [](const Sample& s) { return s.setup_s; }), n},
      {"host_ops_per_s", "1/s",
       median_of(untraced, [](const Sample& s) { return s.ops_per_s; }), n},
      {"peak_rss_mb", "MB", max_rss, n},
      {"sim_ops_per_s", "1/s", det.at("sim_ops_per_s"), n},
      {"sim_write_MBps", "MB/s", det.at("sim_write_MBps"), n},
      {"sim_read_MBps", "MB/s", det.at("sim_read_MBps"), n},
  };
}

std::vector<Metric> per_layer(const std::vector<Sample>& untraced,
                              const std::vector<Sample>& traced,
                              const std::map<std::string, double>& det) {
  std::vector<Metric> out;
  const std::size_t n = untraced.size();
  auto lat = [&](Call c, bool p99) {
    out.push_back(host_metric(untraced, latency_key(c, "p50"), "us"));
    if (p99) out.push_back(host_metric(untraced, latency_key(c, "p99"), "us"));
  };
  auto count = [&](const char* name, const char* unit) {
    out.push_back({name, unit, det.at(name), n});
  };
  auto self = [&](const char* layer) {
    out.push_back(host_metric(traced, std::string(layer) + ".self_ms", "ms"));
  };

  lat(Call::kClientWrite, true);
  lat(Call::kClientRead, true);
  lat(Call::kClientCreate, true);
  count("client.readahead_hit_frac", "ratio");
  self("client");

  count("rpc.envelopes_per_op", "1/op");
  count("rpc.net_ms", "ms");
  self("rpc");

  lat(Call::kMdsCreate, true);
  lat(Call::kMdsStat, true);
  lat(Call::kMdsUnlink, true);
  lat(Call::kMdsReaddirStats, false);
  count("mds.cpu_ms", "ms");
  count("mds.extent_ops", "count");
  self("mds");

  count("mfs.cache.hit_ratio", "ratio");
  count("mfs.cache.evictions", "count");
  count("mfs.disk.accesses_per_op", "1/op");
  count("mfs.disk.busy_ms", "ms");
  count("mfs.journal.blocks_per_txn", "blocks");
  self("journal");

  count("alloc.window_hit_frac", "ratio");
  count("alloc.extents_per_file.mean", "count");
  count("alloc.extents_per_file.p99", "count");
  out.push_back(host_metric(traced, "alloc.decide.host_us.p99", "us"));
  self("alloc");

  out.push_back(host_metric(untraced, "block.data.find_run.probe_us", "us"));
  count("block.data.free_runs", "count");
  count("block.data.utilisation", "ratio");
  out.push_back(host_metric(untraced, "block.meta.free_scan.probe_us", "us"));
  count("block.meta.free_runs", "count");

  lat(Call::kOsdDeleteFile, true);
  self("osd");

  count("sim.positionings_per_MB", "1/MB");
  count("sim.io.merge_frac", "ratio");
  count("sim.disk.seek_ms", "ms");
  count("sim.disk.rotation_ms", "ms");
  count("sim.disk.transfer_ms", "ms");
  out.push_back(host_metric(untraced, "sim.drain.host_ms", "ms"));
  self("sim");

  const double t_traced =
      median_of(traced, [](const Sample& s) { return s.measure_s; });
  const double t_plain =
      median_of(untraced, [](const Sample& s) { return s.measure_s; });
  out.push_back({"trace.overhead_frac", "ratio", t_traced / t_plain - 1.0,
                 traced.size()});
  count("op_error_frac", "ratio");
  out.push_back({"host.calibration_ms", "ms",
                 1000.0 * median_of(untraced, [](const Sample& s) { return s.calibration_s; }),
                 n});
  return out;
}

void print_metrics(const std::string& workload, const char* section,
                   const std::vector<Metric>& ms) {
  std::printf("%s — %s\n", workload.c_str(), section);
  for (const Metric& m : ms) {
    std::printf("  %-32s %16.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void print_result(bool correct, u64 attempted, u64 failed,
                  const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// First key whose value differs between two rounds' deterministic maps.
std::string first_mismatch(const std::map<std::string, double>& a,
                           const std::map<std::string, double>& b) {
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it == b.end() || it->second != v) return k;
  }
  for (const auto& [k, v] : b) {
    if (!a.count(k)) return k;
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: mif_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == args.workload) wl = &w;
  }
  if (!wl) {
    std::fprintf(stderr, "mif_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  const auto start = Clock::now();
  calibration_seconds();  // warm-up: the first run also pays page faults
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  std::vector<std::string> errors;
  std::map<std::string, double> reference;
  u64 attempted = 0;
  u64 failed = 0;
  double measured = 0.0;
  for (std::size_t i = 0;; ++i) {
    const bool trace_round = args.trace && i % 2 == 1;
    std::unique_ptr<mif::obs::SpanCollector> spans;
    if (trace_round) {
      mif::obs::Config cfg;
      cfg.span_capacity = kSpanCapacity;
      spans = std::make_unique<mif::obs::SpanCollector>(cfg);
    }
    const double calibration_before = calibration_seconds();
    reset_peak_rss();
    Round r;
    r.seed = args.seed;
    r.spans = spans.get();
    wl->run(r);
    // Read the peak before the second calibration run can add to it.
    const double rss_mb = peak_rss_mb();
    const double calibration_s =
        0.5 * (calibration_before + calibration_seconds());
    r.spans = nullptr;
    if (trace_round && r.ledger.dropped() > 0)
      r.errors.push_back("span ring wrapped; the trace is incomplete");
    if (i == 0) {
      reference = r.det;
    } else if (const std::string k = first_mismatch(reference, r.det);
               !k.empty()) {
      r.errors.push_back("determinism: '" + k + "' differs between rounds");
    }
    attempted += r.rec.attempted();
    failed += r.rec.failed();
    if (!r.errors.empty()) {
      errors = r.errors;
      break;
    }
    measured += r.measure_s;
    (trace_round ? traced : untraced)
        .push_back(summarise(r, calibration_s, rss_mb, trace_round));
    const bool enough = measured >= args.seconds &&
                        untraced.size() >= kMinUntraced &&
                        (!args.trace || traced.size() >= kMinTraced);
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (enough || (wall > kWallCapS && !untraced.empty() &&
                   (!args.trace || !traced.empty())))
      break;
  }

  if (!errors.empty()) {
    for (const std::string& e : errors)
      std::fprintf(stderr, "%s: CHECK FAILED: %s\n", args.workload.c_str(),
                   e.c_str());
    print_result(false, attempted, failed, {});
    return 1;
  }

  const std::vector<Metric> e2e = end_to_end(untraced, reference);
  print_metrics(args.workload, "end to end (untraced rounds)", e2e);
  if (!args.trace) {
    print_result(true, attempted, failed, e2e);
    return 0;
  }
  const std::vector<Metric> layers = per_layer(untraced, traced, reference);
  print_metrics(args.workload, "per layer", layers);
  print_result(true, attempted, failed, layers);
  return 0;
}
