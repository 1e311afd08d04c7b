// Observability tour: mount a cluster with a span collector attached, run
// the shared-file micro-benchmark, then print everything the obs layer can
// tell you about it — the metrics registry as text, the allocator
// state-machine instants, and (with --json <path>) the full machine-readable
// report with the Chrome-trace span dump under "trace".
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/obs_report [--json report.json]
#include <cstdio>
#include <string>

#include "obs/report.hpp"
#include "workload/shared_file.hpp"

int main(int argc, char** argv) {
  using namespace mif;
  obs::BenchReport report("obs_report", argc, argv);

  core::ClusterConfig cfg;
  cfg.num_targets = 5;
  cfg.target.allocator = alloc::AllocatorMode::kOnDemand;
  core::ParallelFileSystem fs(cfg);

  // Attach one span collector to the whole stack: client, MDS, OSD and disk
  // phases plus every allocator and buffer-cache instant record into it.
  // Sized so this workload never wraps the ring.
  obs::Config ocfg;
  ocfg.span_capacity = 1 << 15;
  obs::SpanCollector spans(ocfg);
  fs.set_spans(&spans);

  workload::SharedFileConfig wcfg;
  wcfg.processes = 16;
  wcfg.blocks_per_process = 128;
  wcfg.request_blocks = 4;
  wcfg.read_segments = 256;
  const auto res = workload::run_shared_file(fs, wcfg);

  // --- the registry: every layer's counters under one namespace -----------
  obs::MetricsRegistry reg;
  fs.export_metrics(reg);
  std::printf("=== metrics registry ===\n%s\n", reg.to_text().c_str());

  // --- the instants: what the on-demand state machine actually did -------
  const std::vector<obs::SpanRecord> recs = spans.spans();
  u64 misses = 0, promotions = 0, demotions = 0, lazy_frees = 0;
  for (const auto& r : recs) {
    if (r.name == "alloc.layout_miss") ++misses;
    if (r.name == "alloc.pre_alloc_layout") ++promotions;
    if (r.name == "alloc.stream_demote") ++demotions;
    if (r.name == "alloc.lazy_free") ++lazy_frees;
  }
  std::printf("=== allocator instants (%zu spans recorded, %llu dropped) ===\n",
              recs.size(), static_cast<unsigned long long>(spans.dropped()));
  std::printf("  layout_miss     : %llu\n",
              static_cast<unsigned long long>(misses));
  std::printf("  pre_alloc_layout: %llu\n",
              static_cast<unsigned long long>(promotions));
  std::printf("  stream_demote   : %llu\n",
              static_cast<unsigned long long>(demotions));
  std::printf("  lazy_free       : %llu\n",
              static_cast<unsigned long long>(lazy_frees));

  // The events of one stream in isolation: take the (inode, stream) of the
  // first stream-scoped instant and show its miss → promote ramp.
  for (const auto& first : recs) {
    if (first.stream == 0) continue;
    std::vector<obs::SpanRecord> one;
    for (const auto& r : recs)
      if (r.inode == first.inode && r.stream == first.stream) one.push_back(r);
    std::printf("\nfirst stream's events (inode %llu): %zu recorded\n",
                static_cast<unsigned long long>(first.inode), one.size());
    std::size_t shown = 0;
    for (const auto& ev : one) {
      if (++shown > 6) break;
      std::printf("  span=%llu %s args=(%llu, %llu)\n",
                  static_cast<unsigned long long>(ev.span_id),
                  std::string(ev.name).c_str(),
                  static_cast<unsigned long long>(ev.arg0),
                  static_cast<unsigned long long>(ev.arg1));
    }
    break;
  }

  std::printf("\nshared-file result: phase2 %.1f MB/s, %llu extents\n",
              res.phase2_throughput_mbps,
              static_cast<unsigned long long>(res.extents));

  if (report.json_enabled()) {
    obs::Json results;
    results["phase2_throughput_mbps"] = res.phase2_throughput_mbps;
    results["extents"] = res.extents;
    report.add_run("shared_file", obs::Json::Object{}, std::move(results),
                   fs.metrics_json());
    report.doc()["trace"] = obs::chrome_trace_json(spans);
    report.write();
  }
  return 0;
}
