// google-benchmark micro-benchmarks of the hot library primitives: bitmap
// run search, extent-map insert/lookup, allocator extend per strategy, disk
// service and scheduler drain.  These guard the simulator's own performance
// (the figure benches replay hundreds of thousands of operations).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "block/bitmap.hpp"
#include "core/pfs.hpp"
#include "obs/report.hpp"
#include "rpc/fault.hpp"
#include "sim/io_scheduler.hpp"
#include "util/rng.hpp"

namespace {

using namespace mif;

// `--replicas N` / `--kill-osd id@ms` (parsed and validated by BenchReport —
// bad values exit 2 before google-benchmark sees argv).
u32 g_replicas = 0;
bool g_kill = false;
u32 g_kill_target = 0;
double g_kill_at_ms = 0.0;

void BM_BitmapFindRun(benchmark::State& state) {
  block::Bitmap bm(1 << 20);
  Rng rng(1);
  // Fragment: occupy every other 8-block chunk.
  for (u64 i = 0; i < (1 << 20); i += 16) bm.set_range(i, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bm.find_run(rng.uniform(0, (1 << 20) - 1), 8));
  }
}
BENCHMARK(BM_BitmapFindRun);

// A 1 Mi-block bitmap 0.26 % used in short runs scattered at random, the
// state of smallfile_churn's data targets: every free run is far longer
// than a request, so a probe that measured whole runs walked to the next
// used bit.
block::Bitmap mostly_free_bitmap() {
  constexpr u64 kBlocks = u64{1} << 20;
  block::Bitmap bm(kBlocks);
  Rng rng(5);
  while (bm.used_blocks() < kBlocks * 26 / 10000) {
    const u64 start = rng.uniform(0, kBlocks - 4);
    const u64 len = rng.uniform(1, 4);
    if (bm.range_free(start, len)) bm.set_range(start, len);
  }
  return bm;
}

// len / want_len come from the benchmark argument, so the probe bound is
// run-time data as in the allocators.
void BM_BitmapFindRunMostlyFree(benchmark::State& state) {
  const block::Bitmap bm = mostly_free_bitmap();
  const u64 len = static_cast<u64>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bm.find_run(rng.uniform(0, bm.size() - 1), len));
  }
}
BENCHMARK(BM_BitmapFindRunMostlyFree)->Arg(4)->Arg(64)->Arg(1024);

void BM_BitmapFindRunBestMostlyFree(benchmark::State& state) {
  const block::Bitmap bm = mostly_free_bitmap();
  const u64 want_len = static_cast<u64>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bm.find_run_best(rng.uniform(0, bm.size() - 1), 1, want_len));
  }
}
BENCHMARK(BM_BitmapFindRunBestMostlyFree)->Arg(4)->Arg(64)->Arg(1024);

// Churn-aged free space: fill a 1 Mi-block bitmap to ~70 % with 1–64 block
// runs placed first-fit from random goals, then free and re-allocate at
// random so the free space ends up in runs of every size.
void BM_BitmapFindRunAged(benchmark::State& state) {
  constexpr u64 kBlocks = u64{1} << 20;
  block::Bitmap bm(kBlocks);
  Rng rng(9);
  std::vector<std::pair<u64, u64>> live;
  for (int i = 0; i < 60000; ++i) {
    if (bm.used_blocks() < kBlocks * 7 / 10 || rng.chance(0.5)) {
      const u64 len = rng.uniform(1, 64);
      if (auto r = bm.find_run(rng.uniform(0, kBlocks - 1), len)) {
        bm.set_range(*r, len);
        live.emplace_back(*r, len);
      }
    } else {
      const std::size_t k = rng.uniform(0, live.size() - 1);
      bm.clear_range(live[k].first, live[k].second);
      live[k] = live.back();
      live.pop_back();
    }
  }
  const u64 len = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bm.find_run(rng.uniform(0, kBlocks - 1), len));
  }
}
BENCHMARK(BM_BitmapFindRunAged)->Arg(8)->Arg(64);

void BM_BitmapSetClear(benchmark::State& state) {
  block::Bitmap bm(1 << 20);
  u64 pos = 0;
  for (auto _ : state) {
    bm.set_range(pos, 64);
    bm.clear_range(pos, 64);
    pos = (pos + 64) % ((1 << 20) - 64);
  }
}
BENCHMARK(BM_BitmapSetClear);

void BM_ExtentMapInsertFragmented(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    block::ExtentMap m;
    state.ResumeTiming();
    // Worst case: nothing merges.
    for (u64 i = 0; i < 1024; ++i) {
      m.insert({FileBlock{i * 2}, DiskBlock{i * 64 + 7}, 1,
                block::kExtentNone});
    }
    benchmark::DoNotOptimize(m.extent_count());
  }
}
BENCHMARK(BM_ExtentMapInsertFragmented);

void BM_ExtentMapLookup(benchmark::State& state) {
  block::ExtentMap m;
  for (u64 i = 0; i < 4096; ++i)
    m.insert({FileBlock{i * 2}, DiskBlock{i * 64}, 1, block::kExtentNone});
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.lookup(FileBlock{rng.uniform(0, 8191)}));
  }
}
BENCHMARK(BM_ExtentMapLookup);

void BM_AllocatorExtend(benchmark::State& state) {
  const auto mode = static_cast<alloc::AllocatorMode>(state.range(0));
  block::FreeSpace space(DiskBlock{0}, u64{8} * 1024 * 1024, 16);
  auto a = alloc::make_allocator(mode, space);
  block::ExtentMap map;
  u64 logical = 0;
  for (auto _ : state) {
    if (!a->extend({InodeNo{1}, StreamId{1, 0}, FileBlock{logical}, 4}, map)
             .ok()) {
      // Device filled mid-run: recycle the file and keep timing.
      state.PauseTiming();
      a->delete_file(InodeNo{1}, map);
      logical = 0;
      state.ResumeTiming();
      continue;
    }
    logical += 4;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AllocatorExtend)
    ->Arg(static_cast<int>(alloc::AllocatorMode::kVanilla))
    ->Arg(static_cast<int>(alloc::AllocatorMode::kReservation))
    ->Arg(static_cast<int>(alloc::AllocatorMode::kOnDemand));

void BM_DiskServiceSequential(benchmark::State& state) {
  sim::Disk d;
  u64 pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        d.service({sim::IoKind::kWrite,
                   DiskBlock{pos % (d.geometry().capacity_blocks - 64)}, 64}));
    pos += 64;
  }
}
BENCHMARK(BM_DiskServiceSequential);

void BM_SchedulerDrain128(benchmark::State& state) {
  sim::Disk d;
  sim::IoScheduler s(d, 1 << 20);
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 128; ++i) {
      s.submit({sim::IoKind::kRead,
                DiskBlock{rng.uniform(0, d.geometry().capacity_blocks - 8)},
                4});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.drain());
  }
}
BENCHMARK(BM_SchedulerDrain128);

// Replicated stripe-unit writes through the whole stack (4 targets,
// g_replicas-way); with --kill-osd the scheduled fault fires mid-run and the
// fan degrades around the dead target.  Registered only when --replicas >= 2
// so the default benchmark list is unchanged.
void BM_ReplicatedStripeWrite(benchmark::State& state) {
  core::ClusterConfig cfg;
  cfg.num_targets = 4;
  cfg.stripe = {4, 16};
  cfg.redundancy.replicas = g_replicas;
  if (g_kill) cfg.rpc.inject_faults = true;
  core::ParallelFileSystem fs(cfg);
  if (g_kill) fs.transport().fault()->kill_osd(g_kill_target, g_kill_at_ms);
  auto client = fs.connect(ClientId{1});
  auto fh = client.create("replicated.dat");
  u64 off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.write(*fh, 0, off, 8 * kBlockSize).ok());
    off += 8 * kBlockSize;
  }
  fs.drain_data();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

/// Drop the harness's own flags from argv before handing it to
/// google-benchmark (which rejects arguments it does not recognize).
std::vector<char*> strip_harness_flags(int argc, char** argv) {
  std::vector<char*> args;
  args.push_back(argv[0]);
  const std::string_view valued[] = {
      "--json",           "--trace",     "--pipeline-depth",
      "--mds-shards",     "--collective-aggregators",
      "--list-io",        "--qos",       "--adaptive-depth",
      "--replicas",       "--kill-osd"};
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--quick" || a == "--attribution" || a == "--timeseries" ||
        a.rfind("--timeseries=", 0) == 0) {
      continue;
    }
    bool skip = false;
    for (const std::string_view f : valued) {
      if (a == f) {
        ++i;  // consume the value too
        skip = true;
        break;
      }
      if (a.size() > f.size() && a.rfind(f, 0) == 0 && a[f.size()] == '=') {
        skip = true;
        break;
      }
    }
    if (!skip) args.push_back(argv[i]);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  // BenchReport owns flag validation: zero/negative/garbage counts and a
  // malformed or unreplicated --kill-osd exit 2 here, before any benchmark
  // runs.
  mif::obs::BenchReport report("micro_ops", argc, argv);
  g_replicas = report.replicas();
  if (g_replicas >= 2) {
    mif::redundancy::Policy policy;
    policy.replicas = g_replicas;
    if (const std::string err = mif::redundancy::validate(policy, 4);
        !err.empty()) {
      std::fprintf(stderr, "micro_ops: bad --replicas %u: %s\n", g_replicas,
                   err.c_str());
      std::exit(2);
    }
    if (report.kill_armed()) {
      if (report.kill_target() >= 4) {
        std::fprintf(stderr,
                     "micro_ops: bad --kill-osd target %u: the replicated "
                     "write bench mounts 4 targets\n",
                     report.kill_target());
        std::exit(2);
      }
      g_kill = true;
      g_kill_target = report.kill_target();
      g_kill_at_ms = report.kill_at_ms();
    }
    benchmark::RegisterBenchmark("BM_ReplicatedStripeWrite",
                                 BM_ReplicatedStripeWrite);
  }
  std::vector<char*> args = strip_harness_flags(argc, argv);
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
