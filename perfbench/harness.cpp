#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <unordered_map>
#include <unordered_set>

#include "block/bitmap.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {


using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Indexed by Call.  Span names must be string literals (the collector keeps
// the pointer).
constexpr CallInfo kCallInfo[] = {
    {"client.create", "client.api.create", true},
    {"client.open", "client.api.open", true},
    {"client.write", "client.api.write", true},
    {"client.read", "client.api.read", true},
    {"client.close", "client.api.close", true},
    {"mds.mkdir", "rpc.api.mkdir", true},
    {"mds.create", "rpc.api.create", true},
    {"mds.stat", "rpc.api.stat", true},
    {"mds.utime", "rpc.api.utime", true},
    {"mds.unlink", "rpc.api.unlink", true},
    {"mds.readdir", "rpc.api.readdir", true},
    {"mds.readdir_stats", "rpc.api.readdir_stats", true},
    {"mds.report_extents", "rpc.api.report_extents", true},
    {"osd.delete_file", "osd.api.delete_file", true},
    {"sim.drain", "sim.api.drain_data", false},
    {"journal.finish", "journal.api.finish_mds", false},
};
static_assert(std::size(kCallInfo) == Recorder::kCalls);

}  // namespace

const CallInfo& info(Call c) { return kCallInfo[static_cast<std::size_t>(c)]; }

// ---- Recorder ---------------------------------------------------------------

void Recorder::finish(std::size_t i, Clock::time_point t0, bool ok) {
  lat_us_[i].push_back(static_cast<float>(us_since(t0)));
  ++attempted_;
  if (kCallInfo[i].op) ++ops_;
  if (!ok) {
    if (failed_ == 0) first_failure_ = kCallInfo[i].metric;
    ++failed_;
  }
}

void Recorder::set_tracing(mif::obs::SpanCollector* spans,
                           SpanLedger* ledger) {
  if (spans_ && ledger_) ledger_->absorb(*spans_);
  spans_ = spans;
  ledger_ = ledger;
  since_absorb_ = 0;
}

void Recorder::after_call() {
  if (spans_ && ++since_absorb_ >= kAbsorbEvery) {
    ledger_->absorb(*spans_);
    since_absorb_ = 0;
  }
}

void Recorder::reset() {
  for (auto& v : lat_us_) v.clear();
  attempted_ = failed_ = ops_ = 0;
  first_failure_.clear();
}

double Recorder::total_ms(Call c) const {
  double us = 0.0;
  for (float x : samples(c)) us += x;
  return us / 1000.0;
}

// ---- SpanLedger -------------------------------------------------------------

void SpanLedger::absorb(mif::obs::SpanCollector& c) {
  const std::vector<mif::obs::SpanRecord> recs = c.spans();
  dropped_ += c.dropped();
  c.clear();
  // Host-clock child time per parent span id.
  std::unordered_map<u64, double> child_us;
  child_us.reserve(recs.size());
  for (const auto& r : recs) {
    if (r.clock == mif::obs::SpanClock::kHost && r.parent_id != 0)
      child_us[r.parent_id] += r.dur_us;
  }
  for (const auto& r : recs) {
    if (r.clock != mif::obs::SpanClock::kHost) continue;
    const auto it = child_us.find(r.span_id);
    const double self = r.dur_us - (it == child_us.end() ? 0.0 : it->second);
    const std::string_view layer = r.name.substr(0, r.name.find('.'));
    self_ms_[std::string(layer)] += self / 1000.0;
    if (r.name == "alloc.decide")
      alloc_decide_us_.push_back(static_cast<float>(r.dur_us));
  }
}

// ---- block-layer probe --------------------------------------------------------

namespace {

// Rebuild one data target's per-group free-space bitmaps from the file
// mappings it exposes.  With no allocator reservation outstanding (every
// benchmark file is closed before the probe) the rebuild must match each
// group's own used-block count exactly; a mismatch or a block mapped twice
// is reported as an error.
std::vector<mif::block::Bitmap> rebuild_data_groups(
    const mif::osd::StorageTarget& t, const mif::block::FreeSpace& sp,
    std::string& error) {
  std::vector<mif::block::Bitmap> maps;
  for (u32 g = 0; g < sp.group_count(); ++g)
    maps.emplace_back(sp.group(g).size());
  t.for_each_file([&](mif::InodeNo ino) {
    for (const mif::block::Extent& e : t.extents(ino)) {
      u64 b = e.disk_off.v;
      u64 left = e.length;
      while (left > 0 && error.empty()) {
        u32 g = 0;
        while (g < sp.group_count() && !sp.group(g).contains(mif::DiskBlock{b}))
          ++g;
        if (g == sp.group_count()) {
          error = "extent outside every allocation group";
          return;
        }
        const u64 local = b - sp.group(g).base().v;
        const u64 n = std::min(left, sp.group(g).size() - local);
        if (!maps[g].range_free(local, n)) {
          error = "data block mapped twice";
          return;
        }
        maps[g].set_range(local, n);
        b += n;
        left -= n;
      }
    }
  });
  for (u32 g = 0; g < sp.group_count() && error.empty(); ++g) {
    const auto& grp = sp.group(g);
    if (maps[g].used_blocks() != grp.size() - grp.free_blocks())
      error = "rebuilt free space differs from the allocation group's";
  }
  return maps;
}

}  // namespace

// The lookups time the block layer's own search (block::Bitmap::find_run)
// on bitmaps rebuilt from the live mappings, read through const calls:
// StorageTarget::for_each_file/extents and the const FreeSpace/AllocGroup
// accessors.  The metadata volume exposes no block positions through a
// const call, so there the probe times the const whole-volume free-run scan
// (FreeSpace::add_free_runs, the same next_free/next_used walk find_run
// makes).  Nothing here can move a simulated clock or counter; the caller
// checks that.
ProbeResult probe_block_layer(mif::core::ParallelFileSystem& fs, u64 seed) {
  constexpr u64 kLookupsPerTarget = 512;
  constexpr u64 kLens[] = {1, 2, 4, 8, 16, 64, 256, 1024};
  constexpr u64 kMetaScans = 8;
  ProbeResult out;
  Gen gen(seed);
  double lookup_us = 0.0;
  u64 used = 0;
  u64 total = 0;
  for (std::size_t t = 0; t < fs.num_targets() && out.error.empty(); ++t) {
    const mif::osd::StorageTarget& target = fs.target(t);
    const mif::block::FreeSpace& sp = fs.target(t).space();
    mif::Histogram runs;
    out.data_free_runs += sp.add_free_runs(runs);
    used += sp.total_blocks() - sp.free_blocks();
    total += sp.total_blocks();
    const auto maps = rebuild_data_groups(target, sp, out.error);
    if (!out.error.empty()) break;
    std::vector<std::pair<u32, std::pair<u64, u64>>> queries;
    for (u64 i = 0; i < kLookupsPerTarget; ++i) {
      const u32 g = static_cast<u32>(gen.pick(maps.size()));
      queries.push_back(
          {g, {gen.pick(maps[g].size()), kLens[gen.pick(std::size(kLens))]}});
    }
    const auto t0 = Clock::now();
    for (const auto& [g, q] : queries) {
      if (maps[g].find_run(q.first, q.second)) ++out.data_found;
    }
    lookup_us += us_since(t0);
    out.data_lookups += queries.size();
  }
  out.data_find_run_us =
      out.data_lookups ? lookup_us / static_cast<double>(out.data_lookups) : 0;
  out.data_utilisation =
      total ? static_cast<double>(used) / static_cast<double>(total) : 0.0;

  const mif::block::FreeSpace& meta = fs.mds().fs().space();
  const auto t0 = Clock::now();
  for (u64 i = 0; i < kMetaScans; ++i) {
    mif::Histogram runs;
    out.meta_free_runs = meta.add_free_runs(runs);
  }
  out.meta_free_scan_us = us_since(t0) / static_cast<double>(kMetaScans);
  out.meta_scans = kMetaScans;
  return out;
}

// ---- metrics -----------------------------------------------------------------

Snapshot snapshot(const mif::core::ParallelFileSystem& fs,
                  const std::vector<mif::client::ClientFs>& clients) {
  mif::obs::MetricsRegistry reg;
  fs.export_metrics(reg);
  for (const auto& c : clients) c.export_metrics(reg, "client");
  Snapshot s;
  for (const std::string& name : reg.names()) {
    if (const auto* c = reg.find_counter(name))
      s[name] = static_cast<double>(c->value());
    else if (const auto* g = reg.find_gauge(name))
      s[name] = g->value();
  }
  return s;
}

std::string numbered(const char* prefix, u64 n) {
  std::string s = prefix;
  s += std::to_string(n);
  return s;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double calibration_seconds() {
  constexpr u64 kKeys = u64{1} << 18;
  Gen gen(0xca1b);
  const double t0 = cpu_seconds();
  std::unordered_map<u64, u64> map;
  map.reserve(kKeys);
  for (u64 i = 0; i < 2 * kKeys; ++i) map[gen.next() % kKeys] += i;
  u64 sum = 0;
  for (u64 i = 0; i < 2 * kKeys; ++i) {
    const auto it = map.find(gen.next() % kKeys);
    if (it != map.end()) sum += it->second;
  }
  std::unordered_set<std::string> names;
  for (u64 i = 0; i < kKeys / 4; ++i) names.insert(numbered("dir/file.", gen.next() % kKeys));
  std::vector<u64> v(kKeys / 2);
  for (u64& x : v) x = gen.next() ^ sum;
  std::sort(v.begin(), v.end());
  // Keep the results observable so no step can be optimised away.
  if (v.front() == sum && names.size() == 0) return 0.0;
  return cpu_seconds() - t0;
}

double percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k - 1), v.end());
  return v[k - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
