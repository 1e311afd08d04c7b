// Shared pieces of the repository benchmark (perfbench): the seeded input
// generator, the per-call recorder that times and status-checks every call
// the benchmark makes into a layer, the span ledger that turns a traced
// round into per-layer self time, and the outside block-layer probe.
//
// Everything here drives libmif through its public headers only; nothing in
// src/ knows the benchmark exists.
#pragma once

#include <array>
#include <chrono>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/pfs.hpp"
#include "obs/span.hpp"

namespace perfbench {

using mif::u32;
using mif::u64;

/// The benchmark's own input generator (splitmix64).  Every path, offset and
/// operation choice comes from here, so the library only ever sees
/// generated inputs and a seed fully determines a round.
class Gen {
 public:
  explicit Gen(u64 seed) : s_(seed) {}
  u64 next() {
    u64 z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] inclusive.
  u64 uniform(u64 lo, u64 hi) { return lo + next() % (hi - lo + 1); }
  /// Uniform index in [0, n).
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  bool chance(double p) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[pick(i)]);
  }

 private:
  u64 s_;
};

/// Draws choices in exact proportions: a deck holds counts[i] cards of
/// choice i, shuffled, and is refilled once drawn out.  An operation mix
/// drawn this way has no seed-to-seed sampling noise in its proportions.
class Deck {
 public:
  Deck(Gen& gen, std::vector<u32> counts) : gen_(gen), counts_(std::move(counts)) {}
  u32 draw() {
    if (cards_.empty()) {
      for (u32 i = 0; i < counts_.size(); ++i) cards_.insert(cards_.end(), counts_[i], i);
      gen_.shuffle(cards_);
    }
    const u32 c = cards_.back();
    cards_.pop_back();
    return c;
  }

 private:
  Gen& gen_;
  std::vector<u32> counts_;
  std::vector<u32> cards_;
};

/// Every kind of call the benchmark makes into a layer.  `metric` names its
/// host-latency series (`<metric>.host_us.*`); `span` is the benchmark-side
/// span wrapped around it in traced rounds (its prefix is the layer the call
/// enters).  `op` = counts as a client-visible operation for host_ops_per_s
/// and sim_ops_per_s (drain/finish barriers do not).
enum class Call {
  kClientCreate,
  kClientOpen,
  kClientWrite,
  kClientRead,
  kClientClose,
  kMdsMkdir,
  kMdsCreate,
  kMdsStat,
  kMdsUtime,
  kMdsUnlink,
  kMdsReaddir,
  kMdsReaddirStats,
  kMdsReportExtents,
  kOsdDeleteFile,
  kSimDrain,
  kJournalFinish,
  kCount
};

struct CallInfo {
  const char* metric;
  const char* span;
  bool op;
};

const CallInfo& info(Call c);

class SpanLedger;

/// Times, counts and status-checks every call of one phase.
class Recorder {
 public:
  static constexpr std::size_t kCalls = static_cast<std::size_t>(Call::kCount);

  /// Attach (nullptrs detach) tracing: each call is wrapped in its
  /// benchmark span in `spans`, which is drained into `ledger` every
  /// kAbsorbEvery calls, between calls, so its ring never wraps.
  void set_tracing(mif::obs::SpanCollector* spans, SpanLedger* ledger);

  /// Run `f` as one call of kind `c`: host-timed, wrapped in the call's
  /// benchmark span when tracing, and its Status/Result counted.
  template <typename F>
  auto call(Call c, F&& f) {
    using R = decltype(f());
    const std::size_t i = static_cast<std::size_t>(c);
    if constexpr (std::is_void_v<R>) {
      {
        mif::obs::ScopedSpan span(spans_, info(c).span);
        const auto t0 = std::chrono::steady_clock::now();
        f();
        finish(i, t0, true);
      }
      after_call();
    } else {
      R r = [&] {
        mif::obs::ScopedSpan span(spans_, info(c).span);
        const auto t0 = std::chrono::steady_clock::now();
        R out = f();
        finish(i, t0, out.ok());
        return out;
      }();
      after_call();
      return r;
    }
  }

  /// call() for calls whose result only feeds the failure count.
  template <typename F>
  void run(Call c, F&& f) {
    (void)call(c, std::forward<F>(f));
  }

  /// Clear every sample and counter (the setup → measure boundary).
  void reset();

  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  /// Client-visible operations (attempted calls whose kind counts as op).
  u64 ops() const { return ops_; }
  const std::vector<float>& samples(Call c) const {
    return lat_us_[static_cast<std::size_t>(c)];
  }
  double total_ms(Call c) const;
  /// First failing call, for the error report ("" when none failed).
  const std::string& first_failure() const { return first_failure_; }

 private:
  static constexpr u32 kAbsorbEvery = 64;

  void finish(std::size_t i, std::chrono::steady_clock::time_point t0,
              bool ok);
  /// Drain the collector into the ledger when due (no span is open here).
  void after_call();

  mif::obs::SpanCollector* spans_{nullptr};
  SpanLedger* ledger_{nullptr};
  u32 since_absorb_{0};
  std::array<std::vector<float>, kCalls> lat_us_{};
  u64 attempted_{0};
  u64 failed_{0};
  u64 ops_{0};
  std::string first_failure_;
};

/// Per-layer self time from a traced round: a span's self time is its
/// duration minus the host-clock time of its direct children, and a span's
/// layer is its name up to the first '.'.  Sim-clock spans (disk.*) carry
/// simulated durations and are left out.
class SpanLedger {
 public:
  /// Move every retained span out of `c` (then clear it) into the ledger.
  /// Call only between top-level calls, when no span is open.
  void absorb(mif::obs::SpanCollector& c);
  const std::map<std::string, double>& self_ms() const { return self_ms_; }
  /// Host durations of the library's `alloc.decide` spans (µs).
  const std::vector<float>& alloc_decide_us() const { return alloc_decide_us_; }
  u64 dropped() const { return dropped_; }

 private:
  std::map<std::string, double> self_ms_;
  std::vector<float> alloc_decide_us_;
  u64 dropped_{0};
};

/// Outcome of the outside block-layer probe.
struct ProbeResult {
  double data_find_run_us{0.0};   // mean µs per Bitmap::find_run lookup
  u64 data_lookups{0};
  u64 data_found{0};              // lookups that found a run
  u64 data_free_runs{0};
  double data_utilisation{0.0};
  double meta_free_scan_us{0.0};  // µs per whole-volume free-run scan
  u64 meta_scans{0};
  u64 meta_free_runs{0};
  std::string error;              // non-empty when a rebuild check failed
};

/// Probe the free space of every data target and of the metadata volume
/// with const calls only (see the definition for how).
ProbeResult probe_block_layer(mif::core::ParallelFileSystem& fs, u64 seed);

/// `prefix` followed by the decimal `n` (generated names).
std::string numbered(const char* prefix, u64 n);

/// Process CPU time in seconds.  Setup and measured phases are timed on this
/// clock: the benchmark is single-threaded and CPU-bound, so it equals wall
/// time on an idle host but leaves out time the host scheduler gave to
/// other processes.  Work moved onto helper threads still counts.
double cpu_seconds();

/// CPU seconds one run of a fixed calibration kernel takes right now: hash
/// map inserts and lookups, a set of short strings, a sort — the kind of
/// work the simulator does, but no libmif code, so a change to the library
/// cannot move it.  Host speed on a shared machine drifts by tens of
/// percent over minutes; dividing host times by this cancels the drift.
double calibration_seconds();

/// Every counter and gauge `export_metrics` publishes, by name.
using Snapshot = std::map<std::string, double>;
Snapshot snapshot(const mif::core::ParallelFileSystem& fs,
                  const std::vector<mif::client::ClientFs>& clients);

/// Nearest-rank percentile of `v` (q in [0, 1]); 0 for an empty series.
double percentile(std::vector<float> v, double q);
double median(std::vector<double> v);

}  // namespace perfbench
