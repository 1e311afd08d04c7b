// The three benchmark workloads.  Each runs one *round*: mount the MiF
// configuration, set it up (timed as setup), run a fixed, seed-determined
// measured phase (timed as measure), then check and summarise it.  A run of
// the benchmark repeats rounds with the same seed; everything in
// Round::det must come out identical every time.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Round {
  u64 seed{0};
  /// Non-null in traced rounds: attached through fs.set_spans() for the
  /// measured phase, and the recorder's own spans go to it too.
  mif::obs::SpanCollector* spans{nullptr};

  /// Host seconds are process CPU seconds (cpu_seconds()).
  double setup_start{0.0};
  double setup_s{0.0};
  double measure_s{0.0};
  Recorder rec;      // measured-phase calls only
  SpanLedger ledger; // traced rounds only
  ProbeResult probe;
  /// Deterministic results (sim metrics, counts, ratios of counts): must
  /// repeat exactly across rounds of one seed.
  std::map<std::string, double> det;
  /// Failed correctness checks; a round with any is not a sample.
  std::vector<std::string> errors;
};

using WorkloadFn = void (*)(Round&);

struct Workload {
  std::string_view name;
  WorkloadFn run;
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
