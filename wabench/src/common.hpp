#pragma once
// Shared types of the repository benchmark: counter snapshots, the
// per-operation record every workload fills in, the statistics the
// benchmark reports, and the result line it prints.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/krylov.hpp"
#include "dist/machine.hpp"

namespace wabench {

/// Seconds on the monotonic clock, from an arbitrary process origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every channel counter of every rank after one algorithm call.
using Counters = std::vector<wa::dist::ProcTraffic>;

Counters snapshot(const wa::dist::Machine& m);

/// What one closed-loop operation did.  A workload fills the numeric
/// fields; the runner adds the timing and the identity checks.
struct OpResult {
  std::vector<Counters> calls;  ///< counters of each algorithm call
  std::vector<double> output;   ///< every output value, for the bit check
  double units = 0;             ///< useful units completed (verified)
  std::uint64_t nvm_writes = 0;     ///< sum over calls of max-rank l3_write
  std::uint64_t network_words = 0;  ///< sum over calls of max-rank nw
  double model_s = 0;           ///< sum over calls of Machine::cost()
  double local_s = 0;           ///< Machine::local_wall_seconds() delta
  double comm_s = 0;            ///< Machine::comm_wall_seconds() delta
  std::uint64_t moved_words = 0;     ///< TransportStats::words delta
  std::uint64_t verified_words = 0;  ///< TransportStats::verified delta
  std::vector<wa::dist::KrylovResult> krylov;  ///< one per right-hand side
  std::size_t solves = 0, converged = 0;  ///< right-hand sides
  std::size_t iterations = 0;   ///< summed over right-hand sides
  double max_rel_residual = 0;  ///< true ||b - Ax|| / ||b||, max over them
  std::string failure;          ///< empty when every check passed
};

/// The identity checks shared by every workload: counters of each call
/// and the output bits must equal the serial-backend + sim-transport
/// reference of the same input, and every word the transport moved
/// must have passed its checksum.  Returns the first failure or "".
std::string identity_failure(const OpResult& got, const OpResult& ref);

/// The tail of a run's operation times, in run order.  The run is cut
/// into kTailBlocks consecutive blocks; each block's tail is its highest
/// percentile, at most the kTailMaxPercentile-th, that still has
/// kTailBeyondPerBlock samples above it (ten samples beyond the block
/// tails in all), and the run's tail is the median of the block tails,
/// or the run's median if that is higher (a run that sped up halfway).
/// A shared host slows everything down in spells of tens of seconds: a
/// spell over one or two blocks moves their tails but not the median,
/// where one percentile over the whole run jumps with whether the run
/// met a spell at all.
struct Tail {
  double value = 0;
  double percentile = 0;   ///< share of the whole run at or below value, %
  std::size_t beyond = 0;  ///< samples of the whole run above value
};
inline constexpr std::size_t kTailBlocks = 5;
inline constexpr std::size_t kTailBeyondPerBlock = 2;
inline constexpr std::size_t kTailMaxPercentile = 90;
/// Operations a run needs for the tail rule.
inline constexpr std::size_t kTailMinSamples =
    kTailBlocks * (kTailBeyondPerBlock + 1);

double median(std::vector<double> v);
/// Tail rule over @p run in run order; with fewer than kTailMinSamples
/// samples, the maximum with beyond = 0 (the caller reports the run as
/// too short).
Tail tail(const std::vector<double>& run);

/// Attempted and failed operations, with the first failure's reason.
class Ledger {
 public:
  void record(const OpResult& r);
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  double failed_frac() const {
    return attempted_ == 0 ? 0.0 : double(failed_) / double(attempted_);
  }
  const std::string& first_failure() const { return first_failure_; }

 private:
  std::size_t attempted_ = 0, failed_ = 0;
  std::string first_failure_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Names and units of the metrics a run prints: the end-to-end set
/// without tracing, the per-layer set with it.  BENCHMARK.json lists
/// the same names; run.py checks the printed line against it.
const std::vector<std::pair<const char*, const char*>>& end_to_end_schema();
const std::vector<std::pair<const char*, const char*>>& per_layer_schema();

/// The result line: {"correct", "attempted", "failed", "metrics"}.
/// Throws std::logic_error when @p metrics does not match @p schema
/// name for name and unit for unit, or a value is not finite.
std::string result_json(
    bool correct, std::size_t attempted, std::size_t failed,
    const std::vector<Metric>& metrics,
    const std::vector<std::pair<const char*, const char*>>& schema);

}  // namespace wabench
