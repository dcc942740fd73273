// Shared plumbing of the ctagg-perfbench program: the per-run record every
// workload fills, wall-clock helpers, order statistics and the
// model-identity digest.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint32_t seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_out;
};

/// Everything one pass of a workload measured. A workload runs a fixed
/// amount of work for the given (seed, seconds): the round counts are a
/// function of the arguments, never of the wall clock, so two passes of
/// one seed do identical simulated work and must yield identical
/// digests and layer counts.
struct RunOutput {
  /// Every independent output check passed; `error` names the first
  /// that did not.
  bool correct = true;
  std::string error;
  std::uint64_t attempted = 0;  ///< aggregation rounds run (timed phase)
  /// Rounds whose output failed a check or never arrived.
  std::uint64_t failed = 0;
  /// Rounds that ran to completion but left no correct aggregate (the
  /// lossy network's verdict, deterministic per seed; not a failure of
  /// the program).
  std::uint64_t no_aggregate = 0;
  std::vector<double> setup_s;   ///< one entry per set-up in the run
  /// Host speed measured next to each set-up (calibrate.hpp).
  std::vector<double> setup_speed;
  std::vector<double> round_ms;  ///< host wall time per timed round
  /// The timed phase in consecutive blocks of rounds (a campaign, or a
  /// fixed slice of one stream). Throughput is the median over blocks,
  /// so a burst of host noise moves one block, not the run's figure.
  struct Block {
    std::size_t first = 0;  ///< index of the block's first round_ms entry
    std::size_t rounds = 0;
    double seconds = 0.0;   ///< host wall time of the block
    /// Host speed measured right after the block (calibrate.hpp).
    double speed = 1.0;
  };
  std::vector<Block> blocks;
  /// round_ms_tail is taken per block and reported as the median over
  /// blocks (rt_loopback), instead of once over all rounds.
  bool tail_per_block = false;
  /// Simulated submit-to-result latency per timed round (simulator
  /// workloads only).
  std::vector<double> sim_latency_ms;
  std::uint64_t digest = 0;
  double peak_rss_mb = 0.0;
  /// Layer figures the workload measures itself (set-up phases, rt
  /// resource usage), already in their reporting units.
  std::vector<std::pair<std::string, double>> layer;
  /// Extra informational lines to print before the result.
  std::vector<std::string> notes;

  void fail(std::string what) {
    if (correct) error = std::move(what);
    correct = false;
  }
  void set_layer(const std::string& name, double value) {
    layer.emplace_back(name, value);
  }
  /// Fails the run when fewer than `share` of its rounds produced a
  /// correct aggregate. Lost aggregates are the lossy network's
  /// verdict and not failures on their own, but a run with almost none
  /// means the protocol's reconstruction broke.
  void require_aggregate_share(double share, const char* workload) {
    const double ok = static_cast<double>(attempted - no_aggregate);
    if (attempted == 0 || ok >= share * static_cast<double>(attempted)) {
      return;
    }
    failed = std::max(failed, no_aggregate);
    fail(std::string(workload) + ": too few rounds with a correct aggregate");
  }
  /// Closes a block of the last `rounds` rounds.
  void add_block(std::size_t rounds, double seconds, double speed) {
    blocks.push_back(Block{round_ms.size() - rounds, rounds, seconds, speed});
  }
  void add_setup(double seconds, double speed) {
    setup_s.push_back(seconds);
    setup_speed.push_back(speed);
  }
};

/// The run's timings at reference host speed: every round, block and
/// set-up time multiplied by the host speed measured next to it.
RunOutput at_reference_speed(const RunOutput& run);

/// The three workloads. `tracer` is null for the untraced pass.
RunOutput run_flat_dcube_s4(const Options& opt, Tracer* tracer);
RunOutput run_hier_grid_dynamic(const Options& opt, Tracer* tracer);
RunOutput run_rt_loopback(const Options& opt, Tracer* tracer);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (0 for an empty sample).
double median(std::vector<double> v);

/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// Median over blocks of rounds per second.
double rounds_per_s(const RunOutput& run);

/// round_ms_tail and the percentile it was taken at.
std::pair<double, double> round_ms_tail(const RunOutput& run);

/// The highest percentile of a fixed ladder (90, 95, 98, 99, 99.5, ...)
/// that leaves at least ten samples beyond it in a sample of `n`;
/// 50 when even p90 would not.
double tail_percentile(std::size_t n);

/// Peak resident set of this process (MiB).
double self_peak_rss_mb();

/// FNV-1a over a stream of 64-bit words: the model-identity digest.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void add_bytes(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace perfbench
