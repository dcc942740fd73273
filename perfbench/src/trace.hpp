// Outside-in tracing for the traced benchmark pass.
//
// The program is not instrumented: every span is recorded by a pure
// forwarder the benchmark hands to a public seam —
//   * TracedTransport  — the ct::Transport passed to the protocol
//     constructors (spans "ct.flood" / "ct.chain_round");
//   * TracedChannel    — the net::ChannelModel set on the Simulator
//     (span "sim.materialize");
//   * CountingLiveness — the net::LivenessModel set on the Simulator
//     (counts is_down calls; one call is far too short to time).
// Each forwards to the real implementation and changes no argument or
// result, so a traced pass must reproduce the untraced digest exactly.
// The workload opens a "round" span per aggregation round, so the
// nesting is round > ct.* > sim.materialize. Spans stay in memory; self
// times are computed after the run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ct/transport.hpp"
#include "net/channel_model.hpp"

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< static string
  std::uint32_t parent = 0;    ///< index into spans(), kNoParent for roots
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct SpanStats {
  std::uint64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  ///< total minus the time covered by child spans
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  /// The forwarders record only while the tracer is active: workloads
  /// switch it on for the timed phase, so set-up work never inflates
  /// the per-round figures.
  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }

  /// Open a span nested in the innermost open one; returns its id.
  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);
  /// Record a finished root span with explicit bounds (spans rebuilt
  /// from timestamps, e.g. the rt coordinator's progress lines).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  void add_subslots(std::uint64_t n) {
    if (active_) subslots_ += n;
  }
  void count_is_down() {
    if (active_) ++is_down_calls_;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t subslots() const { return subslots_; }
  std::uint64_t is_down_calls() const { return is_down_calls_; }

  /// Per span name: call count, total and self time.
  std::map<std::string, SpanStats> stats() const;

  /// Chrome trace-event JSON (Perfetto reads it): one complete event
  /// per span, at most `max_events` of them (the earliest), plus the
  /// self-time table and `summary` under "otherData".
  void write_chrome_trace(
      std::ostream& os, std::size_t max_events,
      const std::vector<std::pair<std::string, double>>& summary) const;

 private:
  bool active_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t subslots_ = 0;
  std::uint64_t is_down_calls_ = 0;
};

/// Forwarder over ct::minicast_transport(). It overrides the `_into`
/// variants too, so the substrate's allocation-free engines stay on the
/// path exactly as without it.
class TracedTransport final : public mpciot::ct::Transport {
 public:
  explicit TracedTransport(Tracer& tracer);

  const char* name() const override { return inner_.name(); }
  mpciot::ct::GlossyResult flood(const mpciot::net::Topology& topo,
                                 const mpciot::ct::GlossyConfig& config,
                                 mpciot::crypto::Xoshiro256& rng,
                                 mpciot::ct::RoundContext* scratch)
      const override;
  mpciot::ct::MiniCastResult chain_round(
      const mpciot::net::Topology& topo,
      const std::vector<mpciot::ct::ChainEntry>& entries,
      const mpciot::ct::MiniCastConfig& config,
      mpciot::crypto::Xoshiro256& rng,
      mpciot::ct::RoundContext* scratch) const override;
  void flood_into(const mpciot::net::Topology& topo,
                  const mpciot::ct::GlossyConfig& config,
                  mpciot::crypto::Xoshiro256& rng,
                  mpciot::ct::RoundContext* scratch,
                  mpciot::ct::GlossyResult& out) const override;
  void chain_round_into(const mpciot::net::Topology& topo,
                        const std::vector<mpciot::ct::ChainEntry>& entries,
                        const mpciot::ct::MiniCastConfig& config,
                        mpciot::crypto::Xoshiro256& rng,
                        mpciot::ct::RoundContext* scratch,
                        mpciot::ct::MiniCastResult& out) const override;

 private:
  const mpciot::ct::Transport& inner_;
  Tracer& tracer_;
};

class TracedChannel final : public mpciot::net::ChannelModel {
 public:
  TracedChannel(const mpciot::net::ChannelModel& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  mpciot::SimTime epoch_us() const override { return inner_.epoch_us(); }
  void materialize(const mpciot::net::Topology& topo, std::uint64_t epoch,
                   mpciot::net::LinkEpochTables& tables) const override;

 private:
  const mpciot::net::ChannelModel& inner_;
  Tracer& tracer_;
};

class CountingLiveness final : public mpciot::net::LivenessModel {
 public:
  CountingLiveness(const mpciot::net::LivenessModel& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  bool is_down(mpciot::NodeId node, mpciot::SimTime t) const override {
    tracer_.count_is_down();
    return inner_.is_down(node, t);
  }

 private:
  const mpciot::net::LivenessModel& inner_;
  Tracer& tracer_;
};

/// RAII span; a no-op with a null or inactive tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->active() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
