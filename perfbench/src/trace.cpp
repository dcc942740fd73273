#include "trace.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "common.hpp"

namespace perfbench {

namespace ct = mpciot::ct;
namespace net = mpciot::net;

std::uint32_t Tracer::begin(const char* name) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(
      Span{name, open_.empty() ? kNoParent : open_.back(), now_ns(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  spans_.push_back(Span{name, kNoParent, start_ns, end_ns});
}

std::map<std::string, SpanStats> Tracer::stats() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    SpanStats& st = out[s.name];
    ++st.calls;
    st.total_ns += dur;
    st.self_ns += dur - child_ns[i];
  }
  return out;
}

void Tracer::write_chrome_trace(
    std::ostream& os, std::size_t max_events,
    const std::vector<std::pair<std::string, double>>& summary) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::size_t n = std::min(max_events, spans_.size());
  os << std::setprecision(12) << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start_ns - origin) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":";
    if (s.parent == kNoParent) {
      os << "null";
    } else {
      os << s.parent;
    }
    os << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_recorded\":"
     << spans_.size() << ",\"spans_written\":" << n << ",\"self_time\":{";
  bool first = true;
  for (const auto& [name, st] : stats()) {
    os << (first ? "" : ",") << "\"" << name << "\":{\"calls\":" << st.calls
       << ",\"total_ms\":" << st.total_ns / 1e6
       << ",\"self_ms\":" << st.self_ns / 1e6 << "}";
    first = false;
  }
  os << "}";
  for (const auto& [name, value] : summary) {
    os << ",\"" << name << "\":" << value;
  }
  os << "}}\n";
}

TracedTransport::TracedTransport(Tracer& tracer)
    : inner_(ct::minicast_transport()), tracer_(tracer) {}

ct::GlossyResult TracedTransport::flood(const net::Topology& topo,
                                        const ct::GlossyConfig& config,
                                        mpciot::crypto::Xoshiro256& rng,
                                        ct::RoundContext* scratch) const {
  ScopedSpan span(&tracer_, "ct.flood");
  ct::GlossyResult r = inner_.flood(topo, config, rng, scratch);
  tracer_.add_subslots(r.slots_used);
  return r;
}

ct::MiniCastResult TracedTransport::chain_round(
    const net::Topology& topo, const std::vector<ct::ChainEntry>& entries,
    const ct::MiniCastConfig& config, mpciot::crypto::Xoshiro256& rng,
    ct::RoundContext* scratch) const {
  ScopedSpan span(&tracer_, "ct.chain_round");
  ct::MiniCastResult r =
      inner_.chain_round(topo, entries, config, rng, scratch);
  tracer_.add_subslots(std::uint64_t{r.chain_slots_used} * entries.size());
  return r;
}

void TracedTransport::flood_into(const net::Topology& topo,
                                 const ct::GlossyConfig& config,
                                 mpciot::crypto::Xoshiro256& rng,
                                 ct::RoundContext* scratch,
                                 ct::GlossyResult& out) const {
  ScopedSpan span(&tracer_, "ct.flood");
  inner_.flood_into(topo, config, rng, scratch, out);
  tracer_.add_subslots(out.slots_used);
}

void TracedTransport::chain_round_into(
    const net::Topology& topo, const std::vector<ct::ChainEntry>& entries,
    const ct::MiniCastConfig& config, mpciot::crypto::Xoshiro256& rng,
    ct::RoundContext* scratch, ct::MiniCastResult& out) const {
  ScopedSpan span(&tracer_, "ct.chain_round");
  inner_.chain_round_into(topo, entries, config, rng, scratch, out);
  tracer_.add_subslots(std::uint64_t{out.chain_slots_used} * entries.size());
}

void TracedChannel::materialize(const net::Topology& topo,
                                std::uint64_t epoch,
                                net::LinkEpochTables& tables) const {
  ScopedSpan span(&tracer_, "sim.materialize");
  inner_.materialize(topo, epoch, tables);
}

}  // namespace perfbench
