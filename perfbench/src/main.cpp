// ctagg-perfbench: runs one benchmark workload and prints its metrics.
//
//   ctagg-perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> [--trace-out <file.json>]
//
// --trace 0 runs the workload once, untraced, and prints the end-to-end
// metrics. --trace 1 runs it untraced and then again through the
// tracing forwarders (trace.hpp), requires both passes to produce the
// same model digest, prints the per-layer metrics and writes the spans
// as Chrome trace-event JSON to --trace-out. rt_loopback has no
// in-process forwarders: its traced run is one pass, and trace.overhead
// reads 0. Timings are reported at reference host speed (calibrate.hpp).
// Informational lines come first, among them the end-to-end metrics as
// measured; the last line of stdout is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 iff every output check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "ctagg-perfbench: " << what
            << "\nusage: ctagg-perfbench --workload "
               "flat_dcube_s4|hier_grid_dynamic|rt_loopback --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text,
                         std::uint64_t max) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used, 10);
  } catch (const std::exception&) {
    usage_error("bad value for " + flag + ": '" + text + "'");
  }
  if (used != text.size() || text[0] == '-' || v > max) {
    usage_error("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = parse_uint(flag, value, ~std::uint64_t{0});
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<std::uint32_t>(parse_uint(flag, value, 600));
      if (opt.seconds == 0) usage_error("--seconds must be at least 1");
    } else if (flag == "--trace") {
      opt.trace = parse_uint(flag, value, 1) == 1;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  return opt;
}

using WorkloadFn = RunOutput (*)(const Options&, Tracer*);

WorkloadFn lookup(const std::string& name) {
  if (name == "flat_dcube_s4") return run_flat_dcube_s4;
  if (name == "hier_grid_dynamic") return run_hier_grid_dynamic;
  if (name == "rt_loopback") return run_rt_loopback;
  usage_error("unknown workload '" + name + "'");
}

std::vector<Metric> end_to_end(const RunOutput& run) {
  return {
      {"rounds_per_s", rounds_per_s(run), "1/s"},
      {"round_ms_p50", median(run.round_ms), "ms"},
      {"round_ms_tail", round_ms_tail(run).first, "ms"},
      {"setup_s", median(run.setup_s), "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MiB"},
  };
}

/// Every per-layer metric, in reporting order. Each workload reports
/// all of them; a layer the workload does not exercise reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"ct.chain_round.self_ms_per_round", "ms"},
    {"ct.flood.self_ms_per_round", "ms"},
    {"ct.ns_per_subslot", "ns"},
    {"ct.share", "ratio"},
    {"ct.chain_round.calls_per_round", "count"},
    {"ct.flood.calls_per_round", "count"},
    {"ct.subslots_per_round", "count"},
    {"sim.materialize.ms_per_round", "ms"},
    {"sim.materialize.us_per_call", "us"},
    {"sim.materialize.calls_per_round", "count"},
    {"sim.is_down.calls_per_round", "count"},
    {"sim.share", "ratio"},
    {"core.self_ms_per_round", "ms"},
    {"core.self_share", "ratio"},
    {"core.no_aggregate_share", "ratio"},
    {"net.topology_build_ms", "ms"},
    {"net.partition_ms", "ms"},
    {"core.protocol_build_ms", "ms"},
    {"core.warmup_round_ms", "ms"},
    {"rt.coord_cpu_us_per_round", "us"},
    {"rt.node_cpu_us_per_round", "us"},
    {"rt.coord_busy_share", "ratio"},
    {"rt.ctx_switches_per_round", "count"},
    {"rt.join_ms", "ms"},
    {"sim_latency_ms", "ms"},
    {"trace.overhead", "ratio"},
};

/// The layer figures of a traced pass. Span-derived figures come from
/// the simulator workloads only: rt_loopback's rounds run in other
/// processes, and its layer figures are resource usage instead.
std::vector<Metric> per_layer(const RunOutput& base, const RunOutput& traced,
                              const Tracer& tracer, double overhead) {
  std::map<std::string, double> v;
  const auto stats = tracer.stats();
  const auto get = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? SpanStats{} : it->second;
  };
  const SpanStats chain = get("ct.chain_round");
  const SpanStats flood = get("ct.flood");
  const SpanStats mat = get("sim.materialize");
  const SpanStats round = get("round");
  const double rounds = static_cast<double>(round.calls);
  if (rounds > 0 && !traced.sim_latency_ms.empty()) {
    const double ct_self_ns = chain.self_ns + flood.self_ns;
    const double subslots = static_cast<double>(tracer.subslots());
    const double calls = static_cast<double>(mat.calls);
    v["ct.chain_round.self_ms_per_round"] = chain.self_ns / 1e6 / rounds;
    v["ct.flood.self_ms_per_round"] = flood.self_ns / 1e6 / rounds;
    v["ct.ns_per_subslot"] = subslots > 0 ? ct_self_ns / subslots : 0.0;
    v["ct.share"] = ct_self_ns / round.total_ns;
    v["ct.chain_round.calls_per_round"] =
        static_cast<double>(chain.calls) / rounds;
    v["ct.flood.calls_per_round"] = static_cast<double>(flood.calls) / rounds;
    v["ct.subslots_per_round"] = subslots / rounds;
    v["sim.materialize.ms_per_round"] = mat.total_ns / 1e6 / rounds;
    v["sim.materialize.us_per_call"] = calls > 0 ? mat.total_ns / 1e3 / calls : 0.0;
    v["sim.materialize.calls_per_round"] = calls / rounds;
    v["sim.is_down.calls_per_round"] =
        static_cast<double>(tracer.is_down_calls()) / rounds;
    v["sim.share"] = mat.total_ns / round.total_ns;
    v["core.self_ms_per_round"] = round.self_ns / 1e6 / rounds;
    v["core.self_share"] = round.self_ns / round.total_ns;
    v["sim_latency_ms"] = median(traced.sim_latency_ms);
  }
  if (base.attempted > 0) {
    v["core.no_aggregate_share"] = static_cast<double>(base.no_aggregate) /
                                   static_cast<double>(base.attempted);
  }
  // Set-up phases and rt resource usage come from the untraced pass:
  // the forwarders do not touch them.
  for (const auto& [name, value] : base.layer) v[name] = value;
  v["trace.overhead"] = overhead;

  std::vector<Metric> m;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = v.find(name);
    m.push_back({name, it == v.end() ? 0.0 : it->second, unit});
  }
  return m;
}

void print_result(const RunOutput& run, bool correct,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(15) << "{\"correct\": "
     << (correct ? "true" : "false") << ", \"attempted\": " << run.attempted
     << ", \"failed\": " << run.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run_main(const Options& opt) {
  const WorkloadFn fn = lookup(opt.workload);
  // rt_loopback's rounds run in other processes, where no forwarder
  // reaches: its traced run is a single pass, and the workload hands
  // its per-round stamps to the tracer after each campaign.
  const bool forwarders = opt.workload != "rt_loopback";
  Tracer tracer;
  const RunOutput base =
      fn(opt, opt.trace && !forwarders ? &tracer : nullptr);
  bool correct = base.correct;
  if (!base.correct) std::cerr << "check failed: " << base.error << "\n";

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(base.digest));
  const RunOutput scaled = at_reference_speed(base);
  const auto [tail, tail_p] = round_ms_tail(scaled);
  const std::size_t n = base.tail_per_block && !base.blocks.empty()
                            ? base.blocks.front().rounds
                            : base.round_ms.size();
  const double beyond = static_cast<double>(n) * (100.0 - tail_p) / 100.0;
  std::cout << std::setprecision(6) << "workload " << opt.workload << " seed "
            << opt.seed << " seconds " << opt.seconds << "\n"
            << "digest " << digest << "\n"
            << "rounds " << base.attempted << " failed " << base.failed
            << " without_aggregate " << base.no_aggregate << " blocks "
            << base.blocks.size() << " setups " << base.setup_s.size() << "\n"
            << "round_ms_tail " << tail << " is p" << tail_p << " of " << n
            << " rounds (" << static_cast<std::size_t>(beyond + 1e-9)
            << " beyond it)"
            << (base.tail_per_block ? ", median over blocks" : "") << "\n";
  std::vector<double> speeds;
  for (const RunOutput::Block& b : base.blocks) speeds.push_back(b.speed);
  std::cout << "host speed " << median(speeds)
            << " (median over blocks); as measured:";
  for (const Metric& m : end_to_end(base)) {
    std::cout << " " << m.name << " " << m.value;
  }
  std::cout << "\n";
  if (!base.sim_latency_ms.empty()) {
    std::cout << "sim_latency_ms " << median(base.sim_latency_ms) << "\n";
  }
  for (const std::string& note : base.notes) std::cout << note << "\n";

  if (!opt.trace) {
    print_result(base, correct, end_to_end(scaled));
    return correct ? 0 : 1;
  }

  RunOutput traced_pass;
  double overhead = 0.0;
  if (forwarders) {
    traced_pass = fn(opt, &tracer);
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(traced_pass.digest));
    std::cout << "traced digest " << digest << "\n";
    if (!traced_pass.correct) {
      correct = false;
      std::cerr << "check failed (traced pass): " << traced_pass.error << "\n";
    }
    if (traced_pass.digest != base.digest ||
        traced_pass.attempted != base.attempted ||
        traced_pass.failed != base.failed ||
        traced_pass.no_aggregate != base.no_aggregate) {
      correct = false;
      std::cerr << "check failed: the traced pass changed the model output\n";
    }
    const double traced_rps = rounds_per_s(at_reference_speed(traced_pass));
    overhead = traced_rps > 0 ? rounds_per_s(scaled) / traced_rps - 1.0 : 0.0;
  }
  const RunOutput& traced = forwarders ? traced_pass : base;
  const std::vector<Metric> metrics =
      per_layer(base, traced, tracer, overhead);
  std::cout << "ct subslots " << tracer.subslots() << " sim is_down calls "
            << tracer.is_down_calls() << " spans " << tracer.spans().size()
            << "\n";
  if (!opt.trace_out.empty()) {
    std::ofstream file(opt.trace_out);
    std::vector<std::pair<std::string, double>> summary;
    for (const Metric& m : metrics) summary.emplace_back(m.name, m.value);
    tracer.write_chrome_trace(file, 200000, summary);
    if (!file) {
      std::cerr << "cannot write " << opt.trace_out << "\n";
      return 1;
    }
    std::cout << "trace written to " << opt.trace_out << "\n";
  }
  print_result(base, correct, metrics);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "ctagg-perfbench: " << e.what() << "\n";
    return 1;
  }
}
