// rt_loopback — the `rt` workload: the real-socket runtime.
//
// An in-process rt::Coordinator drives 3 forked rt::run_node processes
// over loopback TCP (4 processes, one per vCPU of the reference host),
// for a fixed number of short campaigns, each a fresh deployment. It is
// the only workload on real sockets, and its rounds run core::roles
// instead of SssProtocol, so a change to the shared round kernel shows
// here separately from flat_dcube_s4.
//
// Per-round wall time comes from the coordinator's own progress
// stream: it writes one line when all nodes joined and one per
// finalized round, and the benchmark stamps each line with the
// monotonic clock as its newline arrives. Set-up is construction, the
// forks and the join, up to the join line.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <exception>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "common.hpp"
#include "crypto/prng.hpp"
#include "field/fp61.hpp"
#include "rt/coordinator.hpp"
#include "rt/deployment.hpp"
#include "rt/node.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace mpciot;

constexpr std::uint64_t kStreamDeploy = 0x50424454ull;  // "PBDT"
constexpr std::uint32_t kNodes = 3;
/// Rounds per campaign and campaigns per second of --seconds (the
/// runtime finalized ~5-6k rounds/s on one vCPU of a 4-vCPU x86-64
/// host). 1000 rounds make p99 the campaign's tail percentile.
constexpr std::uint32_t kRoundsPerCampaign = 1000;
constexpr std::uint32_t kCampaignsPerSecond = 5;

/// Stamps every line written to it with the monotonic clock when its
/// newline arrives; unbuffered, so the stamp is taken at the write.
class StampingBuf final : public std::streambuf {
 public:
  std::vector<std::int64_t> stamps;
  /// Lines that are neither the join line nor a successful round line.
  std::vector<std::string> unexpected;

 protected:
  int_type overflow(int_type ch) override {
    if (ch == traits_type::eof()) return traits_type::not_eof(ch);
    if (ch != '\n') {
      line_.push_back(static_cast<char>(ch));
      return ch;
    }
    stamps.push_back(now_ns());
    const bool join = line_.find(" nodes joined after ") != std::string::npos;
    const bool round_ok = line_.rfind("coordinator: round ", 0) == 0 &&
                          line_.find(" ok after ") != std::string::npos;
    if (stamps.size() == 1 ? !join : !round_ok) unexpected.push_back(line_);
    line_.clear();
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) overflow(s[i]);
    return n;
  }

 private:
  std::string line_;
};

struct Usage {
  double cpu_us = 0.0;
  double ctx_switches = 0.0;
  double max_rss_mb = 0.0;
};

Usage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

/// Confines this process, and so the nodes it forks, to the last CPU
/// it may run on, for the lifetime of the object. On the virtualised
/// reference host a wake-up across vCPUs costs 0.1 to 10 ms depending
/// on the load of other guests, which swung rounds/s by 2x from run to
/// run; on one vCPU a round costs what the runtime's own path costs
/// (framing, event loop, syscalls, context switches).
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) last = cpu;
    }
    if (last < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace

RunOutput run_rt_loopback(const Options& opt, Tracer* tracer) {
  const PinToOneCpu pin;
  RunOutput out;
  out.tail_per_block = true;
  const std::uint32_t campaigns = kCampaignsPerSecond * opt.seconds;
  std::vector<double> join_ms;
  double coord_cpu_us = 0.0;
  double speed_before = 0.0;
  double coord_wall_us = 0.0;
  double node_cpu_us = 0.0;
  double ctx_switches = 0.0;
  std::uint64_t stamped_lines = 0;
  Digest digest;
  for (std::uint32_t c = 0; c < campaigns; ++c) {
    rt::CoordinatorConfig config;
    config.node_count = kNodes;
    config.rounds = kRoundsPerCampaign;
    config.deployment_seed = crypto::derive_seed(opt.seed, kStreamDeploy, c);
    config.join_timeout_ms = 20000;

    const std::int64_t t0 = now_ns();
    rt::Coordinator coordinator(config);
    const std::uint16_t port = coordinator.bind();
    std::vector<pid_t> children;
    bool aborted = false;
    for (NodeId n = 0; n < kNodes; ++n) {
      const pid_t pid = fork();
      if (pid == 0) {
        rt::NodeConfig node;
        node.node = n;
        node.node_count = kNodes;
        node.deployment_seed = config.deployment_seed;
        node.port = port;
        _exit(rt::run_node(node));
      }
      if (pid < 0) {
        aborted = true;
        out.fail(std::string("rt_loopback: fork failed: ") +
                 std::strerror(errno));
        break;
      }
      children.push_back(pid);
    }
    const std::int64_t forked = now_ns();
    StampingBuf stamps;
    std::ostream progress(&stamps);
    const Usage self0 = usage(RUSAGE_SELF);
    const Usage kids0 = usage(RUSAGE_CHILDREN);
    int exit_code = 1;
    if (!aborted) {
      try {
        exit_code = coordinator.run(&progress);
      } catch (const std::exception& e) {
        aborted = true;
        out.fail(std::string("rt_loopback: coordinator threw: ") + e.what());
      }
    }
    // A coordinator that stopped early (join timeout, failed round) may
    // leave nodes waiting on open sockets: stop them before reaping.
    if (aborted || exit_code != 0) {
      for (const pid_t pid : children) kill(pid, SIGKILL);
    }
    const std::int64_t run_end = now_ns();
    const Usage self1 = usage(RUSAGE_SELF);
    std::uint32_t node_failures = 0;
    for (const pid_t pid : children) {
      int status = 0;
      waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != rt::kExitOk) {
        ++node_failures;
      }
    }
    const Usage kids1 = usage(RUSAGE_CHILDREN);
    if (aborted) break;
    if (exit_code != 0 || node_failures != 0) {
      out.fail("rt_loopback: coordinator or node exited with an error");
    }

    // One stamped line for the join plus one per finalized round.
    stamped_lines += stamps.stamps.size();
    if (stamps.stamps.size() != kRoundsPerCampaign + 1 ||
        !stamps.unexpected.empty()) {
      out.fail("rt_loopback: progress stream is not one join line plus one "
               "ok line per round");
      break;
    }
    join_ms.push_back(static_cast<double>(stamps.stamps[0] - forked) / 1e6);
    for (std::uint32_t r = 0; r < kRoundsPerCampaign; ++r) {
      out.round_ms.push_back(
          static_cast<double>(stamps.stamps[r + 1] - stamps.stamps[r]) / 1e6);
    }
    // A campaign is short (~0.2 s), so the speed measured before it
    // (after the previous campaign) is as close to it as the one
    // measured after; their harmonic mean (reference time over the mean
    // kernel time) tracks the host better than either alone.
    const double speed_after = host_speed(Kernel::kLoopback);
    const double speed =
        speed_before > 0 ? 2.0 / (1.0 / speed_before + 1.0 / speed_after)
                         : speed_after;
    speed_before = speed_after;
    out.add_block(kRoundsPerCampaign,
                  static_cast<double>(stamps.stamps.back() - stamps.stamps[0]) /
                      1e9,
                  speed);
    out.add_setup(static_cast<double>(stamps.stamps[0] - t0) / 1e9, speed);
    if (tracer != nullptr) {
      tracer->record("rt.setup", t0, stamps.stamps[0]);
      for (std::uint32_t r = 0; r < kRoundsPerCampaign; ++r) {
        tracer->record("round", stamps.stamps[r], stamps.stamps[r + 1]);
      }
    }
    coord_cpu_us += self1.cpu_us - self0.cpu_us;
    coord_wall_us += static_cast<double>(run_end - forked) / 1e3;
    node_cpu_us += kids1.cpu_us - kids0.cpu_us;
    ctx_switches += (self1.ctx_switches - self0.ctx_switches) +
                    (kids1.ctx_switches - kids0.ctx_switches);

    // Independent check: every round's aggregate is the sum of
    // rt::expected_sum over the groups' reported contributor masks,
    // recomputed from the deployment plan.
    const rt::DeploymentPlan plan =
        rt::plan_deployment(config.deployment_seed, kNodes);
    const auto& outcomes = coordinator.outcomes();
    out.attempted += kRoundsPerCampaign;
    if (outcomes.size() != kRoundsPerCampaign) {
      out.failed += kRoundsPerCampaign -
                    std::min<std::size_t>(outcomes.size(), kRoundsPerCampaign);
      out.fail("rt_loopback: missing round outcomes");
    }
    for (const rt::RoundOutcome& o : outcomes) {
      bool matched = o.groups.size() == plan.groups.size();
      field::Fp61 expected{0};
      for (std::size_t g = 0; matched && g < plan.groups.size(); ++g) {
        expected += rt::expected_sum(config.deployment_seed, o.round,
                                     plan.groups[g],
                                     o.groups[g].contributor_mask);
      }
      if (!matched || expected.value() != o.aggregate) {
        ++out.failed;
        out.fail("rt_loopback: aggregate differs from the recomputed sum");
      }
      if (!o.ok) ++out.no_aggregate;
    }
    digest.add_bytes(coordinator.report().dump_string());
  }
  const double rounds = static_cast<double>(out.attempted);
  out.set_layer("rt.join_ms", median(join_ms));
  out.set_layer("rt.coord_cpu_us_per_round",
                rounds > 0 ? coord_cpu_us / rounds : 0.0);
  out.set_layer("rt.node_cpu_us_per_round",
                rounds > 0 ? node_cpu_us / rounds : 0.0);
  out.set_layer("rt.coord_busy_share",
                coord_wall_us > 0 ? coord_cpu_us / coord_wall_us : 0.0);
  out.set_layer("rt.ctx_switches_per_round",
                rounds > 0 ? ctx_switches / rounds : 0.0);
  out.notes.push_back("rt progress lines " + std::to_string(stamped_lines) +
                      " for " + std::to_string(out.attempted) + " rounds in " +
                      std::to_string(out.setup_s.size()) + " campaigns");
  out.digest = digest.value();
  out.peak_rss_mb =
      std::max(self_peak_rss_mb(), usage(RUSAGE_CHILDREN).max_rss_mb);
  return out;
}

}  // namespace perfbench
