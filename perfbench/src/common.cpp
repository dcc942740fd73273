#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + upper) / 2.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double tail_percentile(std::size_t n) {
  static constexpr double kLadder[] = {99.99, 99.98, 99.95, 99.9, 99.8, 99.5,
                                       99.0,  98.0,  95.0,  90.0};
  for (const double p : kLadder) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 50.0;
}

double rounds_per_s(const RunOutput& run) {
  std::vector<double> rates;
  for (const RunOutput::Block& b : run.blocks) {
    if (b.seconds > 0) rates.push_back(static_cast<double>(b.rounds) / b.seconds);
  }
  return median(std::move(rates));
}

std::pair<double, double> round_ms_tail(const RunOutput& run) {
  if (!run.tail_per_block) {
    const double p = tail_percentile(run.round_ms.size());
    return {percentile(run.round_ms, p), p};
  }
  std::vector<double> tails;
  double p = 50.0;
  for (const RunOutput::Block& b : run.blocks) {
    const auto first = run.round_ms.begin() + static_cast<std::ptrdiff_t>(b.first);
    p = tail_percentile(b.rounds);
    tails.push_back(percentile(
        std::vector<double>(first, first + static_cast<std::ptrdiff_t>(b.rounds)), p));
  }
  return {median(std::move(tails)), p};
}

RunOutput at_reference_speed(const RunOutput& run) {
  RunOutput out = run;
  for (RunOutput::Block& b : out.blocks) {
    b.seconds *= b.speed;
    for (std::size_t i = b.first; i < b.first + b.rounds; ++i) {
      out.round_ms[i] *= b.speed;
    }
  }
  for (std::size_t i = 0; i < out.setup_s.size(); ++i) {
    out.setup_s[i] *= out.setup_speed[i];
  }
  return out;
}

double self_peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launching process's peak when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
