#include "calibrate.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

/// Kernel times (ms) that define reference speed, taken on a 4-vCPU
/// x86-64 VM. They only set the scale of the reported figures.
constexpr double kComputeReferenceMs = 10.0;
constexpr double kLoopbackReferenceMs = 14.0;

constexpr int kComputeSteps = 1'000'000;
constexpr int kPingPongs = 1000;
constexpr std::size_t kMessageBytes = 64;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

double compute_ms() {
  static const std::vector<double> table = [] {
    std::vector<double> t(8192);
    std::uint64_t x = 88172645463325252ull;
    for (double& v : t) v = static_cast<double>(xorshift(x) >> 11) * 0x1.0p-53;
    return t;
  }();
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  double a = 0.0;
  double b = 0.0;
  for (int i = 0; i < kComputeSteps; ++i) {
    const std::uint64_t r = xorshift(x);
    const double p = table[r & 8191];
    a = a * 0.999 + (p > 0.5 ? p : p * p);
    b = b * 0.998 + table[(r >> 20) & 8191] * p;
  }
  static volatile double sink;
  sink = a + b;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Blocks until `fd` is readable, then reads one whole message.
bool receive(int fd, char* buf) {
  pollfd p{fd, POLLIN, 0};
  std::size_t got = 0;
  while (got < kMessageBytes) {
    if (poll(&p, 1, -1) < 0) return false;
    const ssize_t n = read(fd, buf + got, kMessageBytes - got);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool send(int fd, const char* buf) {
  std::size_t sent = 0;
  while (sent < kMessageBytes) {
    const ssize_t n = write(fd, buf + sent, kMessageBytes - sent);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void set_nodelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

double loopback_ms() {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (listener < 0 ||
      bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listener, 1) != 0 ||
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (listener >= 0) close(listener);
    throw std::runtime_error("calibration: cannot listen on loopback");
  }
  const pid_t peer = fork();
  if (peer == 0) {
    close(listener);
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 ||
        connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      _exit(1);
    }
    set_nodelay(fd);
    char buf[kMessageBytes] = {};
    for (int i = 0; i < kPingPongs; ++i) {
      if (!receive(fd, buf) || !send(fd, buf)) _exit(1);
    }
    _exit(0);
  }
  if (peer < 0) {
    close(listener);
    throw std::runtime_error("calibration: fork failed");
  }
  const int fd = accept(listener, nullptr, nullptr);
  close(listener);
  bool ok = fd >= 0;
  if (ok) set_nodelay(fd);
  char buf[kMessageBytes] = {};
  const std::int64_t t0 = now_ns();
  for (int i = 0; ok && i < kPingPongs; ++i) {
    ok = send(fd, buf) && receive(fd, buf);
  }
  const std::int64_t t1 = now_ns();
  if (fd >= 0) close(fd);
  if (!ok) kill(peer, SIGKILL);
  int status = 0;
  waitpid(peer, &status, 0);
  if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("calibration: loopback ping-pong failed");
  }
  return static_cast<double>(t1 - t0) / 1e6;
}

}  // namespace

double host_speed(Kernel kernel) {
  return kernel == Kernel::kCompute ? kComputeReferenceMs / compute_ms()
                                    : kLoopbackReferenceMs / loopback_ms();
}

}  // namespace perfbench
