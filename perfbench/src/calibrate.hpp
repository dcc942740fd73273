// Host-speed calibration.
//
// The reference host is a virtual machine whose speed drifts by up to a
// third over tens of seconds, as other guests load the cores it shares:
// the same work, same seed, reads 90 rounds/s in one minute and 117 in
// the next. No statistic inside one run removes that, so each timed
// block is followed by a fixed calibration kernel that runs no
// repository code, and the benchmark reports every timing scaled by
// the host speed the kernel saw: time x reference_ms / kernel_ms.
//
// The kernel matches the block's kind of work, since host load slows
// kinds of work by different factors: an in-cache compute loop for the
// single-thread simulator workloads, a loopback TCP ping-pong with a
// forked peer for the socket-bound rt workload.
#pragma once

namespace perfbench {

enum class Kernel {
  /// Xorshift draws, table lookups and floating-point chains over a
  /// 64 KiB table, a stand-in for the simulator's inner loops.
  kCompute,
  /// Request/response over loopback TCP with a forked peer, each side
  /// polling before it reads: rt's event-loop path, on the caller's
  /// CPUs.
  kLoopback,
};

/// Host speed now, relative to the reference host: reference time of
/// `kernel` over its time measured now (below 1 on a slower host).
/// Multiplying a measured time by it gives the time at reference speed.
double host_speed(Kernel kernel);

}  // namespace perfbench
