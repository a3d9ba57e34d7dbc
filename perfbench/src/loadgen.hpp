// loadgen.hpp — the open-loop load generator: sessions over loopback and
// the client threads that drive them.
//
// Each receiver session is independent. Its requests come due on the
// seeded Poisson schedule whatever the server does (open loop); a client
// thread sends each one when its timerfd fires and every request is timed
// from when it was due. At most two client threads serve all sessions, so
// the server's loops keep the remaining cores.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gen.hpp"
#include "net/framing.hpp"
#include "receiver.hpp"

namespace perfbench {

constexpr int kClientThreads = 2;

struct Session {
  int fd = -1;
  tcsa::net::FrameDecoder decoder;
  std::unique_ptr<Receiver> rx;
  const std::vector<Arrival>* arrivals = nullptr;
  std::size_t next = 0;   ///< next arrival to open
  bool closed = false;    ///< the server closed the connection
  std::string violation;  ///< first wire-correctness violation, if any

  Session() = default;
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
};

/// Connects, reads the hello, and subscribes to the channels in `mask`.
/// The control session takes channel 0 alone: the server flushes a
/// session's queue (announces included) only when a slot airs to it.
std::unique_ptr<Session> connect_session(std::uint16_t port,
                                         Registry& registry,
                                         std::uint32_t slot_us,
                                         std::uint32_t tag, bool exact_check,
                                         std::uint64_t mask);

/// Sends `bytes` on the session (blocking). Throws on failure.
void send_bytes(Session& session, const std::string& bytes);

/// Reads and checks frames until `done()` holds; throws on timeout or close.
void pump_until(Session& session, const std::function<bool()>& done,
                double timeout_s);

/// Client-side counters of one phase, summed over the client threads.
struct PhaseStats {
  double busy_ratio_max = 0.0;      ///< busiest thread's share outside epoll
  std::int64_t decode_ns = 0;      ///< inside FrameDecoder (traced only)
  std::uint64_t decoded = 0;        ///< frames timed for decode_ns
  std::vector<double> send_lateness_us;
};

/// Phase timing, absolute CLOCK_MONOTONIC ns. Arrivals are due at
/// start_ns + due_ns and only those due before end_ns are opened; receivers
/// record slot arrivals in [start_ns, end_ns). Threads return once no
/// request is outstanding after end_ns, or at drain_ns.
struct PhaseClock {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t drain_ns = 0;
};

/// Runs the phase on kClientThreads threads; `during` runs on the calling
/// thread meanwhile (scrapes, swaps). Violations land in each Session.
PhaseStats run_phase(const std::vector<Session*>& sessions,
                     const PhaseClock& clock,
                     const std::function<void()>& during);

}  // namespace perfbench
