// loop_group.hpp — a fixed set of event loops, one per worker core.
//
// The multi-loop broadcast server pins every session to exactly one
// EventLoop and gives each loop its own thread, so per-session state needs
// no locks: cross-loop communication happens only through EventLoop::post().
// LoopGroup owns the K loops and the K-1 worker threads; loop 0 belongs to
// the caller (the server drives it inline so the slot clock, listener
// lifecycle, and shutdown sequencing stay on the thread that constructed
// the server).
//
// EventLoop is neither movable nor copyable, so loops are held by
// unique_ptr; references returned by loop() stay stable for the group's
// lifetime.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"

namespace tcsa::net {

class LoopGroup {
 public:
  /// Builds `loops` event loops (at least 1).
  explicit LoopGroup(std::size_t loops);

  /// Joins any still-running workers (swallowing their stored error —
  /// destruction is not the place to throw; call join_workers() first to
  /// observe failures).
  ~LoopGroup();

  LoopGroup(const LoopGroup&) = delete;
  LoopGroup& operator=(const LoopGroup&) = delete;

  std::size_t size() const noexcept { return loops_.size(); }
  EventLoop& loop(std::size_t index) { return *loops_[index]; }
  const EventLoop& loop(std::size_t index) const { return *loops_[index]; }

  /// Spawns one thread per worker loop (indices 1..size()-1), each running
  /// `body(index)`. `body` must return only when that loop is done (the
  /// server's body polls until a stop token arrives). No-op when size()==1.
  void start_workers(std::function<void(std::size_t)> body);

  /// Joins all worker threads. If any worker body threw, rethrows the
  /// first error (as std::runtime_error) after all joins complete.
  void join_workers();

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> workers_;
  std::mutex error_mutex_;
  std::string first_error_;  // empty = no worker failed
};

}  // namespace tcsa::net
