#include "spans.hpp"

#include <time.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench::spans {
namespace {

/// Raw spans kept per thread for the Chrome trace; totals cover all spans.
constexpr std::size_t kMaxRawPerThread = 50000;

struct Open {
  const char* name;
  std::int64_t start;
  std::int64_t child_ns;
};

struct Closed {
  const char* name;
  std::int64_t start;
  std::int64_t end;
};

struct ThreadLog {
  int tid = 0;
  std::vector<Open> stack;
  std::vector<Closed> raw;
  std::map<const char*, Totals> totals;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mutex

ThreadLog& log() {
  thread_local ThreadLog* mine = nullptr;
  if (mine == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    mine = g_logs.back().get();
    mine->tid = static_cast<int>(g_logs.size());
  }
  return *mine;
}

}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

Span::Span(const char* name) noexcept {
  if (!enabled()) return;
  on_ = true;
  log().stack.push_back(Open{name, now_ns(), 0});
}

Span::~Span() {
  if (!on_) return;
  const std::int64_t end = now_ns();
  ThreadLog& l = log();
  const Open open = l.stack.back();
  l.stack.pop_back();
  const std::int64_t duration = end - open.start;
  Totals& t = l.totals[open.name];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (!l.stack.empty()) l.stack.back().child_ns += duration;
  if (l.raw.size() < kMaxRawPerThread)
    l.raw.push_back(Closed{open.name, open.start, end});
}

std::map<std::string, Totals> totals() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::map<std::string, Totals> out;
  for (const auto& l : g_logs)
    for (const auto& [name, t] : l->totals) {
      Totals& o = out[name];
      o.count += t.count;
      o.total_ns += t.total_ns;
      o.self_ns += t.self_ns;
    }
  return out;
}

void write_chrome_trace(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  for (const auto& l : g_logs)
    for (const Closed& c : l->raw) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\": \"" << c.name << "\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": " << l->tid << ", \"ts\": " << c.start / 1000 << '.'
          << (c.start % 1000) / 100 << ", \"dur\": "
          << static_cast<double>(c.end - c.start) / 1000.0 << '}';
    }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench::spans
