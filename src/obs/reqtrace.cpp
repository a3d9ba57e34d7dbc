#include "obs/reqtrace.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"

namespace tcsa::obs {

using detail::FlightCell;
using detail::FlightHeader;
using detail::kFlightMagic;
using detail::kFlightVersion;

namespace {

std::uint64_t load_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t load_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

extern "C" void tcsa_flight_seal_and_die(int sig) {
  // SA_RESETHAND restored the default disposition on entry; sealing is a
  // couple of stores plus msync, then the re-raise terminates as the
  // signal always would have.
  FlightRecorder::instance().seal();
  ::raise(sig);
}

extern "C" void tcsa_flight_seal(int) { FlightRecorder::instance().seal(); }

}  // namespace

const char* req_stage_name(ReqStage stage) noexcept {
  switch (stage) {
    case ReqStage::kClientSent: return "client.req.sent";
    case ReqStage::kClientAcked: return "client.req.acked";
    case ReqStage::kClientFirstByte: return "client.req.first_byte";
    case ReqStage::kClientDecoded: return "client.req.decoded";
    case ReqStage::kClientDone: return "client.req.done";
    case ReqStage::kServerRecv: return "server.req.recv";
    case ReqStage::kServerSched: return "server.req.sched";
    case ReqStage::kServerEncoded: return "server.req.encoded";
    case ReqStage::kServerFlushed: return "server.req.flushed";
    case ReqStage::kServerPullAired: return "server.req.pull_aired";
  }
  return "req.unknown";
}

std::uint64_t mint_trace_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
  const std::uint64_t seq =
      counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return (pid << 40) | (seq & ((std::uint64_t{1} << 40) - 1));
}

// ------------------------------------------------------- FlightRecorder

FlightRecorder& FlightRecorder::instance() noexcept {
  static FlightRecorder recorder;
  return recorder;
}

bool FlightRecorder::open(const std::string& path, std::uint32_t capacity) {
  close();
  if (capacity == 0) {
    error_ = "flight recorder: capacity must be nonzero";
    return false;
  }
  // Power-of-two ring so record() masks instead of dividing; rounding up
  // only ever keeps MORE events than asked for.
  while ((capacity & (capacity - 1)) != 0) capacity += capacity & -capacity;
  const int fd =
      ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    error_ = "flight recorder: open " + path + ": " + std::strerror(errno);
    return false;
  }
  const std::size_t bytes =
      sizeof(FlightHeader) + std::size_t{capacity} * sizeof(FlightCell);
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    error_ =
        "flight recorder: ftruncate " + path + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                      0);
  if (base == MAP_FAILED) {
    error_ = "flight recorder: mmap " + path + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  auto* hdr = reinterpret_cast<FlightHeader*>(base);
  hdr->version = kFlightVersion;
  hdr->capacity = capacity;
  hdr->head.store(0, std::memory_order_relaxed);
  hdr->wall_epoch_us = trace_epoch_wall_us();
  hdr->sealed.store(0, std::memory_order_relaxed);
  std::memset(hdr->reserved, 0, sizeof hdr->reserved);
  // Magic last: a replay never mistakes a half-initialized file for a ring.
  hdr->magic = kFlightMagic;
  fd_ = fd;
  path_ = path;
  map_bytes_ = bytes;
  capacity_ = capacity;
  error_.clear();
  map_.store(static_cast<unsigned char*>(base), std::memory_order_release);
  return true;
}

void FlightRecorder::close() noexcept {
  unsigned char* base = map_.exchange(nullptr, std::memory_order_acq_rel);
  if (base == nullptr) return;
  // Callers must quiesce writers first (the server closes after its loops
  // join); record() snapshots map_ once, so the exchange above only
  // guards against double-close.
  auto* hdr = reinterpret_cast<FlightHeader*>(base);
  hdr->sealed.store(1, std::memory_order_release);
  ::msync(base, map_bytes_, MS_SYNC);
  ::munmap(base, map_bytes_);
  ::close(fd_);
  fd_ = -1;
  map_bytes_ = 0;
  capacity_ = 0;
}

void FlightRecorder::seal() noexcept {
  unsigned char* base = map_.load(std::memory_order_acquire);
  if (base == nullptr) return;
  auto* hdr = reinterpret_cast<FlightHeader*>(base);
  hdr->sealed.store(1, std::memory_order_release);
  ::msync(base, map_bytes_, MS_ASYNC);
}

std::uint64_t FlightRecorder::recorded() const noexcept {
  unsigned char* base = map_.load(std::memory_order_acquire);
  if (base == nullptr) return 0;
  return reinterpret_cast<FlightHeader*>(base)->head.load(
      std::memory_order_relaxed);
}

void flight_install_signal_handlers() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true)) return;
  struct sigaction quit {};
  quit.sa_handler = tcsa_flight_seal;
  sigemptyset(&quit.sa_mask);
  quit.sa_flags = SA_RESTART;
  ::sigaction(SIGQUIT, &quit, nullptr);
  struct sigaction fatal {};
  fatal.sa_handler = tcsa_flight_seal_and_die;
  sigemptyset(&fatal.sa_mask);
  fatal.sa_flags = SA_RESETHAND | SA_NODEFER;
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
    ::sigaction(sig, &fatal, nullptr);
}

std::vector<FlightEvent> flight_load(const std::string& path, bool* sealed) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw std::runtime_error("flight_load: open " + path + ": " +
                             std::strerror(errno));
  std::vector<unsigned char> bytes;
  unsigned char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("flight_load: read " + path + ": " +
                               std::strerror(err));
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  if (bytes.size() < sizeof(FlightHeader))
    throw std::runtime_error("flight_load: " + path +
                             ": short file (no header)");
  if (load_u64(bytes.data()) != kFlightMagic)
    throw std::runtime_error("flight_load: " + path +
                             ": not a flight-recorder ring (bad magic)");
  if (load_u32(bytes.data() + 8) != kFlightVersion)
    throw std::runtime_error("flight_load: " + path +
                             ": unsupported flight-recorder version");
  const std::uint32_t capacity = load_u32(bytes.data() + 12);
  if (sealed != nullptr) *sealed = load_u64(bytes.data() + 32) != 0;
  const std::size_t expected =
      sizeof(FlightHeader) + std::size_t{capacity} * sizeof(FlightCell);
  if (capacity == 0 || bytes.size() < expected)
    throw std::runtime_error("flight_load: " + path + ": truncated ring");
  std::vector<FlightEvent> events;
  events.reserve(capacity);
  for (std::uint32_t i = 0; i < capacity; ++i) {
    const unsigned char* cell =
        bytes.data() + sizeof(FlightHeader) + std::size_t{i} * sizeof(FlightCell);
    const std::uint64_t open_ord = load_u64(cell + 0);
    const std::uint64_t commit_ord = load_u64(cell + 40);
    if (open_ord == 0 || open_ord != commit_ord) continue;  // empty or torn
    if ((open_ord - 1) % capacity != i) continue;           // misplaced
    FlightEvent event;
    event.ordinal = open_ord;
    event.trace_id = load_u64(cell + 8);
    event.t_us = load_u64(cell + 16);
    event.arg = load_u64(cell + 24);
    event.stage = load_u32(cell + 32);
    events.push_back(event);
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.ordinal < b.ordinal;
            });
  return events;
}

// ------------------------------------------------------- ReqPercentiles

ReqPercentiles::ReqPercentiles(const std::string& base,
                               const std::string& unit,
                               const std::string& help,
                               std::vector<double> upper_bounds)
    : hist_(register_histogram(base + "_" + unit, help,
                               std::move(upper_bounds))),
      p50_(register_gauge(base + "_p50_" + unit, help + " (p50, <1% error)")),
      p99_(register_gauge(base + "_p99_" + unit, help + " (p99, <1% error)")),
      p999_(
          register_gauge(base + "_p999_" + unit, help + " (p999, <1% error)")),
      p9999_(register_gauge(base + "_p9999_" + unit,
                            help + " (p9999, <1% error)")) {}

void ReqPercentiles::record(double value) noexcept {
  histogram_observe(hist_, value);
  std::lock_guard<std::mutex> lock(mu_);
  values_.record(value);
}

void ReqPercentiles::publish() noexcept {
  static constexpr std::array<double, 4> kQs{0.50, 0.99, 0.999, 0.9999};
  std::array<double, 4> value{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    values_.quantiles(kQs, value);
  }
  gauge_set(p50_, value[0]);
  gauge_set(p99_, value[1]);
  gauge_set(p999_, value[2]);
  gauge_set(p9999_, value[3]);
}

std::uint64_t ReqPercentiles::count() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return values_.count();
}

double ReqPercentiles::percentile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_.quantile(q);
}

}  // namespace tcsa::obs
