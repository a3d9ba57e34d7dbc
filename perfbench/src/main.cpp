// perfbench_client — the benchmark's single load-generating process.
//
//   perfbench_client gen --workload W --seed N --seconds S --dir D
//       writes the generated inputs (catalogs and arrival schedules) into D.
//   perfbench_client run --workload W --seed N --seconds S --trace 0|1
//                        --tcsactl PATH --dir D
//       launches `tcsactl serve` on the generated catalog, measures set-up,
//       drives the open-loop window (and the workload's extra phases: the
//       slot-rate ladder, the swap loop, the pull-off check run), checks the
//       wire, and writes the raw measurements to D/record.json. With
//       --trace 1 it also runs the layer probes and writes D/trace.json.
//       Statistics are left to run.py. Exit 0 = record written, 3 = a
//       wire-correctness violation (record still written), 2 = error.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen.hpp"
#include "json_out.hpp"
#include "loadgen.hpp"
#include "probes.hpp"
#include "server_proc.hpp"
#include "spans.hpp"
#include "util/wire.hpp"

namespace perfbench {
namespace {

constexpr int kSetupLaunches = 7;
constexpr double kWarmupS = 0.3;
constexpr double kRungSeconds = 0.6;
constexpr double kGaugePeriodS = 0.25;
constexpr double kScrapeLeadS = 0.1;
constexpr double kSwapPeriodS = 2.0;
/// Tolerance of the pull-off check: |wire - model| overdue, in slots.
constexpr double kOverdueRelTol = 0.05;
constexpr double kOverdueAbsTol = 0.05;
/// A server outlives a crashed benchmark by at most this long.
constexpr double kServerLifetimeS = 170.0;

struct Args {
  std::string command, workload, tcsactl, dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench_client gen|run ...");
  Args a;
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--tcsactl") a.tcsactl = v;
    else if (k == "--dir") a.dir = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty() || a.dir.empty() || a.seconds <= 0.0)
    throw std::invalid_argument("--workload, --dir and --seconds > 0 are required");
  return a;
}

void sleep_until(std::int64_t t_ns) {
  const std::int64_t left = t_ns - spans::now_ns();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

std::int64_t seconds_ns(double s) { return static_cast<std::int64_t>(s * 1e9); }

/// A server launch recipe; the slot length and pull channels vary by phase.
struct Launcher {
  const Args& args;
  const Inputs& in;
  std::unique_ptr<ServerProc> launch(std::uint32_t slot_us,
                                     int pull_channels) const {
    const WorkloadConfig& c = in.config;
    std::vector<std::string> a = {
        "--workload", args.dir + "/catalog.tcsa", "--slot-us",
        std::to_string(slot_us), "--loops", std::to_string(c.loops),
        "--channels", std::to_string(in.channels), "--slots",
        std::to_string(static_cast<std::uint64_t>(kServerLifetimeS * 1e6 /
                                                  slot_us))};
    if (pull_channels > 0)
      a.insert(a.end(), {"--pull-channels", std::to_string(pull_channels),
                         "--pull-policy", "lwf"});
    auto server = std::make_unique<ServerProc>(args.tcsactl, args.dir, a);
    server->wait_listening(120.0);
    return server;
  }
};

/// Stops a server; a non-clean exit is an error of the run.
void stop_server(std::unique_ptr<ServerProc>& server) {
  const int status = server->stop();
  server.reset();
  if (status != 0)
    throw std::runtime_error("server exited with status " +
                             std::to_string(status));
}

struct Scrape {
  std::string metrics;  // raw /metrics.json
  CpuTicks cpu;
  std::int64_t t_ns = 0;
};

Scrape scrape(const ServerProc& server) {
  Scrape s;
  s.t_ns = spans::now_ns();
  s.metrics = http_get(server.admin_port(), "/metrics.json");
  s.cpu = read_cpu_ticks(server.pid());
  return s;
}

void write_scrape(JsonWriter& w, const char* key, const Scrape& s) {
  w.key(key).begin_object();
  w.key("t_s").value(static_cast<double>(s.t_ns) / 1e9);
  w.key("utime_ticks").value(std::uint64_t{s.cpu.user});
  w.key("stime_ticks").value(std::uint64_t{s.cpu.sys});
  w.key("metrics").raw(s.metrics);
  w.end_object();
}

/// Live sessions per server loop, from /healthz.
std::vector<std::size_t> sessions_per_loop(const ServerProc& server) {
  const std::string body = http_get(server.admin_port(), "/healthz");
  const std::string key = "\"sessions_per_loop\": [";
  const std::size_t from = body.find(key);
  const std::size_t to = body.find(']', from);
  if (from == std::string::npos || to == std::string::npos)
    throw std::runtime_error("/healthz has no sessions_per_loop");
  std::istringstream list(body.substr(from + key.size(), to - from - key.size()));
  std::vector<std::size_t> counts;
  for (std::string item; std::getline(list, item, ',');)
    counts.push_back(std::stoul(item));
  return counts;
}

void await_sessions(const ServerProc& server,
                    const std::vector<std::size_t>& expected) {
  const std::int64_t deadline = spans::now_ns() + seconds_ns(10.0);
  while (sessions_per_loop(server) != expected) {
    if (spans::now_ns() > deadline)
      throw std::runtime_error("the server did not settle its sessions");
    sleep_until(spans::now_ns() + 1'000'000);
  }
}

/// Receivers of one phase, spread evenly over the server's loops. The kernel
/// picks a loop by hashing the connection, and an uneven draw changes the
/// server's work from run to run, so a session that lands on a loop that
/// already holds its share is closed and dialled again. `loops` 1 skips the
/// balancing (an overloaded ladder rung may not settle its sessions). The
/// first `count` sessions get `arrivals`.
std::vector<std::unique_ptr<Session>> connect_receivers(
    const ServerProc& server, Registry& registry, std::uint32_t slot_us,
    bool exact, const std::vector<std::vector<Arrival>>* arrivals, int count,
    int loops) {
  constexpr int kMaxRedials = 64;
  const auto share = static_cast<std::size_t>((count + loops - 1) / loops);
  std::vector<std::size_t> placed(static_cast<std::size_t>(loops), 0);
  if (loops > 1) await_sessions(server, placed);  // set-up probes have left
  std::vector<std::unique_ptr<Session>> out;
  for (int i = 0; i < count; ++i) {
    for (int dial = 0;; ++dial) {
      auto session = connect_session(server.port(), registry, slot_us,
                                     static_cast<std::uint32_t>(i + 1), exact,
                                     tcsa::net::kAllChannels);
      if (loops > 1) {
        const std::vector<std::size_t> now = sessions_per_loop(server);
        const auto loop = static_cast<std::size_t>(
            std::mismatch(now.begin(), now.end(), placed.begin()).first -
            now.begin());
        if (loop < now.size() && now[loop] > share && dial < kMaxRedials) {
          session.reset();
          await_sessions(server, placed);
          continue;
        }
        placed = now;
      }
      if (arrivals)
        session->arrivals = &(*arrivals)[static_cast<std::size_t>(i)];
      out.push_back(std::move(session));
      break;
    }
  }
  return out;
}

std::vector<Session*> raw(const std::vector<std::unique_ptr<Session>>& v) {
  std::vector<Session*> out;
  for (const auto& s : v) out.push_back(s.get());
  return out;
}

/// Earliest (arrival - slot start) over every first-frame-of-slot record:
/// the server's slot-0 epoch plus the least delivery latency.
std::int64_t epoch_estimate(const std::vector<std::unique_ptr<Session>>& ss,
                            std::int64_t slot_ns) {
  std::int64_t epoch = std::numeric_limits<std::int64_t>::max();
  for (const auto& s : ss)
    for (const auto& [slot, t] : s->rx->slot_arrivals())
      epoch = std::min(epoch, t - slot * slot_ns);
  return epoch;
}

std::vector<double> lateness_us(const std::vector<std::unique_ptr<Session>>& ss,
                                std::int64_t slot_ns, std::int64_t epoch) {
  std::vector<double> out;
  for (const auto& s : ss)
    for (const auto& [slot, t] : s->rx->slot_arrivals())
      out.push_back(static_cast<double>(t - slot * slot_ns - epoch) / 1e3);
  return out;
}

void collect_violations(const std::vector<std::unique_ptr<Session>>& ss,
                        std::vector<std::string>& violations) {
  for (const auto& s : ss)
    if (!s->violation.empty()) violations.push_back(s->violation);
}

std::size_t closed_sessions(const std::vector<std::unique_ptr<Session>>& ss) {
  std::size_t n = 0;
  for (const auto& s : ss) n += s->closed ? 1 : 0;
  return n;
}

/// Per-request outcome of one phase, in the record's units.
struct RequestSummary {
  std::uint64_t attempted = 0, completed = 0, failed = 0, late = 0;
  double overdue_sum_slots = 0.0;
  std::vector<double> delay_ms, pull_delay_ms;
  std::vector<SimRequest> sim;       // (page, arrival in slots)
  std::vector<PullDemand> demands;   // sent kReqs
};

RequestSummary summarize(const std::vector<std::unique_ptr<Session>>& ss,
                         std::int64_t slot_ns, std::int64_t epoch) {
  RequestSummary out;
  for (std::size_t i = 0; i < ss.size(); ++i)
    for (const RequestRecord& r : ss[i]->rx->requests()) {
      ++out.attempted;
      const double arrival =
          static_cast<double>(r.due_ns - epoch) / static_cast<double>(slot_ns);
      // The server sends a slot's frames as the slot starts; the model
      // (model/types.hpp) completes a page as its slot ends. Asking the model
      // about arrival + 1 makes both serve a request from the first slot
      // that starts after it.
      out.sim.emplace_back(r.page, arrival + 1.0);
      if (r.sent_ns >= 0)
        out.demands.push_back(PullDemand{
            static_cast<std::uint64_t>(std::max<std::int64_t>(
                0, (r.sent_ns - epoch) / slot_ns)),
            i + 1, r.page});
      const bool ok = r.done_ns >= 0 && (r.sent_ns < 0 || r.acked);
      if (!ok) {
        ++out.failed;
        continue;
      }
      ++out.completed;
      const double delay_ns = static_cast<double>(r.done_ns - r.due_ns);
      out.delay_ms.push_back(delay_ns / 1e6);
      if (r.via_pull) out.pull_delay_ms.push_back(delay_ns / 1e6);
      if (delay_ns > static_cast<double>(r.t_slots * slot_ns)) ++out.late;
      const double wire_slots = static_cast<double>(r.deliver_slot) - arrival;
      out.overdue_sum_slots +=
          std::max(0.0, wire_slots - static_cast<double>(r.t_slots));
    }
  return out;
}

void write_requests(JsonWriter& w, const RequestSummary& r) {
  w.key("attempted").value(r.attempted);
  w.key("completed").value(r.completed);
  w.key("failed").value(r.failed);
  w.key("late").value(r.late);
  w.key("overdue_mean_slots")
      .value(r.attempted ? r.overdue_sum_slots / static_cast<double>(r.attempted)
                         : 0.0);
  w.key("delay_ms").value(r.delay_ms);
  w.key("pull_delay_ms").value(r.pull_delay_ms);
}

void write_phase_stats(JsonWriter& w, const PhaseStats& st) {
  w.key("client").begin_object();
  w.key("busy_ratio_max").value(st.busy_ratio_max);
  w.key("decode_ns").value(st.decode_ns);
  w.key("decoded").value(st.decoded);
  w.key("send_lateness_us").value(st.send_lateness_us);
  w.end_object();
}

struct SwapLog {
  std::vector<double> reply_ms, seam_plan_ms;
};

/// The catalog-swap control loop: swap between the two catalogs until
/// `end_ns`, each swap once the previous one has activated and no sooner
/// than kSwapPeriodS after the previous request, so every window holds the
/// same number of swaps. A rejected swap fails the run.
void swap_loop(Session& control, Registry& registry,
               const std::shared_ptr<const ProgramInfo>& a,
               const std::shared_ptr<const ProgramInfo>& b,
               std::int64_t end_ns, SwapLog& log,
               const std::function<void()>& between) {
  std::uint32_t gen = 1;
  std::shared_ptr<const ProgramInfo> cur = a;
  SlotCount offset = 0;
  for (std::int64_t next_ns = spans::now_ns(); next_ns < end_ns;
       next_ns += seconds_ns(kSwapPeriodS)) {
    pump_until(control, [&] { return spans::now_ns() >= next_ns; }, 60.0);
    const std::shared_ptr<const ProgramInfo>& next = cur == a ? b : a;
    double ms = 0.0;
    const tcsa::SwapPlan plan = plan_seam(*cur, offset, *next, &ms);
    log.seam_plan_ms.push_back(ms);
    const std::uint32_t next_gen = gen + 1;
    registry.add(next_gen, GenInfo{next, plan.offset, -1, plan.seam_lateness});
    std::string payload;
    tcsa::wire_put_u32(payload, 0);     // keep the channel count
    tcsa::wire_put_u8(payload, 0xff);   // server picks SUSC/PAMAD
    payload += next->binary;
    std::string frame;
    tcsa::net::append_frame(frame, tcsa::net::FrameType::kSwap, payload);
    spans::Span span("swap.request");
    const std::int64_t t0 = spans::now_ns();
    send_bytes(control, frame);
    pump_until(control, [&] { return control.rx->swap_reply().has_value(); },
               60.0);
    log.reply_ms.push_back(static_cast<double>(spans::now_ns() - t0) / 1e6);
    const SwapReplyInfo reply = *control.rx->swap_reply();
    control.rx->swap_reply().reset();
    if (!reply.accepted)
      throw std::runtime_error("swap rejected: " + reply.error);
    if (reply.generation != next_gen ||
        reply.seam_lateness != plan.seam_lateness)
      throw WireViolation("swap reply names generation " +
                          std::to_string(reply.generation) + " with seam " +
                          std::to_string(reply.seam_lateness) +
                          "; the benchmark planned generation " +
                          std::to_string(next_gen) + " with seam " +
                          std::to_string(plan.seam_lateness));
    {
      spans::Span activate("swap.activate");
      pump_until(control, [&] { return control.rx->generation() == next_gen; },
                 30.0);
    }
    gen = next_gen;
    cur = next;
    offset = plan.offset;
    between();
  }
}

int run(const Args& args) {
  const Inputs in = make_inputs(args.workload, args.seed, args.seconds);
  const WorkloadConfig& cfg = in.config;
  write_inputs(in, args.dir);
  spans::set_enabled(args.trace);
  std::vector<std::string> violations;
  JsonWriter w;
  w.begin_object();
  w.key("workload").value(cfg.name);
  w.key("seed").value(args.seed);
  w.key("trace").value(args.trace);
  w.key("slot_us").value(std::uint64_t{cfg.slot_us});
  w.key("channels").value(std::int64_t{in.channels});
  w.key("pages").value(std::int64_t{in.catalog.total_pages()});
  w.key("clk_tck").value(std::int64_t{clock_ticks_per_s()});
  const std::int64_t slot_ns = std::int64_t{cfg.slot_us} * 1000;

  Registry registry;
  double schedule_ms = 0.0, partner_schedule_ms = 0.0;
  const auto prog_a = schedule_program(in.catalog, in.channels, &schedule_ms);
  const auto prog_b =
      schedule_program(in.partner, in.channels, &partner_schedule_ms);
  registry.add(1, GenInfo{prog_a, 0, 0, 0});
  const bool sufficient = cfg.exact_slot_check;
  const Launcher launcher{args, in};

  // --- set-up: launch -> first kPage at a client, several launches.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProc> server;
  for (int k = 0; k < kSetupLaunches; ++k) {
    spans::Span span("setup.launch");
    const std::int64_t t0 = spans::now_ns();
    server = launcher.launch(cfg.slot_us, cfg.pull_channels);
    auto probe = connect_session(server->port(), registry, cfg.slot_us, 99,
                                 false, tcsa::net::kAllChannels);
    pump_until(*probe, [&] { return probe->rx->pages_received() > 0; }, 60.0);
    setup_s.push_back(static_cast<double>(spans::now_ns() - t0) / 1e9);
    if (k + 1 < kSetupLaunches) stop_server(server);
  }
  w.key("setup_s").value(setup_s);

  // --- the measured window.
  auto receivers = connect_receivers(*server, registry, cfg.slot_us, sufficient,
                                     &in.arrivals, cfg.receivers, cfg.loops);
  std::unique_ptr<Session> control;
  if (cfg.control_session)
    control = connect_session(server->port(), registry, cfg.slot_us,
                              static_cast<std::uint32_t>(cfg.receivers + 1),
                              sufficient, 1);
  PhaseClock clock;
  clock.start_ns = spans::now_ns() + seconds_ns(kWarmupS);
  clock.end_ns = clock.start_ns + seconds_ns(args.seconds);
  const double max_wait_s = 3.0 * static_cast<double>(
                                      in.catalog.max_expected_time() * slot_ns) /
                            1e9;
  clock.drain_ns = clock.end_ns + seconds_ns(max_wait_s + 1.0);
  Scrape before, after;
  std::vector<std::string> gauge_samples;
  std::string slots_json;
  std::uint64_t vm_hwm_kb = 0;
  SwapLog swaps;
  std::string control_error;
  const auto sample_gauges = [&] {
    if (args.trace)
      gauge_samples.push_back(http_get(server->admin_port(), "/metrics.json"));
  };
  PhaseStats stats = run_phase(raw(receivers), clock, [&] {
    // Scrape ahead of the window: an admin request runs on the airing loop.
    sleep_until(clock.start_ns - seconds_ns(kScrapeLeadS));
    before = scrape(*server);
    if (control) {
      try {
        swap_loop(*control, registry, prog_a, prog_b, clock.end_ns, swaps,
                  sample_gauges);
      } catch (const WireViolation& e) {
        violations.push_back(e.what());
      } catch (const std::exception& e) {
        control_error = e.what();
      }
    } else {
      while (spans::now_ns() + seconds_ns(kGaugePeriodS) < clock.end_ns) {
        sleep_until(spans::now_ns() + seconds_ns(kGaugePeriodS));
        sample_gauges();
      }
      sleep_until(clock.end_ns);
    }
    after = scrape(*server);
    vm_hwm_kb = read_status_kb(server->pid(), "VmHWM");
    if (args.trace) slots_json = http_get(server->admin_port(), "/slots");
  });
  if (!control_error.empty()) throw std::runtime_error(control_error);
  collect_violations(receivers, violations);
  if (control && !control->violation.empty())
    violations.push_back(control->violation);
  const std::int64_t epoch = epoch_estimate(receivers, slot_ns);
  const RequestSummary requests = summarize(receivers, slot_ns, epoch);
  w.key("lateness_us").value(lateness_us(receivers, slot_ns, epoch));
  w.key("early_closes").value(std::uint64_t{closed_sessions(receivers)});
  w.key("sessions").value(std::uint64_t{
      receivers.size() + (control ? 1u : 0u) + setup_s.size()});
  control.reset();
  receivers.clear();
  stop_server(server);
  w.key("requests").begin_object();
  write_requests(w, requests);
  w.end_object();
  w.key("server_vm_hwm_kb").value(vm_hwm_kb);
  write_scrape(w, "before", before);
  write_scrape(w, "after", after);
  w.key("gauge_samples").begin_array();
  for (const std::string& g : gauge_samples) w.raw(g);
  w.end_array();
  w.key("slots");
  if (slots_json.empty())
    w.raw("null");
  else
    w.raw(slots_json);
  write_phase_stats(w, stats);
  w.key("swaps").begin_object();
  w.key("reply_ms").value(swaps.reply_ms);
  w.key("seam_plan_ms").value(swaps.seam_plan_ms);
  w.end_object();

  // --- pull-off check run: the wire's overdue delay against the model's.
  double predicted_overdue = 0.0;
  if (cfg.check_rate_per_session > 0.0) {
    spans::Span span("check.pull_off");
    server = launcher.launch(cfg.slot_us, 0);
    auto checkers = connect_receivers(*server, registry, cfg.slot_us, false,
                                      &in.check_arrivals, cfg.receivers,
                                      cfg.loops);
    PhaseClock c;
    c.start_ns = spans::now_ns() + seconds_ns(kWarmupS);
    c.end_ns = c.start_ns + seconds_ns(cfg.check_seconds);
    c.drain_ns = c.end_ns + seconds_ns(max_wait_s + 1.0);
    run_phase(raw(checkers), c, [] {});
    collect_violations(checkers, violations);
    const RequestSummary check = summarize(
        checkers, slot_ns, epoch_estimate(checkers, slot_ns));
    checkers.clear();
    stop_server(server);
    predicted_overdue = predicted_overdue_slots(*prog_a, check.sim);
    const double wire =
        check.attempted ? check.overdue_sum_slots /
                              static_cast<double>(check.attempted)
                        : 0.0;
    if (check.failed > 0 ||
        std::abs(wire - predicted_overdue) >
            kOverdueRelTol * predicted_overdue + kOverdueAbsTol)
      violations.push_back(
          "pull-off check: wire overdue " + std::to_string(wire) +
          " slots vs model " + std::to_string(predicted_overdue) + " (" +
          std::to_string(check.failed) + " of " +
          std::to_string(check.attempted) + " requests failed)");
    w.key("check").begin_object();
    w.key("attempted").value(check.attempted);
    w.key("failed").value(check.failed);
    w.key("overdue_wire_slots").value(wire);
    w.key("overdue_model_slots").value(predicted_overdue);
    w.end_object();
  } else if (args.trace) {
    predicted_overdue = predicted_overdue_slots(*prog_a, requests.sim);
  }

  // --- slot-rate ladder: pure push at each rung, no requests.
  w.key("ladder").begin_array();
  for (const std::uint32_t us : cfg.ladder_us) {
    spans::Span span("ladder.rung");
    server = launcher.launch(us, cfg.pull_channels);
    auto rungs = connect_receivers(*server, registry, us, sufficient, nullptr,
                                   cfg.receivers, 1);
    PhaseClock c;
    c.start_ns = spans::now_ns() + seconds_ns(0.15);
    c.end_ns = c.start_ns + seconds_ns(kRungSeconds);
    c.drain_ns = c.end_ns;
    Scrape b, a;
    run_phase(raw(rungs), c, [&] {
      sleep_until(c.start_ns - seconds_ns(kScrapeLeadS));
      b = scrape(*server);
      sleep_until(c.end_ns);
      a = scrape(*server);
    });
    collect_violations(rungs, violations);
    const std::int64_t rung_ns = std::int64_t{us} * 1000;
    w.begin_object();
    w.key("slot_us").value(std::uint64_t{us});
    w.key("lateness_us")
        .value(lateness_us(rungs, rung_ns, epoch_estimate(rungs, rung_ns)));
    w.key("early_closes").value(std::uint64_t{closed_sessions(rungs)});
    write_scrape(w, "before", b);
    write_scrape(w, "after", a);
    w.end_object();
    rungs.clear();
    stop_server(server);
  }
  w.end_array();

  // --- layer probes.
  w.key("probes").begin_object();
  w.key("schedule_ms").value(schedule_ms);
  w.key("partner_schedule_ms").value(partner_schedule_ms);
  w.key("predicted_overdue_slots").value(predicted_overdue);
  if (args.trace) {
    w.key("validate_ms").value(validate_ms(*prog_a, sufficient));
    w.key("workload_codec_us").value(workload_codec_us(in.catalog));
    double seam_ms = 0.0;
    if (swaps.seam_plan_ms.empty()) plan_seam(*prog_a, 0, *prog_b, &seam_ms);
    w.key("seam_plan_ms").value(seam_ms);
    w.key("pull_pick_us").value(pull_pick_us(requests.demands, 2));
  }
  w.end_object();

  w.key("spans").begin_object();
  for (const auto& [name, t] : spans::totals()) {
    w.key(name).begin_object();
    w.key("count").value(t.count);
    w.key("total_ms").value(static_cast<double>(t.total_ns) / 1e6);
    w.key("self_ms").value(static_cast<double>(t.self_ns) / 1e6);
    w.end_object();
  }
  w.end_object();
  if (args.trace) spans::write_chrome_trace(args.dir + "/trace.json");
  w.key("violations").begin_array();
  for (const std::string& v : violations) w.value(v);
  w.end_array();
  w.end_object();
  std::ofstream out(args.dir + "/record.json");
  out << w.text() << '\n';
  if (!out) throw std::runtime_error("cannot write the record");
  return violations.empty() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.command == "gen") {
      perfbench::write_inputs(
          perfbench::make_inputs(args.workload, args.seed, args.seconds),
          args.dir);
      return 0;
    }
    if (args.command == "run") return perfbench::run(args);
    throw std::invalid_argument("unknown command " + args.command);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_client: " << e.what() << '\n';
    return 2;
  }
}
