// tcsactl — command-line front end over the whole library.
//
// The operational tool an open-source release ships: plan capacity, build
// schedules, validate and simulate them, all over the tcsa v1 text formats
// on stdin/stdout so it pipelines:
//
//   tcsactl --cmd bound    < workload.tcsa
//   tcsactl --cmd schedule --method pamad --channels 3 < workload.tcsa > prog.tcsa
//   tcsactl --cmd validate --workload workload.tcsa < prog.tcsa
//   tcsactl --cmd simulate --workload workload.tcsa --requests 3000 < prog.tcsa
//   tcsactl --cmd demo     (prints a sample workload document)
//
// Run artifacts (DESIGN.md §6): commands export a metrics snapshot
// (--metrics-out; loadgen's --json-out) and a Chrome trace (--trace-out on
// the --cmd commands, serve and tune) that describes itself — command,
// host, pid, the wall clock of its trace epoch, and for `tune` the measured
// clock offset to the server — so the `obs` and `trace` subcommands need
// nothing else to post-process them:
//
//   tcsactl --cmd sweep --workload w.tcsa --metrics-out m.json
//           --trace-out t.json
//   tcsactl obs diff    --base a.json --current b.json --rel-tol 0.05
//   tcsactl obs report  --metrics m.json            (markdown summary)
//   tcsactl trace merge serve.trace.json tune.trace.json --out journey.json
//
// And the live side (DESIGN.md §7) — put a program on air, listen to it,
// swap it without taking it off air:
//
//   tcsactl serve --workload w.tcsa --slot-us 2000 --port-file port.txt
//                 --admin-port 0 --admin-port-file admin.txt
//   tcsactl tune  --port $(cat port.txt) --slots 200 --json
//   tcsactl swap  --port $(cat port.txt) --workload w2.tcsa
//   tcsactl stat  127.0.0.1:$(cat admin.txt) --watch 2
//   tcsactl stat  127.0.0.1:$(cat admin.txt) --json > live.json
//
// Exit codes: 0 success, 1 operational failure (connection refused, invalid
// program, metric drift), 2 usage error (unknown subcommand/flag, missing
// required flag) with a usage hint on stderr.
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/api.hpp"
#include "core/channel_bound.hpp"
#include "core/theory.hpp"
#include "model/inspect.hpp"
#include "model/serialize.hpp"
#include "model/validate.hpp"
#include "net/framing.hpp"
#include "net/http_admin.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "obs/trace.hpp"
#include "server/air_server.hpp"
#include "server/loadgen.hpp"
#include "server/tune_client.hpp"
#include "sim/broadcast_sim.hpp"
#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/text.hpp"
#include "workload/trace.hpp"

using namespace tcsa;

namespace {

/// Everything left in `file`, read to its end. A read error (a directory,
/// a failing disk) is an operational failure naming `source`, not an early
/// end of input.
std::string read_all(std::FILE* file,
                     const std::string& source = "standard input") {
  std::string text;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, file)) > 0;)
    text.append(buf, n);
  if (std::ferror(file)) throw std::runtime_error("failed reading " + source);
  return text;
}

/// The whole of `path`; one that cannot be opened is a usage error.
std::string slurp_file(const std::string& path,
                       const std::string& what = "file") {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "r"), &std::fclose);
  if (!file) throw std::invalid_argument("cannot open " + what + ": " + path);
  return read_all(file.get(), what + ": " + path);
}

Workload workload_from(const std::string& path) {
  return workload_from_string(path.empty() ? read_all(stdin)
                                           : slurp_file(path, "workload file"));
}

/// Writes `text` to `path`. A path that cannot be opened is a usage error;
/// bytes that do not all land (a full disk, /dev/full) are an operational
/// one, so a script waiting on the file sees the command fail instead of an
/// empty or truncated file.
void write_file(const std::string& path, const std::string& what,
                std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) throw std::invalid_argument("cannot write " + what + ": " + path);
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  // fclose flushes what is still buffered: only its result says it landed.
  if (std::fclose(file) != 0 || !written)
    throw std::runtime_error("failed writing " + what + ": " + path);
}

/// Writes the scraped registry to `path`: Prometheus text exposition when
/// the filename ends in .prom, JSON otherwise.
void write_metrics_file(const std::string& path) {
  const obs::MetricsSnapshot snap = obs::snapshot();
  const bool prometheus =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  write_file(path, "metrics file",
             prometheus ? snap.to_prometheus() : snap.to_json());
}

/// Stops tracing and writes this process's Chrome trace, describing itself
/// as `origin`, to `path`. Spans lost to ring overflow make the file
/// incomplete, which is worth a warning wherever a trace is written.
void write_trace_file(const std::string& path, const obs::TraceOrigin& origin) {
  obs::set_tracing_enabled(false);
  std::string trace;
  obs::write_chrome_trace(trace, origin);
  write_file(path, "trace file", trace);
  if (const std::uint64_t dropped = obs::trace_spans_dropped(); dropped > 0)
    print(stderr, "warning: ", dropped,
          " spans were dropped by ring overflow; ", path, " is incomplete\n");
}

void write_text_file(const std::string& path, const std::string& text) {
  write_file(path, "file", text);
}

// ------------------------------------------------------ the sweep command

/// Measures the sweep grid on the in-process worker pool (one thread per
/// hardware thread).
int run_sweep_command(const Cli& cli) {
  const Workload w = workload_from(cli.get_string("workload"));
  SweepConfig config;
  config.sim.requests.count = cli.get_int("requests");
  config.sim.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (const SlotCount channels = cli.get_int("channels"); channels > 0)
    config.max_channels = channels;

  const SweepReport report = run_sweep_with_metrics(w, config, 0);

  std::string table = "channels method    AvgD      predicted  miss%     p95\n";
  for (const SweepPoint& p : report.points) {
    str_append(table, p.channels, '\t', method_name(p.method), '\t',
               p.avg_delay, '\t', p.predicted_delay, '\t',
               100.0 * p.miss_rate, '\t', p.p95_delay, '\n');
  }
  print(stdout, table);
  print(stderr, "sweep observed ",
        report.metrics.counter_value("tcsa_sweep_points_total"), " points, ",
        report.metrics.counter_value("tcsa_opt_nodes_total"),
        " OPT search nodes, ",
        report.metrics.counter_value("tcsa_sim_requests_total"),
        " simulated requests\n");

  return 0;
}

// ------------------------------------------- serve / tune / swap commands

/// `tcsactl serve` — put a scheduled program on air over TCP.
int serve_main(int argc, const char* const* argv) {
  Cli cli("tcsactl serve",
          "schedule a workload and broadcast the program over TCP");
  cli.add_string("workload", "", "workload file (default: stdin)");
  cli.add_int("channels", 0, "channel count (0 = Theorem 3.1 minimum)");
  cli.add_string("method", "auto",
                 "scheduler: auto (SUSC when the bound allows, else PAMAD) "
                 "or susc|pamad|mpb|opt|rr");
  cli.add_string("bind", "127.0.0.1", "listen address");
  cli.add_int("port", 0, "listen port (0 = kernel-assigned ephemeral)");
  cli.add_string("port-file", "",
                 "write the bound port here once listening (lets scripts "
                 "use --port 0)");
  cli.add_int("slot-us", 1000, "real-time length of one slot, microseconds");
  cli.add_int("slots", 0, "go off air after N slots (0 = until killed)");
  cli.add_int("loops", 1,
              "I/O event loops; > 1 shards sessions across per-core epoll "
              "loops behind one SO_REUSEPORT listen group");
  cli.add_int("pull-channels", 0,
              "on-demand pull airings per slot on top of the broadcast "
              "schedule: kReq demands enter a pending table and the pull "
              "scheduler airs the winning pages (0 = push-only)");
  cli.add_string("pull-policy", "lwf",
                 "pull scheduler: lwf (longest total wait first) or maxrt "
                 "(oldest outstanding request first)");
  cli.add_int("max-buffer-kb", 256,
              "evict a session whose write buffer exceeds this");
  cli.add_string("metrics-out", "",
                 "write a metrics snapshot to FILE when going off air "
                 "(JSON; Prometheus text if FILE ends in .prom)");
  cli.add_string("trace-out", "",
                 "write a Chrome trace to FILE when going off air (the "
                 "reference timeline of 'tcsactl trace merge')");
  cli.add_int("admin-port", -1,
              "serve /metrics, /metrics.json, /healthz and /slots over HTTP "
              "on this port (0 = ephemeral, -1 = no admin endpoint)");
  cli.add_string("admin-port-file", "",
                 "write the bound admin port here once listening");
  cli.add_int("slo-us", 0,
              "slot-lag SLO in microseconds: a slot airing later than this "
              "counts as a breach (tcsa_slo_breach_total) and warns; 0 = "
              "track percentiles only");
  cli.add_string("flight-out", "",
                 "crash-safe flight recorder: mmap a ring of the most "
                 "recent request-trace events into FILE (replay with "
                 "'tcsactl trace flight'; survives SIGKILL)");
  if (!cli.parse(argc, argv)) return 0;

  AirServerConfig config;
  config.bind_address = cli.get_string("bind");
  const long long port = cli.get_int("port");
  if (port < 0 || port > 65535)
    throw std::invalid_argument("serve: --port must be in [0, 65535]");
  config.port = static_cast<std::uint16_t>(port);
  config.channels = cli.get_int("channels");
  if (const std::string method = cli.get_string("method"); method != "auto")
    config.method = parse_method(method);
  if (cli.get_int("slot-us") < 1)
    throw std::invalid_argument("serve: --slot-us must be >= 1");
  config.slot_us = static_cast<std::uint32_t>(cli.get_int("slot-us"));
  config.max_slots = static_cast<std::uint64_t>(cli.get_int("slots"));
  const long long loops = cli.get_int("loops");
  if (loops < 1 || loops > 64)
    throw std::invalid_argument("serve: --loops must be in [1, 64]");
  config.loops = static_cast<std::size_t>(loops);
  const long long pull_channels = cli.get_int("pull-channels");
  if (pull_channels < 0 || pull_channels > 16)
    throw std::invalid_argument("serve: --pull-channels must be in [0, 16]");
  config.pull_channels = static_cast<std::size_t>(pull_channels);
  if (!parse_pull_policy(cli.get_string("pull-policy"), &config.pull_policy))
    throw std::invalid_argument(
        "serve: --pull-policy must be 'lwf' or 'maxrt'");
  if (cli.get_int("max-buffer-kb") < 1)
    throw std::invalid_argument("serve: --max-buffer-kb must be >= 1");
  config.max_session_buffer =
      static_cast<std::size_t>(cli.get_int("max-buffer-kb")) * 1024;
  const long long admin_port = cli.get_int("admin-port");
  if (admin_port < -1 || admin_port > 65535)
    throw std::invalid_argument("serve: --admin-port must be in [-1, 65535]");
  config.admin_port = static_cast<int>(admin_port);
  config.slo_breach_us = static_cast<double>(cli.get_int("slo-us"));
  config.flight_out = cli.get_string("flight-out");
  // An interrupted broadcast should still go off air cleanly (drain, close,
  // write the export files below) instead of losing its telemetry.
  config.install_signal_handlers = true;

  // Read the workload only once every flag checked out: a bad flag must
  // not wait on stdin.
  Workload workload = workload_from(cli.get_string("workload"));
  const std::string metrics_out = cli.get_string("metrics-out");
  const std::string trace_out = cli.get_string("trace-out");
  // A live admin endpoint is a standing request for metrics: scrapes of a
  // server that never wrote an export file must still see real counters.
  if (!metrics_out.empty() || config.admin_port >= 0) obs::set_enabled(true);
  if (!trace_out.empty()) obs::set_tracing_enabled(true);

  AirServer server(std::move(workload), config);
  if (const std::string port_file = cli.get_string("port-file");
      !port_file.empty())
    write_text_file(port_file, std::to_string(server.port()) + "\n");
  if (const std::string admin_file = cli.get_string("admin-port-file");
      !admin_file.empty() && server.admin_port() != 0)
    write_text_file(admin_file, std::to_string(server.admin_port()) + "\n");
  std::string on_air = str_cat(
      "tcsactl serve: on air at ", config.bind_address, ':', server.port(),
      " (", server.channels(), " channels, slot ", config.slot_us, "us, ",
      server.loops(), " loop", server.loops() == 1 ? "" : "s");
  if (config.pull_channels > 0)
    str_append(on_air, ", ", config.pull_channels, " pull channel",
               config.pull_channels == 1 ? "" : "s", " [",
               pull_policy_name(config.pull_policy), "]");
  if (server.admin_port() != 0)
    str_append(on_air, ", admin http://", config.bind_address, ':',
               server.admin_port());
  if (config.max_slots)
    str_append(on_air, ", stopping after ", config.max_slots, " slots");
  on_air += ")\n";
  print(stderr, on_air);
  server.run();
  print(stderr, "tcsactl serve: off air after ", server.slots_aired(),
        " slots (generation ", server.generation(), ", ",
        server.sessions_evicted(), " evictions)\n");

  if (!metrics_out.empty()) write_metrics_file(metrics_out);
  if (!trace_out.empty())
    write_trace_file(trace_out, obs::this_process("serve"));
  return 0;
}

/// Shared by tune/swap: --port is the one flag with no usable default.
std::uint16_t required_port(const Cli& cli, const char* who) {
  const long long port = cli.get_int("port");
  if (port < 1 || port > 65535)
    throw std::invalid_argument(
        std::string(who) +
        ": --port PORT is required (the server prints it, or use its "
        "--port-file)");
  return static_cast<std::uint16_t>(port);
}

/// A duration flag in milliseconds, which must be >= 1: zero or a negative
/// value would wrap the deadline it sets, or make poll() wait forever.
/// Clamped to INT_MAX (24 days), the most poll() takes.
int positive_ms(const Cli& cli, const char* who, const char* flag) {
  const long long ms = cli.get_int(flag);
  if (ms < 1)
    throw std::invalid_argument(std::string(who) + ": --" + flag +
                                " must be >= 1");
  return static_cast<int>(std::min<long long>(ms, INT_MAX));
}

/// `tcsactl tune` — listen to a broadcast and measure observed access time
/// against each group's expected time t_i.
int tune_main(int argc, const char* const* argv) {
  Cli cli("tcsactl tune",
          "tune into a broadcast server and measure what it delivers");
  cli.add_string("host", "127.0.0.1", "server address");
  cli.add_int("port", 0, "server port (required)");
  cli.add_int("channel", -1, "subscribe one channel (-1 = all channels; "
                             "deadline guarantees need all)");
  cli.add_int("slots", 0,
              "stop after observing N slots (0 = until the server closes)");
  cli.add_int("timeout-ms", 10000, "per-read timeout");
  cli.add_int("requests", 0,
              "issue N traced page requests spread across the observed span "
              "and measure each journey against its promised deadline "
              "(needs --slots)");
  cli.add_int("patience-slots", -1,
              "impatient-client mode: the --requests become wants that "
              "watch the broadcast for this many slots before falling back "
              "to a pull request (0 = each page's own promised wait t_p; "
              "-1 = classic immediate requests)");
  cli.add_flag("json", "print the summary as one JSON object on stdout");
  cli.add_string("trace-out", "",
                 "write a Chrome trace of the request journeys, with the "
                 "measured clock offset to the server, to FILE (fuse with "
                 "the server's via 'tcsactl trace merge')");
  if (!cli.parse(argc, argv)) return 0;

  TuneClient::Options options;
  options.host = cli.get_string("host");
  options.port = required_port(cli, "tune");
  const long long channel = cli.get_int("channel");
  if (channel >= 64)
    throw std::invalid_argument("tune: --channel must be < 64");
  options.channel_mask =
      channel < 0 ? net::kAllChannels : (1ull << channel);
  options.io_timeout_ms = positive_ms(cli, "tune", "timeout-ms");
  const auto requests = static_cast<std::uint64_t>(cli.get_int("requests"));
  const auto slots = static_cast<std::uint64_t>(cli.get_int("slots"));
  if (requests > 0 && slots == 0)
    throw std::invalid_argument("tune: --requests needs --slots N");
  const long long patience = cli.get_int("patience-slots");
  if (patience < -1)
    throw std::invalid_argument("tune: --patience-slots must be >= -1");
  const std::string trace_out = cli.get_string("trace-out");
  if (!trace_out.empty()) obs::set_tracing_enabled(true);

  TuneClient client(options);
  print(stderr, "tcsactl tune: generation ", client.generation(), ", ",
        client.channels(), " channels, cycle ", client.cycle_length(),
        ", slot ", client.slot_us(), "us, tuned in at slot ",
        client.tune_in_slot(), '\n');
  client.run(slots, requests, patience);
  const TuneSummary summary = client.summary();
  if (!trace_out.empty()) {
    obs::TraceOrigin origin = obs::this_process("tune");
    origin.clock_offset_us = summary.requests.clock_offset_us;
    origin.clock_samples = summary.requests.clock_samples;
    write_trace_file(trace_out, origin);
  }
  if (cli.get_flag("json")) {
    print(stdout, summary.to_json(), '\n');
  } else {
    std::string text = str_cat(
        "slots observed: ", summary.slots_seen, "\nframes: ", summary.frames,
        " (", summary.bytes, " bytes)\ngeneration: ", summary.generation,
        "\nswaps observed: ", summary.swaps_observed,
        "\ndeadline misses: ", summary.deadline_misses,
        "\nmean access time: ", summary.mean_access_time, " slots\n");
    if (summary.requests.sent > 0) {
      const TuneRequestStats& r = summary.requests;
      str_append(text, "requests: ", r.sent, " sent, ", r.completed,
                 " completed, ", r.misses, " missed deadline\n",
                 "request delay p50/p99/max: ", r.delay_p50_us, '/',
                 r.delay_p99_us, '/', r.delay_max_us, " us; slack p50/min: ",
                 r.slack_p50_us, '/', r.slack_min_us, " us\n",
                 "clock offset: ", r.clock_offset_us, " us (rtt ",
                 r.clock_rtt_us, " us over ", r.clock_samples, " samples)\n");
    }
    if (summary.wants.issued > 0) {
      const TuneWantStats& w = summary.wants;
      str_append(text, "wants: ", w.issued, " issued, ", w.broadcast_served,
                 " broadcast-served, ", w.pulled, " pulled (fraction ",
                 w.pull_fraction, "), ", w.pull_completed,
                 " pull-completed\n", "want waits (slots): broadcast mean ",
                 w.mean_broadcast_wait_slots, ", pull mean ",
                 w.mean_pull_wait_slots, "; coalescing mean ",
                 w.mean_coalesced_waiters, " over ", w.pull_frames,
                 " kPull frames\n");
    }
    for (std::size_t g = 0; g < summary.groups.size(); ++g) {
      const TuneGroupStats& s = summary.groups[g];
      str_append(text, "group ", g + 1, ": t=", s.expected_time,
                 " receptions=", s.receptions, " max_gap=", s.max_gap,
                 " mean_gap=", s.mean_gap, " access_time=", s.access_time,
                 " misses=", s.misses, '\n');
    }
    print(stdout, text);
  }
  return 0;
}

/// `tcsactl swap` — hot-swap the program on a running server.
int swap_main(int argc, const char* const* argv) {
  Cli cli("tcsactl swap",
          "reschedule a running server onto a new workload without taking "
          "it off air");
  cli.add_string("host", "127.0.0.1", "server address");
  cli.add_int("port", 0, "server port (required)");
  cli.add_string("workload", "", "new workload file (default: stdin)");
  cli.add_int("channels", 0, "channel count for the new program (0 = keep "
                             "the server's)");
  cli.add_string("method", "auto", "scheduler for the new program");
  cli.add_int("timeout-ms", 10000, "per-read timeout");
  if (!cli.parse(argc, argv)) return 0;

  // Flag problems must surface before the workload read touches stdin.
  const std::uint16_t port = required_port(cli, "swap");
  const int timeout_ms = positive_ms(cli, "swap", "timeout-ms");
  int method = -1;
  if (const std::string name = cli.get_string("method"); name != "auto")
    method = static_cast<int>(parse_method(name));
  const Workload next = workload_from(cli.get_string("workload"));

  TuneClient::Options options;
  options.host = cli.get_string("host");
  options.port = port;
  options.channel_mask = 0;  // control session: no page traffic
  options.io_timeout_ms = timeout_ms;
  TuneClient client(options);
  const SwapReply reply =
      client.request_swap(next, cli.get_int("channels"), method);
  if (!reply.accepted) {
    print(stderr, "tcsactl swap: rejected: ", reply.error, '\n');
    return 1;
  }
  print(stdout, "swap accepted: generation ", reply.generation,
        " activates at slot ", reply.activation_slot, " (seam lateness ",
        reply.seam_lateness, " slots",
        reply.seam_lateness <= 0
            ? "; all outstanding deadline promises preserved"
            : "",
        ")\n");
  return 0;
}

/// `tcsactl loadgen` — open thousands of sessions against a running server
/// and report what the audience experienced (slot-airing jitter, evictions).
int loadgen_main(int argc, const char* const* argv) {
  Cli cli("tcsactl loadgen",
          "load a broadcast server with many sessions and measure "
          "slot-airing jitter percentiles");
  cli.add_string("host", "127.0.0.1", "server address");
  cli.add_int("port", 0, "server port (required)");
  cli.add_int("sessions", 1000, "total sessions to open");
  cli.add_int("threads", 2, "client I/O threads (sessions are split evenly)");
  cli.add_int("duration-ms", 2000, "measurement window after the ramp");
  cli.add_int("ramp-timeout-ms", 15000, "give up ramping after this");
  cli.add_int("connect-batch", 64, "dials in flight per thread");
  cli.add_double("slo-p99-us", 0.0,
                 "exit 1 when p99 jitter exceeds this many microseconds "
                 "(0 = report only)");
  cli.add_int("request-every", 64,
              "each session issues a traced page request every N pages "
              "during the window; the report gains per-request deadline "
              "miss rate and delay/slack percentiles (0 = no requests)");
  cli.add_int("patience-slots", -1,
              "impatient-client mode: requests become wants that watch the "
              "broadcast for this many slots before falling back to a pull "
              "request; the report splits broadcast-served vs pull-served "
              "populations (0 = pull at the next slot, unlike tune's "
              "per-page t_p; -1 = classic immediate requests)");
  cli.add_double("pull-slo-p99-us", 0.0,
                 "exit 1 when p99 pull-served delay exceeds this many "
                 "microseconds (0 = report only)");
  cli.add_string("json-out", "",
                 "write the report to FILE as a metrics-snapshot JSON "
                 "document (diffable with 'tcsactl obs diff')");
  if (!cli.parse(argc, argv)) return 0;

  LoadGenConfig config;
  config.host = cli.get_string("host");
  config.port = required_port(cli, "loadgen");
  if (cli.get_int("sessions") < 1)
    throw std::invalid_argument("loadgen: --sessions must be >= 1");
  config.sessions = static_cast<std::size_t>(cli.get_int("sessions"));
  if (cli.get_int("threads") < 1)
    throw std::invalid_argument("loadgen: --threads must be >= 1");
  config.threads = static_cast<std::size_t>(cli.get_int("threads"));
  config.duration_ms = positive_ms(cli, "loadgen", "duration-ms");
  config.ramp_timeout_ms = positive_ms(cli, "loadgen", "ramp-timeout-ms");
  if (cli.get_int("connect-batch") < 1)
    throw std::invalid_argument("loadgen: --connect-batch must be >= 1");
  config.connect_batch = static_cast<std::size_t>(cli.get_int("connect-batch"));
  config.slo_p99_us = cli.get_double("slo-p99-us");
  if (cli.get_int("request-every") < 0)
    throw std::invalid_argument("loadgen: --request-every must be >= 0");
  config.request_every =
      static_cast<std::uint64_t>(cli.get_int("request-every"));
  if (cli.get_int("patience-slots") < -1)
    throw std::invalid_argument("loadgen: --patience-slots must be >= -1");
  config.patience_slots =
      static_cast<std::int64_t>(cli.get_int("patience-slots"));
  config.pull_slo_p99_us = cli.get_double("pull-slo-p99-us");

  const LoadGenReport report = run_loadgen(config);
  print(stderr, "tcsactl loadgen: ", report.sessions_connected, '/',
        report.sessions_requested, " sessions, ", report.pages,
        " pages in the window, jitter p50/p99/p999/max ",
        report.jitter_p50_us, '/', report.jitter_p99_us, '/',
        report.jitter_p999_us, '/', report.jitter_max_us, " us, ",
        report.early_closes, " early closes, ~",
        static_cast<std::uint64_t>(report.rss_per_session_bytes),
        " RSS bytes/session\n");
  if (report.requests_sent > 0)
    print(stderr, "tcsactl loadgen: ", report.requests_sent,
          " traced requests, ", report.request_completions,
          " completed, miss rate ", report.request_miss_rate,
          ", delay p50/p99 ", report.request_delay_p50_us, '/',
          report.request_delay_p99_us, " us, slack p50/min ",
          report.request_slack_p50_us, '/', report.request_slack_min_us,
          " us\n");
  if (report.wants_issued > 0)
    print(stderr, "tcsactl loadgen: ", report.wants_issued, " wants, ",
          report.wants_broadcast, " broadcast-served, ", report.wants_pulled,
          " pulled; ", report.pull_frames, " kPull frames (coalescing mean ",
          report.mean_coalesced_waiters, "), ", report.pull_completions,
          " pull completions, pull miss rate ", report.pull_miss_rate,
          ", pull delay p50/p99 ", report.pull_delay_p50_us, '/',
          report.pull_delay_p99_us, " us\n");

  if (const std::string json_out = cli.get_string("json-out");
      !json_out.empty())
    write_text_file(json_out, report.to_json());

  if (report.sessions_connected == 0) {
    print(stderr, "tcsactl loadgen: no session ever connected\n");
    return 1;
  }
  if (report.slo_violations > 0) {
    print(stderr, "tcsactl loadgen: p99 jitter ", report.jitter_p99_us,
          " us exceeds the ", config.slo_p99_us, " us SLO\n");
    return 1;
  }
  if (report.pull_slo_violations > 0) {
    print(stderr, "tcsactl loadgen: p99 pull delay ",
          report.pull_delay_p99_us, " us exceeds the ",
          config.pull_slo_p99_us, " us SLO\n");
    return 1;
  }
  return 0;
}

int dispatch(const Cli& cli) {
  const std::string cmd = cli.get_string("cmd");

  if (cmd == "demo") {
    print(stdout, workload_to_string(make_workload({2, 4, 8}, {3, 5, 3})));
    return 0;
  }

  if (cmd == "bound") {
    const Workload w = workload_from(cli.get_string("workload"));
    const BandwidthDemand demand = bandwidth_demand(w);
    print(stdout, "workload: ", w.describe(), '\n', "bandwidth demand: ",
          demand.numerator, '/', demand.denominator, " = ",
          demand.as_double(), " channels\n",
          "minimum channels (Theorem 3.1): ", min_channels(w), '\n');
    if (const double budget = cli.get_double("budget"); budget > 0.0) {
      print(stdout, "channels for AvgD <= ", budget, " (continuous bound): ",
            channels_for_delay_budget(w, budget), '\n');
    }
    return 0;
  }

  if (cmd == "schedule") {
    const Workload w = workload_from(cli.get_string("workload"));
    SlotCount channels = cli.get_int("channels");
    if (channels == 0) channels = min_channels(w);
    const ScheduleOutcome outcome =
        make_schedule(parse_method(cli.get_string("method")), w, channels);
    print(stdout, program_to_string(outcome.program));
    std::string summary =
        str_cat("scheduled ", method_name(outcome.method), " on ", channels,
                " channels, cycle ", outcome.t_major, ", predicted AvgD ",
                outcome.predicted_delay);
    if (outcome.window_overflows > 0)
      str_append(summary, ", ", outcome.window_overflows,
                 " copies outside their even-spread window");
    print(stderr, summary, '\n');
    return 0;
  }

  if (cmd == "validate") {
    const Workload w = workload_from(cli.get_string("workload"));
    const BroadcastProgram program = program_from_string(read_all(stdin));
    const ValidityReport report = validate_program(program, w);
    std::string text =
        str_cat(report.valid ? "VALID" : "INVALID", "  worst wait: ",
                report.worst_wait, "  worst lateness: ", report.worst_lateness,
                '\n');
    for (const std::string& violation : report.violations)
      str_append(text, "violation: ", violation, '\n');
    for (const std::string& warning : report.warnings)
      str_append(text, "warning: ", warning, '\n');
    print(stdout, text);
    return report.valid ? 0 : 1;
  }

  if (cmd == "inspect") {
    const Workload w = workload_from(cli.get_string("workload"));
    const BroadcastProgram program = program_from_string(read_all(stdin));
    print(stdout, report_to_string(inspect_program(program, w)),
          "occupancy: ", occupancy_strip(program), '\n');
    return 0;
  }

  if (cmd == "plan") {
    // stdin: raw trace lines "<name> <expected-time>"; stdout: the ladder
    // workload ready for --cmd schedule.
    const std::vector<TraceEntry> entries = parse_trace(read_all(stdin));
    const TracePlan plan = plan_from_trace(entries);
    print(stdout, workload_to_string(plan.rearranged.workload));
    print(stderr, "planned ", entries.size(), " pages onto ladder c=",
          plan.ladder_ratio, " (", plan.rearranged.workload.describe(),
          "), mean tightening ",
          100.0 * (1.0 - plan.rearranged.mean_tightening_ratio),
          "%; minimum channels ", min_channels(plan.rearranged.workload),
          '\n');
    return 0;
  }

  if (cmd == "sweep") return run_sweep_command(cli);

  if (cmd == "simulate") {
    const Workload w = workload_from(cli.get_string("workload"));
    const BroadcastProgram program = program_from_string(read_all(stdin));
    SimConfig config;
    config.requests.count = cli.get_int("requests");
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const SimResult r = simulate_requests(program, w, config);
    print(stdout, "requests: ", r.requests, "\navg wait: ", r.avg_wait,
          "\nAvgD: ", r.avg_delay, "\nmiss rate: ", r.miss_rate,
          "\np95 delay: ", r.p95_delay, "\nmax delay: ", r.max_delay, '\n');
    return 0;
  }

  throw std::invalid_argument("unknown --cmd: " + cmd);
}

// --------------------------------------------------- obs subcommand family

/// `tcsactl obs diff --base A --current B` → nonzero exit on drift beyond
/// tolerance. Accepts snapshot exports and merged bench documents.
int obs_diff(int argc, const char* const* argv) {
  Cli cli("tcsactl obs diff",
          "compare two metrics documents; exit 1 on out-of-tolerance drift");
  cli.add_string("base", "", "baseline snapshot or bench JSON");
  cli.add_string("current", "", "candidate snapshot or bench JSON");
  cli.add_double("rel-tol", 0.0, "allowed relative drift per counter");
  cli.add_double("abs-tol", 0.0, "allowed absolute drift per counter");
  cli.add_flag("verbose", "print unchanged counters too");
  if (!cli.parse(argc, argv)) return 0;
  const std::string base = cli.get_string("base");
  const std::string current = cli.get_string("current");
  if (base.empty() || current.empty())
    throw std::invalid_argument("obs diff needs --base and --current");

  obs::DiffOptions options;
  options.rel_tol = cli.get_double("rel-tol");
  options.abs_tol = cli.get_double("abs-tol");
  const obs::DiffResult result =
      obs::diff_snapshots(obs::counters_from_json_document(slurp_file(base)),
                          obs::counters_from_json_document(slurp_file(current)),
                          options);
  print(stdout, result.to_markdown(cli.get_flag("verbose")));
  if (!result.clean()) {
    print(stderr, "obs diff: ", result.regressions,
          " metric(s) regressed beyond tolerance\n");
    return 1;
  }
  print(stderr, "obs diff: clean (", result.entries.size(),
        " metrics compared)\n");
  return 0;
}

/// `tcsactl obs report --metrics FILE` → markdown summary on stdout.
int obs_report(int argc, const char* const* argv) {
  Cli cli("tcsactl obs report", "render a markdown run summary");
  cli.add_string("metrics", "", "metrics snapshot JSON (--metrics-out)");
  if (!cli.parse(argc, argv)) return 0;
  const std::string metrics_path = cli.get_string("metrics");
  if (metrics_path.empty())
    throw std::invalid_argument("obs report needs --metrics FILE");
  print(stdout, obs::report_markdown(
                    obs::snapshot_from_json(slurp_file(metrics_path))));
  return 0;
}

int obs_main(int argc, const char* const* argv) {
  // argv[0] is the subcommand ("diff" | "report"); hand the rest to the
  // subcommand's own Cli (which skips its argv[0] like any main).
  if (argc < 1)
    throw std::invalid_argument("usage: tcsactl obs <diff|report> ...");
  const std::string sub = argv[0];
  if (sub == "diff") return obs_diff(argc, argv);
  if (sub == "report") return obs_report(argc, argv);
  throw std::invalid_argument("unknown obs subcommand: " + sub +
                              " (expected diff | report)");
}

// --------------------------------------------- trace subcommand family

/// `tcsactl trace merge TRACE... [--out FILE]` — fuse the server's and the
/// clients' traces onto one timeline. Each file describes itself, so the
/// server (the clock reference) is found by its command and each client is
/// corrected by the clock offset it measured.
int trace_merge(int argc, const char* const* argv) {
  // Trace files are positional; Cli takes the flags, of which only --out
  // has a value.
  std::vector<std::string> paths;
  std::vector<const char*> flags = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with('-')) {
      paths.emplace_back(arg);
      continue;
    }
    flags.push_back(argv[i]);
    if (arg == "--out" && i + 1 < argc) flags.push_back(argv[++i]);
  }
  Cli cli("tcsactl trace merge TRACE...",
          "fuse serve + tune --trace-out files into one Chrome trace with "
          "measured clock-offset alignment");
  cli.add_string("out", "", "output file (default: standard output)");
  if (!cli.parse(static_cast<int>(flags.size()), flags.data())) return 0;
  if (paths.empty())
    throw std::invalid_argument("trace merge needs one or more trace files");

  std::vector<obs::TraceFile> traces;
  for (const std::string& path : paths)
    traces.push_back({path, slurp_file(path, "trace file")});
  const obs::MergedTrace merged = obs::merge_chrome_traces(traces);
  const std::string out = cli.get_string("out");
  if (out.empty())
    print(stdout, merged.json);
  else
    write_text_file(out, merged.json);
  print(stderr, "trace merge: fused ", traces.size(), " timelines (",
        merged.clock_corrected, " clock-corrected) -> ",
        out.empty() ? "standard output" : out, '\n');
  return 0;
}

/// `tcsactl trace flight --in FILE` — replay a flight-recorder ring dumped
/// by a (possibly SIGKILL'd) server.
int trace_flight(int argc, const char* const* argv) {
  Cli cli("tcsactl trace flight",
          "replay a crash-safe flight-recorder dump (serve --flight-out)");
  cli.add_string("in", "", "flight-recorder file to replay");
  cli.add_flag("json", "print events as one JSON array on stdout");
  if (!cli.parse(argc, argv)) return 0;
  const std::string in = cli.get_string("in");
  if (in.empty()) throw std::invalid_argument("trace flight needs --in FILE");

  bool sealed = false;
  const std::vector<obs::FlightEvent> events = obs::flight_load(in, &sealed);
  if (cli.get_flag("json")) {
    std::string doc = "[";
    for (std::size_t i = 0; i < events.size(); ++i) {
      const obs::FlightEvent& e = events[i];
      if (i) doc += ",\n ";
      doc += "{\"ordinal\": " + std::to_string(e.ordinal) +
             ", \"trace_id\": " + std::to_string(e.trace_id) +
             ", \"stage\": \"" +
             obs::req_stage_name(static_cast<obs::ReqStage>(e.stage)) +
             "\", \"t_us\": " + std::to_string(e.t_us) +
             ", \"arg\": " + std::to_string(e.arg) + "}";
    }
    doc += "]\n";
    print(stdout, doc);
  } else {
    Table table({"ordinal", "stage", "trace id", "t (us)", "arg"});
    for (const obs::FlightEvent& e : events) {
      table.begin_row()
          .add(e.ordinal)
          .add(obs::req_stage_name(static_cast<obs::ReqStage>(e.stage)))
          .add(str_cat(hex(e.trace_id)))
          .add(e.t_us)
          .add(e.arg);
    }
    print(stdout, table.to_string(), events.size(), " events, ",
          sealed ? "sealed cleanly"
                 : "NOT sealed (hard kill or still running)",
          '\n');
  }
  return 0;
}

int trace_main(int argc, const char* const* argv) {
  if (argc < 1)
    throw std::invalid_argument("usage: tcsactl trace <merge|flight> ...");
  const std::string sub = argv[0];
  if (sub == "merge") return trace_merge(argc, argv);
  if (sub == "flight") return trace_flight(argc, argv);
  throw std::invalid_argument("unknown trace subcommand: " + sub +
                              " (expected merge | flight)");
}

// ------------------------------------------------------------ live stat

/// One fetch + render cycle of `tcsactl stat`. Throws on transport errors;
/// returns the exit code (1 when the server answers but is degraded).
int stat_once(const std::string& host, std::uint16_t port, bool as_json) {
  if (as_json) {
    // Raw /metrics.json passthrough: the body is exactly the artifact
    // pipeline's snapshot grammar, so `tcsactl obs diff --current -` style
    // gating works on a live scrape.
    const net::HttpResponse metrics = net::http_get(host, port, "/metrics.json");
    if (metrics.status != 200) {
      print(stderr, "tcsactl stat: /metrics.json answered ", metrics.status,
            ": ", metrics.body);
      return 1;
    }
    print(stdout, metrics.body);
    return 0;
  }

  const net::HttpResponse health = net::http_get(host, port, "/healthz");
  if (health.status != 200) {
    print(stderr, "tcsactl stat: /healthz answered ", health.status, ": ",
          health.body);
    return 1;
  }
  const obs::JsonValue h = obs::json_parse(health.body);
  const auto num = [&](const char* key) -> double {
    const obs::JsonValue* v = h.find(key);
    return v != nullptr ? v->expect_number(key) : 0.0;
  };
  const auto uint = [&](const char* key) -> std::uint64_t {
    const obs::JsonValue* v = h.find(key);
    return v != nullptr ? v->expect_uint(key) : 0;
  };

  print(stdout, "tcsactl stat ", host, ':', port, " — ",
        h.at("status").expect_string("status"), ", up ",
        static_cast<std::uint64_t>(num("uptime_seconds")), "s\n\n");
  Table table({"metric", "value"});
  table.begin_row().add("slots aired").add(uint("slots_aired"));
  table.begin_row().add("generation").add(uint("generation"));
  table.begin_row().add("sessions").add(uint("sessions"));
  table.begin_row().add("loops").add(uint("loops"));
  table.begin_row().add("evictions").add(uint("evictions"));
  table.begin_row().add("next slot lag (us)").add(uint("next_slot_lag_us"));
  table.begin_row().add("slot lag p50 (us)").add(num("slot_lag_p50_us"), 1);
  table.begin_row().add("slot lag p99 (us)").add(num("slot_lag_p99_us"), 1);
  table.begin_row().add("slot lag p999 (us)").add(num("slot_lag_p999_us"), 1);
  table.begin_row().add("SLO breaches").add(uint("slo_breaches"));
  if (uint("pull_channels") > 0) {
    // The hybrid pull plane is on: show the live demand-table shape.
    const obs::JsonValue* policy = h.find("pull_policy");
    table.begin_row().add("pull channels").add(uint("pull_channels"));
    table.begin_row()
        .add("pull policy")
        .add(policy != nullptr ? policy->expect_string("pull_policy")
                               : std::string("?"));
    table.begin_row().add("pull pending pages").add(uint("pull_pending_pages"));
    table.begin_row()
        .add("pull pending waiters")
        .add(uint("pull_pending_waiters"));
    table.begin_row()
        .add("pull oldest wait (slots)")
        .add(uint("pull_oldest_wait_slots"));
    table.begin_row().add("pull airings").add(uint("pull_airings"));
    const std::uint64_t airings = uint("pull_airings");
    const std::uint64_t served = uint("pull_waiters_served");
    table.begin_row().add("pull waiters served").add(served);
    table.begin_row()
        .add("pull coalescing factor")
        .add(airings > 0 ? static_cast<double>(served) /
                               static_cast<double>(airings)
                         : 0.0,
             2);
  }
  print(stdout, table.to_string());

  // The registry scrape is optional garnish: fold in the egress counters
  // when the scrape succeeds.
  const net::HttpResponse metrics = net::http_get(host, port, "/metrics.json");
  if (metrics.status == 200) {
    const obs::MetricsSnapshot snap = obs::snapshot_from_json(metrics.body);
    Table egress({"counter", "total"});
    for (const char* name :
         {"tcsa_server_frames_sent_total", "tcsa_server_bytes_queued_total",
          "tcsa_server_bytes_flushed_total", "tcsa_server_writev_calls_total",
          "tcsa_slo_breach_total", "tcsa_server_pull_reqs_total",
          "tcsa_server_pull_airings_total",
          "tcsa_server_pull_waiters_served_total",
          "tcsa_server_reqs_pull_served_total"})
      egress.begin_row().add(name).add(snap.counter_value(name));
    std::string text = str_cat('\n', egress.to_string(), "\nbuild: ",
                               snap.gauge_value("tcsa_uptime_seconds"),
                               "s uptime");
    if (const obs::GaugeSnapshot* info = snap.gauge("tcsa_build_info"))
      str_append(text, " (", info->labels, ")");
    text += '\n';
    print(stdout, text);
  } else {
    print(stdout, "\n(no registry metrics: ", metrics.status,
          " from /metrics.json)\n");
  }
  return 0;
}

/// `tcsactl stat <host:port>` — scrape a live server's admin endpoint.
int stat_main(int argc, const char* const* argv) {
  // The target is positional (stat's whole argument is "which server");
  // pull it out before Cli sees the argv, since Cli is flags-only.
  std::string target;
  std::vector<const char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (target.empty() && argv[i][0] != '-') {
      target = argv[i];
      continue;
    }
    rest.push_back(argv[i]);
  }
  Cli cli("tcsactl stat <host:port>",
          "scrape a live server's admin endpoint and render a status table");
  cli.add_flag("json", "print the raw /metrics.json body (obs diff-able) "
                       "instead of the table");
  cli.add_int("watch", 0, "refresh every N seconds until interrupted");
  if (!cli.parse(static_cast<int>(rest.size()), rest.data())) return 0;
  if (target.empty())
    throw std::invalid_argument(
        "stat: target required (tcsactl stat <host:port>)");
  std::string host = "127.0.0.1";
  std::string port_text = target;
  if (const std::size_t colon = target.rfind(':');
      colon != std::string::npos) {
    host = target.substr(0, colon);
    port_text = target.substr(colon + 1);
  }
  long long port = 0;
  const auto [end, error] = parse_int_prefix(port_text, port);
  if (error != std::errc() || end != port_text.data() + port_text.size() ||
      port < 1 || port > 65535)
    throw std::invalid_argument("stat: bad port in target '" + target + "'");

  const long long watch_s = cli.get_int("watch");
  const bool as_json = cli.get_flag("json");
  for (;;) {
    if (watch_s > 0 && !as_json)
      print(stdout, "\x1b[2J\x1b[H");  // clear + home, top-style refresh
    const int rc =
        stat_once(host, static_cast<std::uint16_t>(port), as_json);
    if (watch_s <= 0) return rc;
    std::fflush(stdout);
    ::sleep(static_cast<unsigned>(watch_s));
  }
}

int run(int argc, const char* const* argv) {
  // Word-style subcommands first; everything else falls through to the
  // legacy --cmd dispatcher. An unrecognized word is a usage error (exit 2),
  // never silently reinterpreted.
  if (argc >= 2 && argv[1][0] != '-') {
    const std::string sub = argv[1];
    if (sub == "obs") return obs_main(argc - 2, argv + 2);
    if (sub == "trace") return trace_main(argc - 2, argv + 2);
    if (sub == "serve") return serve_main(argc - 1, argv + 1);
    if (sub == "tune") return tune_main(argc - 1, argv + 1);
    if (sub == "swap") return swap_main(argc - 1, argv + 1);
    if (sub == "loadgen") return loadgen_main(argc - 1, argv + 1);
    if (sub == "stat") return stat_main(argc - 1, argv + 1);
    throw std::invalid_argument(
        "unknown subcommand: " + sub +
        " (expected serve | tune | swap | loadgen | stat | obs | trace, or "
        "--cmd ...)");
  }

  Cli cli("tcsactl", "plan, schedule, validate and simulate "
                     "time-constrained broadcast programs");
  cli.add_string("cmd", "bound",
                 "bound | schedule | validate | simulate | sweep | inspect | "
                 "plan | demo (live serving: tcsactl serve|tune|swap --help; "
                 "artifact tooling: tcsactl obs diff|report --help)");
  cli.add_string("method", "pamad", "scheduler for --cmd schedule "
                                    "(susc|pamad|mpb|opt|rr)");
  cli.add_int("channels", 0, "channel count (0 = Theorem 3.1 minimum)");
  cli.add_string("workload", "",
                 "workload file for validate/simulate/sweep (default: none; "
                 "bound/schedule read the workload from stdin)");
  cli.add_int("requests", 3000,
              "simulated requests for --cmd simulate (per point for --cmd "
              "sweep)");
  cli.add_int("seed", 42, "simulation seed");
  cli.add_double("budget", 0.0, "with --cmd bound: also report the channel "
                                "count for this AvgD budget");
  cli.add_string("metrics-out", "",
                 "write a metrics snapshot of this run to FILE after the "
                 "command (JSON; Prometheus text if FILE ends in .prom)");
  cli.add_string("trace-out", "",
                 "write a Chrome trace_event JSON timeline of this run to "
                 "FILE (load in chrome://tracing or Perfetto)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string metrics_out = cli.get_string("metrics-out");
  const std::string trace_out = cli.get_string("trace-out");
  if (!metrics_out.empty()) obs::set_enabled(true);
  if (!trace_out.empty()) obs::set_tracing_enabled(true);

  const int rc = dispatch(cli);
  if (!metrics_out.empty()) write_metrics_file(metrics_out);
  if (!trace_out.empty())
    write_trace_file(trace_out, obs::this_process(cli.get_string("cmd")));
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  int rc = 0;
  try {
    rc = run(argc, argv);
  } catch (const std::invalid_argument& e) {
    // Usage errors: the caller asked for something this tool does not
    // offer. Point at --help so the usage text is one step away.
    print(stderr, "tcsactl: ", e.what(), '\n',
          "usage: run 'tcsactl --help' or 'tcsactl <subcommand> --help'\n");
    rc = 2;
  } catch (const std::exception& e) {
    // Operational failures: the request was well-formed but the world did
    // not cooperate (connection refused, unreadable file, invalid program).
    print(stderr, "tcsactl: ", e.what(), '\n');
    rc = 1;
  }
  // Standard output is buffered: a full disk or a closed pipe surfaces only
  // here, and a workload lost on its way out is an operational failure.
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    print(stderr, "tcsactl: failed writing standard output\n");
    return 1;
  }
  return rc;
}
