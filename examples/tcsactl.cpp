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
// Cross-process observability (DESIGN.md §6): a sweep can shard across
// forked child processes, each writing a manifest + metrics + trace +
// points artifact set, and the `obs` subcommand family post-processes them:
//
//   tcsactl --cmd sweep --workload w.tcsa --shards 4 --jobs 4 --out-dir run/
//   tcsactl obs merge  --dir run/                  (one trace, one snapshot)
//   tcsactl obs diff   --base a.json --current b.json --rel-tol 0.05
//   tcsactl obs report --dir run/                  (markdown summary)
//
// And the live side (DESIGN.md §7) — put a program on air, listen to it,
// swap it without taking it off air:
//
//   tcsactl serve --workload w.tcsa --slot-us 2000 --port-file port.txt \
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
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

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
#include "util/subprocess.hpp"
#include "util/table.hpp"
#include "workload/trace.hpp"

using namespace tcsa;

namespace {

Workload workload_from(const std::string& path) {
  if (path.empty()) return load_workload(std::cin);
  std::ifstream file(path);
  if (!file) throw std::invalid_argument("cannot open workload file: " + path);
  return load_workload(file);
}

/// Writes the scraped registry to `path`: Prometheus text exposition when
/// the filename ends in .prom, JSON otherwise.
void write_metrics_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::invalid_argument("cannot write metrics file: " + path);
  const obs::MetricsSnapshot snap = obs::snapshot();
  const bool prometheus =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  out << (prometheus ? snap.to_prometheus() : snap.to_json());
}

void write_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::invalid_argument("cannot write trace file: " + path);
  obs::write_chrome_trace(out);
}

std::string slurp_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::invalid_argument("cannot open file: " + path);
  std::ostringstream os;
  os << file.rdbuf();
  return os.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::invalid_argument("cannot write file: " + path);
  out << text;
}

/// Unique-enough id shared by every shard of one run: the parent mints it
/// and passes it down via --run-id.
std::string default_run_id() {
  std::ostringstream os;
  os << "run-" << std::hex << obs::trace_epoch_wall_us() << '-' << std::dec
     << ::getpid();
  return os.str();
}

// ------------------------------------------------- sharded sweep artifacts

/// Everything one run directory holds, loaded and validated: a complete,
/// config-consistent shard set plus its merged metrics and sorted points.
struct RunArtifacts {
  std::vector<obs::RunManifest> manifests;   ///< sorted by shard_index
  obs::MetricsSnapshot metrics;              ///< merged across shards
  std::vector<obs::TraceShard> traces;       ///< shards that wrote a trace
  std::vector<obs::SweepPointRecord> points; ///< sorted (channels, method)
};

RunArtifacts collect_run(const std::string& dir) {
  namespace fs = std::filesystem;
  RunArtifacts run;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    constexpr const char* kSuffix = ".manifest.json";
    if (name.size() < 14 ||
        name.compare(name.size() - 14, 14, kSuffix) != 0)
      continue;
    run.manifests.push_back(
        obs::manifest_from_json(slurp_file(entry.path().string())));
  }
  if (run.manifests.empty())
    throw std::invalid_argument("no *.manifest.json artifacts in " + dir);
  std::sort(run.manifests.begin(), run.manifests.end(),
            [](const obs::RunManifest& a, const obs::RunManifest& b) {
              return a.shard_index < b.shard_index;
            });
  const obs::RunManifest& first = run.manifests.front();
  if (static_cast<int>(run.manifests.size()) != first.shard_count)
    throw std::invalid_argument(
        "incomplete run: " + std::to_string(run.manifests.size()) + " of " +
        std::to_string(first.shard_count) + " shard manifests in " + dir);
  for (std::size_t i = 0; i < run.manifests.size(); ++i) {
    const obs::RunManifest& m = run.manifests[i];
    if (m.run_id != first.run_id || m.config_digest != first.config_digest ||
        m.shard_count != first.shard_count)
      throw std::invalid_argument(
          "shard manifests disagree on run_id/config_digest; " + dir +
          " seems to hold artifacts from more than one run");
    if (m.shard_index != static_cast<int>(i))
      throw std::invalid_argument("duplicate or missing shard index " +
                                  std::to_string(i) + " in " + dir);
    if (!m.metrics_file.empty())
      run.metrics.merge(obs::snapshot_from_json(
          slurp_file((fs::path(dir) / m.metrics_file).string())));
    if (!m.trace_file.empty())
      run.traces.push_back(
          {m, slurp_file((fs::path(dir) / m.trace_file).string())});
    if (!m.points_file.empty()) {
      const auto shard_points = obs::points_from_json(
          slurp_file((fs::path(dir) / m.points_file).string()));
      run.points.insert(run.points.end(), shard_points.begin(),
                        shard_points.end());
    }
  }
  std::sort(run.points.begin(), run.points.end(),
            [](const obs::SweepPointRecord& a, const obs::SweepPointRecord& b) {
              return a.channels != b.channels ? a.channels < b.channels
                                              : a.method < b.method;
            });
  return run;
}

// ------------------------------------------------------ the sweep command

/// Fork/exec parent: runs `shards` child sweeps, at most `jobs` at a time,
/// each re-invoking this executable for one shard. Children inherit the
/// grid-shaping flags verbatim, so every shard derives the identical grid
/// and measures its disjoint round-robin slice of it.
int run_sharded_parent(const Cli& cli, long long shards, long long jobs) {
  const std::string workload = cli.get_string("workload");
  const std::string out_dir = cli.get_string("out-dir");
  if (workload.empty())
    throw std::invalid_argument("--jobs needs --workload FILE (children "
                                "cannot share the parent's stdin)");
  if (out_dir.empty())
    throw std::invalid_argument("--jobs needs --out-dir DIR to collect "
                                "shard artifacts");
  std::filesystem::create_directories(out_dir);
  std::string run_id = cli.get_string("run-id");
  if (run_id.empty()) run_id = default_run_id();

  const std::string exe = self_executable_path("tcsactl");
  std::vector<Subprocess> window;
  std::vector<std::string> logs;
  const auto reap_oldest = [&] {
    const int rc = window.front().wait();
    if (rc != 0)
      throw std::runtime_error("shard child exited with code " +
                               std::to_string(rc) + "; see " + logs.front());
    window.erase(window.begin());
    logs.erase(logs.begin());
  };
  for (long long shard = 0; shard < shards; ++shard) {
    while (static_cast<long long>(window.size()) >= std::max(1LL, jobs))
      reap_oldest();
    const std::string tag = out_dir + "/shard-" + std::to_string(shard);
    SpawnOptions io;
    io.stdout_path = tag + ".stdout.txt";
    io.stderr_path = tag + ".log";
    window.push_back(Subprocess::spawn(
        {exe, "--cmd", "sweep", "--workload", workload, "--shards",
         std::to_string(shards), "--shard-index", std::to_string(shard),
         "--out-dir", out_dir, "--run-id", run_id, "--requests",
         std::to_string(cli.get_int("requests")), "--seed",
         std::to_string(cli.get_int("seed")), "--channels",
         std::to_string(cli.get_int("channels"))},
        io));
    logs.push_back(io.stderr_path);
  }
  while (!window.empty()) reap_oldest();

  // Collect: a parse-validated, complete artifact set or an error.
  const RunArtifacts run = collect_run(out_dir);
  std::cerr << "collected " << run.manifests.size() << " shard artifact sets"
            << " for run " << run_id << " in " << out_dir << "; merge with:\n"
            << "  tcsactl obs merge --dir " << out_dir << '\n';
  return 0;
}

/// One in-process sweep — the whole grid by default, one shard of it when
/// --shards/--shard-index say so — with optional artifact emission.
int run_sweep_command(const Cli& cli) {
  const long long shards = cli.get_int("shards");
  const long long shard_index = cli.get_int("shard-index");
  const long long jobs = cli.get_int("jobs");
  if (shards < 1) throw std::invalid_argument("--shards must be >= 1");
  if (jobs > 0) return run_sharded_parent(cli, shards, jobs);
  if (shards > 1 && shard_index < 0)
    throw std::invalid_argument(
        "--shards > 1 needs --shard-index I (run one shard) or --jobs J "
        "(fork all shards)");
  if (shard_index >= shards)
    throw std::invalid_argument("--shard-index must be < --shards");

  const Workload w = workload_from(cli.get_string("workload"));
  SweepConfig config;
  config.sim.requests.count = cli.get_int("requests");
  config.sim.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (const SlotCount channels = cli.get_int("channels"); channels > 0)
    config.max_channels = channels;
  const SweepShard shard{
      static_cast<unsigned>(shard_index < 0 ? 0 : shard_index),
      static_cast<unsigned>(shards)};

  const std::string out_dir = cli.get_string("out-dir");
  // Artifact runs capture a trace alongside the metrics delta.
  if (!out_dir.empty()) obs::set_tracing_enabled(true);
  const SweepReport report = run_sweep_shard(w, config, shard);

  std::cout << "channels method    AvgD      predicted  miss%     p95\n";
  for (const SweepPoint& p : report.points) {
    std::cout << p.channels << '\t' << method_name(p.method) << '\t'
              << p.avg_delay << '\t' << p.predicted_delay << '\t'
              << 100.0 * p.miss_rate << '\t' << p.p95_delay << '\n';
  }
  std::cerr << "sweep observed "
            << report.metrics.counter_value("tcsa_sweep_points_total")
            << " points, "
            << report.metrics.counter_value("tcsa_opt_nodes_total")
            << " OPT search nodes, "
            << report.metrics.counter_value("tcsa_sim_requests_total")
            << " simulated requests\n";

  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    std::string run_id = cli.get_string("run-id");
    if (run_id.empty()) run_id = default_run_id();
    const std::string stem = "shard-" + std::to_string(shard.index);
    obs::RunManifest manifest = obs::make_manifest(
        run_id, static_cast<int>(shard.index), static_cast<int>(shard.count),
        sweep_config_digest(w, config), "sweep");
    manifest.metrics_file = stem + ".metrics.json";
    manifest.trace_file = stem + ".trace.json";
    write_text_file(out_dir + "/" + manifest.metrics_file,
                    report.metrics.to_json());
    obs::set_tracing_enabled(false);
    write_trace_file(out_dir + "/" + manifest.trace_file);
    manifest.points_file = stem + ".points.json";
    std::vector<obs::SweepPointRecord> records;
    records.reserve(report.points.size());
    for (const SweepPoint& p : report.points) {
      obs::SweepPointRecord r;
      r.channels = static_cast<std::int64_t>(p.channels);
      r.method = method_name(p.method);
      r.avg_delay = p.avg_delay;
      r.predicted_delay = p.predicted_delay;
      r.miss_rate = p.miss_rate;
      r.p95_delay = p.p95_delay;
      r.t_major = static_cast<std::int64_t>(p.t_major);
      r.window_overflows = static_cast<std::int64_t>(p.window_overflows);
      records.push_back(std::move(r));
    }
    write_text_file(out_dir + "/" + manifest.points_file,
                    obs::points_to_json(records));
    write_text_file(out_dir + "/" + stem + ".manifest.json",
                    obs::manifest_to_json(manifest));
  }
  return 0;
}

// ------------------------------------------- serve / tune / swap commands

/// FNV-1a 64 over a canonical description — the serve run's config_digest
/// (same scheme sweep_config_digest uses).
std::string fnv_digest(const std::string& canon) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : canon) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  std::ostringstream os;
  os << std::hex << hash;
  return os.str();
}

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
  cli.add_string("uring", "auto",
                 "io_uring batched egress: auto (use it when the kernel "
                 "offers it), on (fail if unavailable) or off (always "
                 "sendmsg)");
  cli.add_int("pull-channels", 0,
              "on-demand pull airings per slot on top of the broadcast "
              "schedule: kReq demands enter a pending table and the pull "
              "scheduler airs the winning pages (0 = push-only)");
  cli.add_string("pull-policy", "lwf",
                 "pull scheduler: lwf (longest total wait first) or maxrt "
                 "(oldest outstanding request first)");
  cli.add_int("max-buffer-kb", 256,
              "evict a session whose write buffer exceeds this");
  cli.add_int("send-buffer", 0,
              "SO_SNDBUF per session, bytes (0 = kernel default; tests "
              "shrink it to provoke eviction)");
  cli.add_string("metrics-out", "",
                 "write a metrics snapshot to FILE when going off air "
                 "(JSON; Prometheus text if FILE ends in .prom)");
  cli.add_string("trace-out", "", "write a Chrome trace to FILE");
  cli.add_string("out-dir", "",
                 "write a manifest + metrics + trace artifact set into DIR "
                 "(mergeable with 'tcsactl obs merge')");
  cli.add_string("run-id", "", "artifact run id (default: clock + pid)");
  cli.add_int("admin-port", -1,
              "serve /metrics, /metrics.json, /healthz and /slots over HTTP "
              "on this port (0 = ephemeral, -1 = no admin endpoint)");
  cli.add_string("admin-port-file", "",
                 "write the bound admin port here once listening");
  cli.add_int("slo-us", 0,
              "slot-lag SLO in microseconds: a slot airing later than this "
              "counts as a breach (tcsa_slo_breach_total) and warns; 0 = "
              "track percentiles only");
  cli.add_int("slo-window", 256,
              "slots per watchdog percentile window (tcsa_slot_lag_p99_us "
              "and friends update once per window)");
  cli.add_int("timeline-slots", 4096,
              "per-slot airing records retained for /slots");
  cli.add_string("flight-out", "",
                 "crash-safe flight recorder: mmap a ring of the most "
                 "recent request-trace events into FILE (replay with "
                 "'tcsactl trace flight'; survives SIGKILL)");
  cli.add_int("flight-events", 4096, "flight-recorder ring size in events");
  if (!cli.parse(argc, argv)) return 0;

  Workload workload = workload_from(cli.get_string("workload"));
  AirServerConfig config;
  config.bind_address = cli.get_string("bind");
  const long long port = cli.get_int("port");
  if (port < 0 || port > 65535)
    throw std::invalid_argument("serve: --port must be in [0, 65535]");
  config.port = static_cast<std::uint16_t>(port);
  config.channels = cli.get_int("channels");
  if (const std::string method = cli.get_string("method"); method != "auto") {
    config.auto_method = false;
    config.method = parse_method(method);
  }
  if (cli.get_int("slot-us") < 1)
    throw std::invalid_argument("serve: --slot-us must be >= 1");
  config.slot_us = static_cast<std::uint32_t>(cli.get_int("slot-us"));
  config.max_slots = static_cast<std::uint64_t>(cli.get_int("slots"));
  const long long loops = cli.get_int("loops");
  if (loops < 1 || loops > 64)
    throw std::invalid_argument("serve: --loops must be in [1, 64]");
  config.loops = static_cast<std::size_t>(loops);
  if (const std::string uring = cli.get_string("uring"); uring == "auto")
    config.uring = UringMode::kAuto;
  else if (uring == "on")
    config.uring = UringMode::kOn;
  else if (uring == "off")
    config.uring = UringMode::kOff;
  else
    throw std::invalid_argument("serve: --uring must be auto, on or off");
  const long long pull_channels = cli.get_int("pull-channels");
  if (pull_channels < 0 || pull_channels > 16)
    throw std::invalid_argument("serve: --pull-channels must be in [0, 16]");
  config.pull_channels = static_cast<std::size_t>(pull_channels);
  if (!parse_pull_policy(cli.get_string("pull-policy"), &config.pull_policy))
    throw std::invalid_argument(
        "serve: --pull-policy must be 'lwf' or 'maxrt'");
  config.max_session_buffer =
      static_cast<std::size_t>(cli.get_int("max-buffer-kb")) * 1024;
  config.session_send_buffer = static_cast<int>(cli.get_int("send-buffer"));
  const long long admin_port = cli.get_int("admin-port");
  if (admin_port < -1 || admin_port > 65535)
    throw std::invalid_argument("serve: --admin-port must be in [-1, 65535]");
  config.admin_port = static_cast<int>(admin_port);
  config.admin_bind = config.bind_address;
  config.slo_breach_us = static_cast<double>(cli.get_int("slo-us"));
  if (cli.get_int("slo-window") < 1)
    throw std::invalid_argument("serve: --slo-window must be >= 1");
  config.slo_window = static_cast<std::size_t>(cli.get_int("slo-window"));
  if (cli.get_int("timeline-slots") < 1)
    throw std::invalid_argument("serve: --timeline-slots must be >= 1");
  config.timeline_capacity =
      static_cast<std::size_t>(cli.get_int("timeline-slots"));
  config.flight_out = cli.get_string("flight-out");
  if (cli.get_int("flight-events") < 1)
    throw std::invalid_argument("serve: --flight-events must be >= 1");
  config.flight_capacity =
      static_cast<std::uint32_t>(cli.get_int("flight-events"));
  // An interrupted broadcast should still go off air cleanly (drain, close,
  // write the export files below) instead of losing its telemetry.
  config.install_signal_handlers = true;

  const std::string metrics_out = cli.get_string("metrics-out");
  const std::string trace_out = cli.get_string("trace-out");
  const std::string out_dir = cli.get_string("out-dir");
  if (!metrics_out.empty() || !out_dir.empty()) obs::set_enabled(true);
  // A live admin endpoint is a standing request for metrics: scrapes of a
  // server that never wrote an export file must still see real counters.
  if (config.admin_port >= 0) obs::set_enabled(true);
  if (!trace_out.empty() || !out_dir.empty()) obs::set_tracing_enabled(true);
  const std::string digest =
      fnv_digest(workload_to_string(workload) +
                 "|channels=" + std::to_string(config.channels) +
                 "|method=" + cli.get_string("method") +
                 "|slot_us=" + std::to_string(config.slot_us));

  AirServer server(std::move(workload), config);
  if (const std::string port_file = cli.get_string("port-file");
      !port_file.empty())
    write_text_file(port_file, std::to_string(server.port()) + "\n");
  if (const std::string admin_file = cli.get_string("admin-port-file");
      !admin_file.empty() && server.admin_port() != 0)
    write_text_file(admin_file, std::to_string(server.admin_port()) + "\n");
  std::cerr << "tcsactl serve: on air at " << config.bind_address << ':'
            << server.port() << " (" << server.channels()
            << " channels, slot " << config.slot_us << "us, "
            << server.loops() << " loop" << (server.loops() == 1 ? "" : "s");
  if (config.pull_channels > 0)
    std::cerr << ", " << config.pull_channels << " pull channel"
              << (config.pull_channels == 1 ? "" : "s") << " ["
              << pull_policy_name(config.pull_policy) << "]";
  if (server.admin_port() != 0)
    std::cerr << ", admin http://" << config.admin_bind << ':'
              << server.admin_port();
  if (config.max_slots)
    std::cerr << ", stopping after " << config.max_slots << " slots";
  std::cerr << ")\n";
  server.run();
  std::cerr << "tcsactl serve: off air after " << server.slots_aired()
            << " slots (generation " << server.generation() << ", "
            << server.sessions_evicted() << " evictions)\n";

  if (!metrics_out.empty()) write_metrics_file(metrics_out);
  if (!trace_out.empty()) {
    obs::set_tracing_enabled(false);
    write_trace_file(trace_out);
  }
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    std::string run_id = cli.get_string("run-id");
    if (run_id.empty()) run_id = default_run_id();
    obs::RunManifest manifest =
        obs::make_manifest(run_id, 0, 1, digest, "serve");
    manifest.metrics_file = "serve.metrics.json";
    manifest.trace_file = "serve.trace.json";
    write_metrics_file(out_dir + "/" + manifest.metrics_file);
    obs::set_tracing_enabled(false);
    write_trace_file(out_dir + "/" + manifest.trace_file);
    write_text_file(out_dir + "/serve.manifest.json",
                    obs::manifest_to_json(manifest));
  }
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
  cli.add_string("out-dir", "",
                 "write a manifest + request trace + clock-offset sidecar "
                 "into DIR (fuse with the server's via 'tcsactl trace "
                 "merge')");
  cli.add_string("run-id", "", "artifact run id (default: clock + pid)");
  if (!cli.parse(argc, argv)) return 0;

  TuneClient::Options options;
  options.host = cli.get_string("host");
  options.port = required_port(cli, "tune");
  const long long channel = cli.get_int("channel");
  if (channel >= 64)
    throw std::invalid_argument("tune: --channel must be < 64");
  options.channel_mask =
      channel < 0 ? net::kAllChannels : (1ull << channel);
  options.io_timeout_ms = static_cast<int>(cli.get_int("timeout-ms"));
  const auto requests = static_cast<std::uint64_t>(cli.get_int("requests"));
  const auto slots = static_cast<std::uint64_t>(cli.get_int("slots"));
  if (requests > 0 && slots == 0)
    throw std::invalid_argument("tune: --requests needs --slots N");
  const long long patience = cli.get_int("patience-slots");
  if (patience < -1)
    throw std::invalid_argument("tune: --patience-slots must be >= -1");
  const std::string out_dir = cli.get_string("out-dir");
  if (!out_dir.empty()) obs::set_tracing_enabled(true);

  TuneClient client(options);
  std::cerr << "tcsactl tune: generation " << client.generation() << ", "
            << client.channels() << " channels, cycle "
            << client.cycle_length() << ", slot " << client.slot_us()
            << "us, tuned in at slot " << client.tune_in_slot() << '\n';
  if (requests > 0 && patience >= 0)
    client.run_with_wants(slots, requests, patience);
  else if (requests > 0)
    client.run_with_requests(slots, requests);
  else
    client.run(slots);
  const TuneSummary summary = client.summary();
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    std::string run_id = cli.get_string("run-id");
    if (run_id.empty()) run_id = default_run_id();
    const std::string digest =
        fnv_digest("tune|host=" + options.host +
                   "|port=" + std::to_string(options.port) +
                   "|requests=" + std::to_string(requests));
    obs::RunManifest manifest =
        obs::make_manifest(run_id, 0, 1, digest, "tune");
    manifest.trace_file = "tune.trace.json";
    obs::set_tracing_enabled(false);
    write_trace_file(out_dir + "/" + manifest.trace_file);
    write_text_file(out_dir + "/tune.manifest.json",
                    obs::manifest_to_json(manifest));
    write_text_file(out_dir + "/tune.summary.json", summary.to_json() + "\n");
    // Clock-offset sidecar: 'tcsactl trace merge' picks up
    // <stem>.offset.json next to <stem>.manifest.json and corrects this
    // shard's timeline by the measured offset.
    const TuneRequestStats& r = summary.requests;
    write_text_file(
        out_dir + "/tune.offset.json",
        std::string("{\"schema\": \"tcsa-clock-offset/v1\", ") +
            "\"offset_us\": " + std::to_string(r.clock_offset_us) +
            ", \"rtt_us\": " + std::to_string(r.clock_rtt_us) +
            ", \"samples\": " + std::to_string(r.clock_samples) + "}\n");
  }
  if (cli.get_flag("json")) {
    std::cout << summary.to_json() << '\n';
  } else {
    std::cout << "slots observed: " << summary.slots_seen
              << "\nframes: " << summary.frames << " (" << summary.bytes
              << " bytes)\ngeneration: " << summary.generation
              << "\nswaps observed: " << summary.swaps_observed
              << "\ndeadline misses: " << summary.deadline_misses
              << "\nmean access time: " << summary.mean_access_time
              << " slots\n";
    if (summary.requests.sent > 0) {
      const TuneRequestStats& r = summary.requests;
      std::cout << "requests: " << r.sent << " sent, " << r.completed
                << " completed, " << r.misses << " missed deadline\n"
                << "request delay p50/p99/max: " << r.delay_p50_us << '/'
                << r.delay_p99_us << '/' << r.delay_max_us
                << " us; slack p50/min: " << r.slack_p50_us << '/'
                << r.slack_min_us << " us\n"
                << "clock offset: " << r.clock_offset_us << " us (rtt "
                << r.clock_rtt_us << " us over " << r.clock_samples
                << " samples)\n";
    }
    if (summary.wants.issued > 0) {
      const TuneWantStats& w = summary.wants;
      std::cout << "wants: " << w.issued << " issued, "
                << w.broadcast_served << " broadcast-served, " << w.pulled
                << " pulled (fraction " << w.pull_fraction << "), "
                << w.pull_completed << " pull-completed\n"
                << "want waits (slots): broadcast mean "
                << w.mean_broadcast_wait_slots << ", pull mean "
                << w.mean_pull_wait_slots << "; coalescing mean "
                << w.mean_coalesced_waiters << " over " << w.pull_frames
                << " kPull frames\n";
    }
    for (std::size_t g = 0; g < summary.groups.size(); ++g) {
      const TuneGroupStats& s = summary.groups[g];
      std::cout << "group " << g + 1 << ": t=" << s.expected_time
                << " receptions=" << s.receptions << " max_gap=" << s.max_gap
                << " mean_gap=" << s.mean_gap
                << " access_time=" << s.access_time
                << " misses=" << s.misses << '\n';
    }
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
  int method = -1;
  if (const std::string name = cli.get_string("method"); name != "auto")
    method = static_cast<int>(parse_method(name));
  const Workload next = workload_from(cli.get_string("workload"));

  TuneClient::Options options;
  options.host = cli.get_string("host");
  options.port = port;
  options.channel_mask = 0;  // control session: no page traffic
  options.io_timeout_ms = static_cast<int>(cli.get_int("timeout-ms"));
  TuneClient client(options);
  const SwapReply reply =
      client.request_swap(next, cli.get_int("channels"), method);
  if (!reply.accepted) {
    std::cerr << "tcsactl swap: rejected: " << reply.error << '\n';
    return 1;
  }
  std::cout << "swap accepted: generation " << reply.generation
            << " activates at slot " << reply.activation_slot
            << " (seam lateness " << reply.seam_lateness << " slots"
            << (reply.seam_lateness <= 0 ? "; all outstanding deadline "
                                           "promises preserved"
                                         : "")
            << ")\n";
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
              "populations (-1 = classic immediate requests)");
  cli.add_double("pull-slo-p99-us", 0.0,
                 "exit 1 when p99 pull-served delay exceeds this many "
                 "microseconds (0 = report only)");
  cli.add_string("json-out", "",
                 "write the report to FILE as a metrics-snapshot JSON "
                 "document (diffable with 'tcsactl obs diff')");
  cli.add_string("out-dir", "",
                 "write a manifest + metrics artifact set into DIR "
                 "(mergeable with 'tcsactl obs merge')");
  cli.add_string("run-id", "", "artifact run id (default: clock + pid)");
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
  config.duration_ms = static_cast<std::uint64_t>(cli.get_int("duration-ms"));
  config.ramp_timeout_ms =
      static_cast<std::uint64_t>(cli.get_int("ramp-timeout-ms"));
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
  std::cerr << "tcsactl loadgen: " << report.sessions_connected << '/'
            << report.sessions_requested << " sessions, " << report.pages
            << " pages in the window, jitter p50/p99/p999/max "
            << report.jitter_p50_us << '/' << report.jitter_p99_us << '/'
            << report.jitter_p999_us << '/' << report.jitter_max_us
            << " us, " << report.early_closes << " early closes, ~"
            << static_cast<std::uint64_t>(report.rss_per_session_bytes)
            << " RSS bytes/session\n";
  if (report.requests_sent > 0)
    std::cerr << "tcsactl loadgen: " << report.requests_sent
              << " traced requests, " << report.request_completions
              << " completed, miss rate " << report.request_miss_rate
              << ", delay p50/p99 " << report.request_delay_p50_us << '/'
              << report.request_delay_p99_us << " us, slack p50/min "
              << report.request_slack_p50_us << '/'
              << report.request_slack_min_us << " us\n";
  if (report.wants_issued > 0)
    std::cerr << "tcsactl loadgen: " << report.wants_issued << " wants, "
              << report.wants_broadcast << " broadcast-served, "
              << report.wants_pulled << " pulled; " << report.pull_frames
              << " kPull frames (coalescing mean "
              << report.mean_coalesced_waiters << "), "
              << report.pull_completions
              << " pull completions, pull miss rate "
              << report.pull_miss_rate << ", pull delay p50/p99 "
              << report.pull_delay_p50_us << '/' << report.pull_delay_p99_us
              << " us\n";

  if (const std::string json_out = cli.get_string("json-out");
      !json_out.empty())
    write_text_file(json_out, report.to_json());
  if (const std::string out_dir = cli.get_string("out-dir");
      !out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    std::string run_id = cli.get_string("run-id");
    if (run_id.empty()) run_id = default_run_id();
    const std::string digest = fnv_digest(
        "loadgen|sessions=" + std::to_string(config.sessions) +
        "|threads=" + std::to_string(config.threads) +
        "|duration_ms=" + std::to_string(config.duration_ms));
    obs::RunManifest manifest =
        obs::make_manifest(run_id, 0, 1, digest, "loadgen");
    manifest.metrics_file = "loadgen.metrics.json";
    write_text_file(out_dir + "/" + manifest.metrics_file, report.to_json());
    write_text_file(out_dir + "/loadgen.manifest.json",
                    obs::manifest_to_json(manifest));
  }

  if (report.sessions_connected == 0) {
    std::cerr << "tcsactl loadgen: no session ever connected\n";
    return 1;
  }
  if (report.slo_violations > 0) {
    std::cerr << "tcsactl loadgen: p99 jitter " << report.jitter_p99_us
              << " us exceeds the " << config.slo_p99_us << " us SLO\n";
    return 1;
  }
  if (report.pull_slo_violations > 0) {
    std::cerr << "tcsactl loadgen: p99 pull delay "
              << report.pull_delay_p99_us << " us exceeds the "
              << config.pull_slo_p99_us << " us SLO\n";
    return 1;
  }
  return 0;
}

int dispatch(const Cli& cli) {
  const std::string cmd = cli.get_string("cmd");

  if (cmd == "demo") {
    std::cout << workload_to_string(make_workload({2, 4, 8}, {3, 5, 3}));
    return 0;
  }

  if (cmd == "bound") {
    const Workload w = workload_from(cli.get_string("workload"));
    const BandwidthDemand demand = bandwidth_demand(w);
    std::cout << "workload: " << w.describe() << '\n'
              << "bandwidth demand: " << demand.numerator << '/'
              << demand.denominator << " = " << demand.as_double()
              << " channels\n"
              << "minimum channels (Theorem 3.1): " << min_channels(w)
              << '\n';
    if (const double budget = cli.get_double("budget"); budget > 0.0) {
      std::cout << "channels for AvgD <= " << budget << " (continuous bound): "
                << channels_for_delay_budget(w, budget) << '\n';
    }
    return 0;
  }

  if (cmd == "schedule") {
    const Workload w = workload_from(cli.get_string("workload"));
    SlotCount channels = cli.get_int("channels");
    if (channels == 0) channels = min_channels(w);
    const ScheduleOutcome outcome =
        make_schedule(parse_method(cli.get_string("method")), w, channels);
    save_program(std::cout, outcome.program);
    std::cerr << "scheduled " << method_name(outcome.method) << " on "
              << channels << " channels, cycle " << outcome.t_major
              << ", predicted AvgD " << outcome.predicted_delay << '\n';
    return 0;
  }

  if (cmd == "validate") {
    const Workload w = workload_from(cli.get_string("workload"));
    const BroadcastProgram program = load_program(std::cin);
    const ValidityReport report = validate_program(program, w);
    std::cout << (report.valid ? "VALID" : "INVALID")
              << "  worst wait: " << report.worst_wait
              << "  worst lateness: " << report.worst_lateness << '\n';
    for (const std::string& violation : report.violations)
      std::cout << "violation: " << violation << '\n';
    for (const std::string& warning : report.warnings)
      std::cout << "warning: " << warning << '\n';
    return report.valid ? 0 : 1;
  }

  if (cmd == "inspect") {
    const Workload w = workload_from(cli.get_string("workload"));
    const BroadcastProgram program = load_program(std::cin);
    std::cout << report_to_string(inspect_program(program, w))
              << "occupancy: " << occupancy_strip(program) << '\n';
    return 0;
  }

  if (cmd == "plan") {
    // stdin: raw trace lines "<name> <expected-time>"; stdout: the ladder
    // workload ready for --cmd schedule.
    const std::vector<TraceEntry> entries = parse_trace(std::cin);
    const TracePlan plan = plan_from_trace(entries);
    save_workload(std::cout, plan.rearranged.workload);
    std::cerr << "planned " << entries.size() << " pages onto ladder c="
              << plan.ladder_ratio << " ("
              << plan.rearranged.workload.describe()
              << "), mean tightening "
              << 100.0 * (1.0 - plan.rearranged.mean_tightening_ratio)
              << "%; minimum channels "
              << min_channels(plan.rearranged.workload) << '\n';
    return 0;
  }

  if (cmd == "sweep") return run_sweep_command(cli);

  if (cmd == "simulate") {
    const Workload w = workload_from(cli.get_string("workload"));
    const BroadcastProgram program = load_program(std::cin);
    SimConfig config;
    config.requests.count = cli.get_int("requests");
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const SimResult r = simulate_requests(program, w, config);
    std::cout << "requests: " << r.requests << "\navg wait: " << r.avg_wait
              << "\nAvgD: " << r.avg_delay << "\nmiss rate: " << r.miss_rate
              << "\np95 delay: " << r.p95_delay
              << "\nmax delay: " << r.max_delay << '\n';
    return 0;
  }

  throw std::invalid_argument("unknown --cmd: " + cmd);
}

// --------------------------------------------------- obs subcommand family

/// `tcsactl obs merge --dir RUN/` → one Perfetto-loadable trace and one
/// merged snapshot (plus merged points) from a complete shard set.
int obs_merge(int argc, const char* const* argv) {
  Cli cli("tcsactl obs merge",
          "merge a sharded run's artifacts into one trace + one snapshot");
  cli.add_string("dir", "", "run directory holding shard-*.manifest.json");
  cli.add_string("out", "", "output prefix (default: DIR/merged)");
  if (!cli.parse(argc, argv)) return 0;
  const std::string dir = cli.get_string("dir");
  if (dir.empty()) throw std::invalid_argument("obs merge needs --dir DIR");
  std::string prefix = cli.get_string("out");
  if (prefix.empty()) prefix = dir + "/merged";

  const RunArtifacts run = collect_run(dir);
  write_text_file(prefix + ".metrics.json", run.metrics.to_json());
  if (!run.traces.empty())
    write_text_file(prefix + ".trace.json",
                    obs::merge_chrome_traces(run.traces));
  if (!run.points.empty())
    write_text_file(prefix + ".points.json", obs::points_to_json(run.points));
  std::cerr << "merged " << run.manifests.size() << " shards (run "
            << run.manifests.front().run_id << ", config "
            << run.manifests.front().config_digest << ") -> " << prefix
            << ".{metrics,trace,points}.json\n";
  if (run.metrics.counter_value("tcsa_trace_spans_dropped_total") > 0)
    std::cerr << "warning: "
              << run.metrics.counter_value("tcsa_trace_spans_dropped_total")
              << " spans were dropped by ring overflow; the merged trace "
                 "is incomplete\n";
  return 0;
}

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
  std::cout << result.to_markdown(cli.get_flag("verbose"));
  if (!result.clean()) {
    std::cerr << "obs diff: " << result.regressions
              << " metric(s) regressed beyond tolerance\n";
    return 1;
  }
  std::cerr << "obs diff: clean (" << result.entries.size()
            << " metrics compared)\n";
  return 0;
}

/// `tcsactl obs report --dir RUN/` (or --metrics FILE [--points FILE]) →
/// markdown summary on stdout.
int obs_report(int argc, const char* const* argv) {
  Cli cli("tcsactl obs report", "render a markdown run summary");
  cli.add_string("dir", "", "run directory (reads manifests + artifacts)");
  cli.add_string("metrics", "", "metrics snapshot JSON (without --dir)");
  cli.add_string("points", "", "points JSON to tabulate (without --dir)");
  if (!cli.parse(argc, argv)) return 0;
  const std::string dir = cli.get_string("dir");
  if (!dir.empty()) {
    const RunArtifacts run = collect_run(dir);
    std::cout << obs::report_markdown(run.metrics, run.manifests, run.points);
    return 0;
  }
  const std::string metrics_path = cli.get_string("metrics");
  if (metrics_path.empty())
    throw std::invalid_argument("obs report needs --dir or --metrics");
  std::vector<obs::SweepPointRecord> points;
  if (const std::string p = cli.get_string("points"); !p.empty())
    points = obs::points_from_json(slurp_file(p));
  std::cout << obs::report_markdown(
      obs::snapshot_from_json(slurp_file(metrics_path)), {}, points);
  return 0;
}

int obs_main(int argc, const char* const* argv) {
  // argv[0] is the subcommand ("merge" | "diff" | "report"); hand the rest
  // to the subcommand's own Cli (which skips its argv[0] like any main).
  if (argc < 1)
    throw std::invalid_argument("usage: tcsactl obs <merge|diff|report> ...");
  const std::string sub = argv[0];
  if (sub == "merge") return obs_merge(argc, argv);
  if (sub == "diff") return obs_diff(argc, argv);
  if (sub == "report") return obs_report(argc, argv);
  throw std::invalid_argument("unknown obs subcommand: " + sub +
                              " (expected merge | diff | report)");
}

// --------------------------------------------- trace subcommand family

/// `tcsactl trace merge --dir DIR` — fuse the server's and the client's
/// request traces onto one timeline. Unlike `obs merge` (shards of ONE
/// run), serve and tune are separate runs with separate run ids and config
/// digests, so this collector is lenient: it pairs every *.manifest.json
/// with its trace, forges a common run identity, re-indexes the shards
/// (server first — it is the clock reference), and corrects each client
/// shard's timestamps by its measured clock offset (<stem>.offset.json,
/// written by `tcsactl tune --out-dir`).
int trace_merge(int argc, const char* const* argv) {
  Cli cli("tcsactl trace merge",
          "fuse client + server request traces into one Chrome trace with "
          "measured clock-offset alignment");
  cli.add_string("dir", "",
                 "directory holding serve + tune manifests/traces "
                 "(+ optional *.offset.json sidecars)");
  cli.add_string("out", "", "output file (default: DIR/journey.trace.json)");
  if (!cli.parse(argc, argv)) return 0;
  const std::string dir = cli.get_string("dir");
  if (dir.empty()) throw std::invalid_argument("trace merge needs --dir DIR");
  std::string out = cli.get_string("out");
  if (out.empty()) out = dir + "/journey.trace.json";

  namespace fs = std::filesystem;
  struct Entry {
    obs::RunManifest manifest;
    std::string stem;  // "<stem>.manifest.json" -> offset is "<stem>.offset.json"
  };
  std::vector<Entry> found;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    constexpr const char* kSuffix = ".manifest.json";
    if (name.size() < 14 || name.compare(name.size() - 14, 14, kSuffix) != 0)
      continue;
    Entry e;
    e.manifest = obs::manifest_from_json(slurp_file(entry.path().string()));
    e.stem = name.substr(0, name.size() - 14);
    if (!e.manifest.trace_file.empty()) found.push_back(std::move(e));
  }
  if (found.empty())
    throw std::invalid_argument("no *.manifest.json with a trace in " + dir);
  // The serving process is the reference timeline: its shard lands first
  // and offsets are corrections towards its clock.
  std::stable_sort(found.begin(), found.end(),
                   [](const Entry& a, const Entry& b) {
                     return (a.manifest.command == "serve") >
                            (b.manifest.command == "serve");
                   });
  const std::uint64_t reference_wall = found.front().manifest.wall_epoch_us;

  std::vector<obs::TraceShard> shards;
  std::uint64_t corrected = 0;
  for (std::size_t i = 0; i < found.size(); ++i) {
    obs::TraceShard shard;
    shard.manifest = found[i].manifest;
    shard.manifest.run_id = "journey";       // forged common identity
    shard.manifest.config_digest = "journey";
    shard.manifest.shard_index = static_cast<int>(i);
    shard.manifest.shard_count = static_cast<int>(found.size());
    shard.trace_json = slurp_file(
        (fs::path(dir) / found[i].manifest.trace_file).string());
    const fs::path sidecar = fs::path(dir) / (found[i].stem + ".offset.json");
    if (i > 0 && fs::exists(sidecar)) {
      const obs::JsonValue doc = obs::json_parse(slurp_file(sidecar.string()))
                                     .expect_object("offset sidecar");
      if (doc.at("schema").expect_string("schema") != "tcsa-clock-offset/v1")
        throw std::invalid_argument("unknown offset sidecar schema in " +
                                    sidecar.string());
      if (doc.at("samples").expect_uint("samples") > 0) {
        // The estimator measured (reference trace clock - our trace clock).
        // The merge already shifts by the wall-epoch difference, so the
        // correction is the measured offset minus what the wall clocks
        // claimed; with honest same-host clocks it collapses to ~0.
        const auto measured = static_cast<std::int64_t>(
            doc.at("offset_us").expect_number("offset_us"));
        shard.clock_offset_us =
            measured - static_cast<std::int64_t>(
                           shard.manifest.wall_epoch_us - reference_wall);
        ++corrected;
      }
    }
    shards.push_back(std::move(shard));
  }
  write_text_file(out, obs::merge_chrome_traces(shards));
  std::cerr << "trace merge: fused " << shards.size() << " timelines ("
            << corrected << " clock-corrected) -> " << out << '\n';
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
    std::cout << doc;
  } else {
    Table table({"ordinal", "stage", "trace id", "t (us)", "arg"});
    for (const obs::FlightEvent& e : events) {
      std::ostringstream id;
      id << std::hex << e.trace_id;
      table.begin_row()
          .add(e.ordinal)
          .add(obs::req_stage_name(static_cast<obs::ReqStage>(e.stage)))
          .add(id.str())
          .add(e.t_us)
          .add(e.arg);
    }
    std::cout << table;
    std::cout << events.size() << " events, "
              << (sealed ? "sealed cleanly" : "NOT sealed (hard kill or "
                                              "still running)")
              << '\n';
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
      std::cerr << "tcsactl stat: /metrics.json answered " << metrics.status
                << ": " << metrics.body;
      return 1;
    }
    std::cout << metrics.body;
    return 0;
  }

  const net::HttpResponse health = net::http_get(host, port, "/healthz");
  if (health.status != 200) {
    std::cerr << "tcsactl stat: /healthz answered " << health.status << ": "
              << health.body;
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

  std::cout << "tcsactl stat " << host << ':' << port << " — "
            << h.at("status").expect_string("status") << ", up "
            << static_cast<std::uint64_t>(num("uptime_seconds")) << "s\n\n";
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
  std::cout << table;

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
    std::cout << '\n' << egress;
    std::cout << "\nbuild: " << snap.gauge_value("tcsa_uptime_seconds")
              << "s uptime";
    if (const obs::GaugeSnapshot* info = snap.gauge("tcsa_build_info"))
      std::cout << " (" << info->labels << ")";
    std::cout << '\n';
  } else {
    std::cout << "\n(no registry metrics: " << metrics.status
              << " from /metrics.json)\n";
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
  const long long port = std::atoll(port_text.c_str());
  if (port < 1 || port > 65535)
    throw std::invalid_argument("stat: bad port in target '" + target + "'");

  const long long watch_s = cli.get_int("watch");
  const bool as_json = cli.get_flag("json");
  for (;;) {
    if (watch_s > 0 && !as_json)
      std::cout << "\x1b[2J\x1b[H";  // clear + home, top-style refresh
    const int rc =
        stat_once(host, static_cast<std::uint16_t>(port), as_json);
    if (watch_s <= 0) return rc;
    std::cout.flush();
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
                 "artifact tooling: tcsactl obs merge|diff|report --help)");
  cli.add_string("method", "pamad", "scheduler for --cmd schedule "
                                    "(susc|pamad|mpb|opt|rr)");
  cli.add_int("channels", 0, "channel count (0 = Theorem 3.1 minimum)");
  cli.add_string("workload", "",
                 "workload file for validate/simulate (default: none; "
                 "bound/schedule read the workload from stdin)");
  cli.add_int("requests", 3000, "simulated requests for --cmd simulate");
  cli.add_int("seed", 42, "simulation seed");
  cli.add_double("budget", 0.0, "with --cmd bound: also report the channel "
                                "count for this AvgD budget");
  cli.add_string("metrics-out", "",
                 "write a metrics snapshot of this run to FILE after the "
                 "command (JSON; Prometheus text if FILE ends in .prom)");
  cli.add_string("trace-out", "",
                 "write a Chrome trace_event JSON timeline of this run to "
                 "FILE (load in chrome://tracing or Perfetto)");
  cli.add_int("shards", 1,
              "with --cmd sweep: partition the sweep grid into this many "
              "round-robin shards");
  cli.add_int("shard-index", -1,
              "with --cmd sweep --shards K: run only this shard (0-based) "
              "in-process");
  cli.add_int("jobs", 0,
              "with --cmd sweep --shards K: fork/exec the shards as child "
              "processes, at most JOBS at a time");
  cli.add_string("out-dir", "",
                 "with --cmd sweep: write manifest + metrics + trace + "
                 "points artifacts for each shard into DIR");
  cli.add_string("run-id", "",
                 "artifact run id (shared across shards; default: minted "
                 "from clock + pid)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string metrics_out = cli.get_string("metrics-out");
  const std::string trace_out = cli.get_string("trace-out");
  if (!metrics_out.empty()) obs::set_enabled(true);
  if (!trace_out.empty()) obs::set_tracing_enabled(true);

  const int rc = dispatch(cli);
  if (!metrics_out.empty()) write_metrics_file(metrics_out);
  if (!trace_out.empty()) write_trace_file(trace_out);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    // Usage errors: the caller asked for something this tool does not
    // offer. Point at --help so the usage text is one step away.
    std::cerr << "tcsactl: " << e.what() << '\n'
              << "usage: run 'tcsactl --help' or 'tcsactl <subcommand> "
                 "--help'\n";
    return 2;
  } catch (const std::exception& e) {
    // Operational failures: the request was well-formed but the world did
    // not cooperate (connection refused, unreadable file, invalid program).
    std::cerr << "tcsactl: " << e.what() << '\n';
    return 1;
  }
}
