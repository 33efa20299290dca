// loopbench: serve real sessions over loopback TCP and report end-to-end
// and per-layer metrics.
//
//   loopbench --workload <full_handshake|resume_ticket|bulk_echo>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--state-dir <dir>] [--inject-bad-echo]
//
// The process forks a server child (a 2-shard SocketServerFleet) and
// drives it as a closed loop of 4 handsets from its own reactor thread.
// Stdout carries context lines, one line per metric and gate, and last a
// JSON result object. The exit status is 0 only when every gate passed.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "bench_guard.hpp"
#include "loopbench.hpp"
#include "mapsec/analysis/stats.hpp"
#include "mapsec/crypto/dispatch.hpp"

using namespace loopbench;

namespace {

constexpr int kSetups = 21;  // set-up repetitions per run; median reported
/// Longest traced window, if it does not reach its session cap first.
constexpr double kTracedWindowS = 5;
/// A phase starts no window with less time than this left.
constexpr double kMinWindowS = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_bad_echo = false;
  std::string state_dir = ".bench_out";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--state-dir" && has_value) {
      a.state_dir = argv[++i];
    } else if (arg == "--inject-bad-echo") {
      a.inject_bad_echo = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
  }
  return have_workload && a.seconds > 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

double median(std::vector<double> v) { return analysis::percentile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The server child, spoken to over two pipes.
class ServerChild {
 public:
  int pid() const { return pid_; }

  bool spawn(const Workload& w, std::uint64_t seed) {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) return false;
    std::fflush(stdout);
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      close(to_child[1]);
      close(from_child[0]);
      _exit(run_server_child(w, seed, to_child[0], from_child[1]));
    }
    close(to_child[0]);
    close(from_child[1]);
    cmd_fd_ = to_child[1];
    reply_fd_ = from_child[0];
    return true;
  }

  /// Send one command; returns its reply line ("" if the child died).
  std::string ask(const std::string& cmd) {
    const std::string line = cmd + "\n";
    if (write(cmd_fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size()))
      return "";
    std::string reply;
    char c = 0;
    while (read(reply_fd_, &c, 1) == 1) {
      if (c == '\n') return reply;
      reply += c;
    }
    return "";
  }

  /// Close the command pipe and reap the child.
  int finish() {
    if (pid_ <= 0) return -1;
    close(cmd_fd_);
    close(reply_fd_);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  ~ServerChild() { finish(); }

 private:
  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int reply_fd_ = -1;
};

/// A fleet started in the child: its set-up time and listening ports.
struct FleetStart {
  bool ok = false;
  double setup_s = 0;
  std::vector<std::uint16_t> ports;
};

FleetStart start_fleet(ServerChild& child) {
  FleetStart out;
  std::istringstream in(child.ask("fleet"));
  if (!(in >> out.setup_s)) return out;
  unsigned port = 0;
  while (in >> port) out.ports.push_back(static_cast<std::uint16_t>(port));
  out.ok = out.ports.size() == kShards;
  return out;
}

/// Fold one measured window into the run's totals.
void append(PhaseResult& into, PhaseResult&& p) {
  into.wall_s += p.wall_s;
  into.cpu_s += p.cpu_s;
  into.server_cpu_s += p.server_cpu_s;
  for (Slice& s : p.slices) into.slices.push_back(std::move(s));
  into.sessions_attempted += p.sessions_attempted;
  into.sessions_completed += p.sessions_completed;
  into.sessions_failed += p.sessions_failed;
  into.echo_mismatches += p.echo_mismatches;
  into.resumed_sessions += p.resumed_sessions;
  into.handshake_latencies_us.insert(into.handshake_latencies_us.end(),
                                     p.handshake_latencies_us.begin(),
                                     p.handshake_latencies_us.end());
  if (into.prefix_digest.empty()) into.prefix_digest = p.prefix_digest;
  into.links.messages_sent += p.links.messages_sent;
  into.links.messages_delivered += p.links.messages_delivered;
  into.links.segments_sent += p.links.segments_sent;
  into.links.retransmits += p.links.retransmits;
  into.links.duplicate_segments += p.links.duplicate_segments;
  into.links.acks_sent += p.links.acks_sent;
  into.sockets += p.sockets;
  into.arena.allocations += p.arena.allocations;
  into.arena.reserved += p.arena.reserved;
}

/// Gate bookkeeping: every check prints one line; any failure makes the
/// run incorrect.
class Gates {
 public:
  void check(bool ok, const std::string& what) {
    std::printf("gate %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    all_ok_ = all_ok_ && ok;
  }
  bool ok() const { return all_ok_; }

 private:
  bool all_ok_ = true;
};

/// Checks that every phase must pass.
void check_phase(Gates& g, const std::string& phase, const Workload& w,
                 const PhaseResult& p, const Fields& srv) {
  g.check(p.sessions_completed > 0, phase + ": sessions completed");
  g.check(p.echo_mismatches == 0, phase + ": no echo mismatch");
  g.check(p.sessions_failed == 0,
          phase + ": no session failed, refused or stuck");
  g.check(srv.at("conserved") == 1, phase + ": server books conserved");
  g.check(srv.at("zero_steady_state_alloc") == 1,
          phase + ": server arena within its reserve");
  g.check(p.arena.allocations <= p.arena.reserved,
          phase + ": client arena within its reserve");
  if (w.tickets) {
    bool one_full_each = true;
    for (std::size_t f : p.full_per_client) one_full_each &= f == 1;
    g.check(one_full_each && srv.at("full_handshakes") == kConnections,
            phase + ": exactly one full handshake per connection");
    g.check(srv.at("ticket_open_failures") == 0,
            phase + ": zero ticket open failures");
  } else {
    g.check(p.resumed_sessions == 0 && srv.at("resumed_handshakes") == 0,
            phase + ": every handshake full");
  }
  g.check(srv.at("rsa_private_ops") == srv.at("full_handshakes"),
          phase + ": one pk op per full handshake, none per resumption");
  g.check(!p.prefix_digest.empty(),
          phase + ": every connection reached the digest prefix");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metrics(const std::vector<Metric>& metrics, const char* tag) {
  for (const Metric& m : metrics)
    std::printf("%s %-38s %16.6f %s\n", tag, m.name.c_str(), m.value,
                m.unit.c_str());
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(10);
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out << ", ";
    out << '"' << metrics[i].name << "\": {\"value\": " << metrics[i].value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << '}';
  return out.str();
}

/// Median over the window's slices of `f(slice)`.
template <typename F>
double slice_median(const PhaseResult& p, F f) {
  std::vector<double> values;
  for (const Slice& s : p.slices) values.push_back(f(s));
  return median(values);
}

double slice_rate(const Slice& s) {
  return ratio(static_cast<double>(s.sessions), s.wall_s);
}
double slice_p50_ms(const Slice& s) {
  return analysis::percentile(s.latencies_us, 0.5) / 1e3;
}
double slice_p99_ms(const Slice& s) {
  return analysis::percentile(s.latencies_us, 0.99) / 1e3;
}

/// End-to-end metrics of one measured phase: what each session costs the
/// server and the handset in CPU time, the server's memory, and set-up.
/// CPU time excludes the time the hypervisor stole (the kernel accounts
/// steal apart), so these hold still on a shared host.
std::vector<Metric> end_to_end(const PhaseResult& p, double setup_s,
                               double peak_rss_mb) {
  const double sessions = static_cast<double>(p.sessions_completed);
  return {
      {"server_cpu_us_per_session", ratio(p.server_cpu_s * 1e6, sessions),
       "us"},
      {"client_cpu_us_per_session", ratio(p.cpu_s * 1e6, sessions), "us"},
      {"setup_s", setup_s, "s"},
      {"server_peak_rss_mb", peak_rss_mb, "MB"},
  };
}

/// Wall-clock metrics of one measured phase, slice medians. On a shared
/// virtual host they follow the hypervisor's steal more than the program
/// (see README.md), so they are reported per layer, without a bound.
std::vector<Metric> wall_clock(const PhaseResult& p) {
  return {
      {"sessions_per_s", slice_median(p, slice_rate), "1/s"},
      {"handshake_p50_ms", slice_median(p, slice_p50_ms), "ms"},
      {"handshake_p99_ms", slice_median(p, slice_p99_ms), "ms"},
      {"goodput_mb_s", slice_median(p, [](const Slice& s) {
         return ratio(static_cast<double>(s.bytes_echoed) / 1e6, s.wall_s);
       }), "MB/s"},
      {"host.steal_share",
       slice_median(p, [](const Slice& s) { return s.steal_share; }),
       "share"},
  };
}

double value_of(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  throw std::logic_error("no metric " + name);
}

/// Compare the timing-independent digest with the one recorded by an
/// earlier run of the same workload and seed, recording it if new.
bool check_recorded_digest(const Args& a, const std::string& digest) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path dir = fs::path(a.state_dir) / "digests";
  fs::create_directories(dir, ec);
  const fs::path file =
      dir / (a.workload + "-" + std::to_string(a.seed) + ".hex");
  std::ifstream in(file);
  std::string recorded;
  if (in >> recorded) return recorded == digest;
  std::ofstream(file) << digest << "\n";
  return true;
}

}  // namespace

int benchmark(const Args& args, const Workload& w);

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: loopbench --workload <full_handshake|resume_ticket|"
                 "bulk_echo> --seed N --seconds S --trace 0|1 "
                 "[--state-dir DIR] [--inject-bad-echo]\n");
    return 2;
  }
  mapsec::bench::release_guard();
  // A peer that closed its end must surface as an I/O error on the socket
  // or pipe, not kill the process (the child inherits this).
  std::signal(SIGPIPE, SIG_IGN);
  const std::optional<Workload> workload = find_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  try {
    return benchmark(args, *workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loopbench: %s\n", e.what());
    return 1;
  }
}

int benchmark(const Args& args, const Workload& w) {
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc < kShards + 1) {
    std::fprintf(stderr,
                 "refusing to run: nproc=%u is below shards + 1 = %zu (the "
                 "load thread would share a core with a shard)\n",
                 nproc, kShards + 1);
    return 1;
  }
  if (!net::sockets_available()) {
    std::fprintf(stderr, "loopback TCP is unavailable here\n");
    return 1;
  }

  std::printf(
      "context {\"nproc\": %u, \"cpu_model\": \"%s\", \"crypto\": \"%s\", "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"shards\": %zu, "
      "\"connections\": %zu, \"transport\": \"loopback TCP\"}\n",
      nproc, json_escape(cpu_model()).c_str(),
      json_escape(crypto::dispatch::capabilities_summary()).c_str(),
      mapsec::bench::build_type(), w.name.c_str(), args.seed, args.seconds,
      args.trace ? 1 : 0, kShards, kConnections);

  ServerChild child;
  if (!child.spawn(w, args.seed)) {
    std::fprintf(stderr, "could not start the server process\n");
    return 1;
  }

  // ---- set-up, repeated: PKI, fleet bind + start, client readiness ----
  std::vector<double> setups, pki_parts, fleet_parts, client_parts;
  FleetStart fleet;
  protocol::Certificate root;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) child.ask("stop");
    // Each set-up derives another PKI variant, so the median spans several
    // prime searches; the last is variant 0, the one the fleet serves.
    std::istringstream pki_reply(
        child.ask("pki " + std::to_string((i + 1) % kSetups)));
    double pki_s = 0;
    std::string root_hex;
    pki_reply >> pki_s >> root_hex;
    fleet = start_fleet(child);
    if (!fleet.ok) {
      std::fprintf(stderr, "server fleet failed to start\n");
      return 1;
    }
    // Client readiness: install the trust anchor the server provisioned.
    const double t0 = wall_s();
    const std::optional<protocol::Certificate> anchor =
        protocol::Certificate::decode(from_hex(root_hex));
    if (!anchor) {
      std::fprintf(stderr, "server sent no usable trust anchor\n");
      return 1;
    }
    root = *anchor;
    const double client_s = wall_s() - t0;
    setups.push_back(pki_s + fleet.setup_s + client_s);
    pki_parts.push_back(pki_s);
    fleet_parts.push_back(fleet.setup_s);
    client_parts.push_back(client_s);
  }
  const double setup_s = median(setups);
  std::printf("setup median_s=%.6f pki_s=%.6f fleet_s=%.6f client_s=%.6f "
              "(medians of %d)\n",
              setup_s, median(pki_parts), median(fleet_parts),
              median(client_parts), kSetups);

  Gates gates;
  // One window: run the closed loop against the current fleet until the
  // workload's session cap or `seconds`, stop the fleet for its report,
  // check the phase gates, and start the fleet of the next window (the
  // last one is torn down unused at quit). Each window has a fresh fleet
  // and a fixed session count: the server keeps every connection it
  // served, and its memory and per-session cost grow with them, so one
  // long window would measure how long the fleet had been up.
  PhaseOptions opt;
  opt.server_pid = child.pid();
  opt.max_sessions = w.window_sessions;
  Fields srv;
  const auto window = [&](const std::string& name, double seconds) {
    opt.ports = fleet.ports;
    opt.seconds = seconds;
    PhaseResult p = run_phase(w, args.seed, root, opt);
    srv = decode_fields(child.ask("stop"));
    if (srv.empty())
      throw std::runtime_error("server process died during the " + name +
                               " window");
    check_phase(gates, name, w, p, srv);
    fleet = start_fleet(child);
    if (!fleet.ok) throw std::runtime_error("server fleet failed to start");
    return p;
  };
  // Windows until `seconds` of window time have passed; `each` sees every
  // window's result and name.
  const auto phase = [&](const std::string& name, double seconds,
                         const auto& each) {
    double elapsed = 0;
    for (int k = 1; k == 1 || seconds - elapsed >= kMinWindowS; ++k) {
      const std::string window_name = name + " " + std::to_string(k);
      PhaseResult p = window(window_name, seconds - elapsed);
      elapsed += p.wall_s;
      each(std::move(p), window_name);
    }
  };

  crypto::Bytes warm_digest;
  phase("warm-up", std::max(1.0, 0.1 * args.seconds),
        [&](PhaseResult&& p, const std::string& name) {
          if (warm_digest.empty())
            warm_digest = p.prefix_digest;
          else
            gates.check(p.prefix_digest == warm_digest,
                        name + ": fleet digest equals the first warm-up's");
        });
  PhaseResult run;
  Fields run_srv;
  std::map<std::string, std::vector<double>> server_latency;
  int windows = 0;
  opt.inject_bad_echo = args.inject_bad_echo;
  phase("measured", args.seconds,
        [&](PhaseResult&& p, const std::string& name) {
          ++windows;
          const double n = static_cast<double>(p.sessions_completed);
          std::printf("window %s sessions=%zu wall_s=%.3f "
                      "server_cpu_us_per_session=%.1f "
                      "client_cpu_us_per_session=%.1f\n",
                      name.c_str(), p.sessions_completed, p.wall_s,
                      ratio(p.server_cpu_s * 1e6, n), ratio(p.cpu_s * 1e6, n));
          gates.check(p.prefix_digest == warm_digest,
                      name + ": fleet digest equals the warm-up's");
          append(run, std::move(p));
          opt.inject_bad_echo = false;  // one corrupted echo is enough
          for (const auto& [key, value] : srv) {
            if (key == "handshake_p50_us" || key == "handshake_p99_us")
              server_latency[key].push_back(value);
            else
              run_srv[key] += value;
          }
        });
  for (const auto& [key, values] : server_latency)
    run_srv[key] = median(values);

  const double load_util = ratio(run.cpu_s, run.wall_s);
  std::printf(
      "load-generator client_cpu_util=%.3f wall_s=%.3f windows=%d "
      "sessions=%zu bottleneck=%s\n",
      load_util, run.wall_s, windows, run.sessions_completed,
      load_util > 0.9 ? "yes (client thread saturated)" : "no");

  // ---- traced window and replay ----
  SpanRecorder spans;
  PhaseResult traced;
  ReplayResult replay;
  if (args.trace) {
    opt.tracer = &spans;
    traced = window("traced", std::min(kTracedWindowS, args.seconds));
    gates.check(traced.prefix_digest == run.prefix_digest,
                "traced and untraced fleet digests equal");
  }
  const std::string rss_reply = child.ask("quit");
  const int child_status = child.finish();
  const double peak_rss_mb =
      decode_fields(rss_reply)["peak_rss_kb"] * 1024.0 / 1e6;
  gates.check(child_status == 0 && peak_rss_mb > 0,
              "server process exited cleanly");

  if (args.trace) {
    const Pki pki = make_pki(args.seed);
    replay = run_replay(w, args.seed, pki, 2.0, spans);
    gates.check(replay.echo_ok, "replay echoes byte-exact");
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(fs::path(args.state_dir) / "spans", ec);
    const std::string span_file =
        (fs::path(args.state_dir) / "spans" / (w.name + ".json")).string();
    if (spans.write_json(span_file, w.name, args.seed))
      std::printf("spans %zu written to %s\n", spans.spans().size(),
                  span_file.c_str());
  }

  // ---- digests ----
  const std::string digest = hex(run.prefix_digest);
  std::printf("fleet-digest %s (first %d sessions of each connection)\n",
              digest.c_str(), w.digest_sessions);
  if (!run.prefix_digest.empty())
    gates.check(check_recorded_digest(args, digest),
                "fleet digest equals earlier runs of this seed");

  const std::vector<Metric> e2e = end_to_end(run, setup_s, peak_rss_mb);
  print_metrics(e2e, "end-to-end");
  const std::vector<Metric> wall = wall_clock(run);
  print_metrics(wall, "wall      ");
  std::printf("wall handshake samples %zu in %zu slices; sessions/s@steal "
              "by slice:",
              run.handshake_latencies_us.size(), run.slices.size());
  for (const Slice& s : run.slices)
    std::printf(" %.0f@%.3f", slice_rate(s), s.steal_share);
  std::printf("\n");

  std::vector<Metric> out = e2e;
  if (args.trace) {
    const Fields& srv = run_srv;
    const std::vector<Metric> traced_e2e =
        end_to_end(traced, setup_s, peak_rss_mb);
    print_metrics(traced_e2e, "traced    ");
    print_metrics(wall_clock(traced), "traced    ");

    const double sessions = static_cast<double>(run.sessions_completed);
    const double handshakes = srv.at("handshakes_completed");
    const double full_share = ratio(srv.at("full_handshakes"), handshakes);
    const double pk_per_session = ratio(srv.at("rsa_private_ops"), sessions);
    const double payloads = w.payloads_per_session;
    const double server_cpu_us = value_of(e2e, "server_cpu_us_per_session");
    const double replay_server_us =
        pk_per_session * replay.pk_op_us +
        full_share * replay.server_full_handshake_us +
        (1 - full_share) * replay.server_resumed_handshake_us +
        payloads * (replay.record_open_us +
                    replay.ccm_seal_ns_per_byte * w.payload_bytes / 1e3);
    const double client_hs_us =
        full_share * replay.client_full_handshake_us +
        (1 - full_share) * replay.client_resumed_handshake_us;
    const double server_hs_us =
        full_share * replay.server_full_handshake_us +
        (1 - full_share) * replay.server_resumed_handshake_us;
    const double client_p50_us =
        analysis::percentile(run.handshake_latencies_us, 0.5);
    const double messages = static_cast<double>(run.links.messages_sent);
    const double segments = static_cast<double>(run.links.segments_sent);
    out = {
        {"crypto.pk_op_us", replay.pk_op_us, "us"},
        {"crypto.pk_ops_per_session", pk_per_session, "count"},
        {"protocol.server_handshake_us", server_hs_us, "us"},
        {"protocol.client_handshake_us", client_hs_us, "us"},
        {"protocol.record_seal_us", replay.record_seal_us, "us"},
        {"protocol.record_open_us", replay.record_open_us, "us"},
        {"protocol.record_open_ns_per_byte", replay.record_open_ns_per_byte,
         "ns/B"},
        {"protocol.handshake_bytes_per_session",
         ratio(srv.at("handshake_bytes"), handshakes), "B"},
        {"ticket.resumption_share",
         ratio(srv.at("ticket_resumptions"), handshakes), "share"},
        {"ticket.open_failures", srv.at("ticket_open_failures"), "count"},
        {"engine.ccm_seal_ns_per_byte", replay.ccm_seal_ns_per_byte, "ns/B"},
        {"engine.ccm_open_ns_per_byte", replay.ccm_open_ns_per_byte, "ns/B"},
        {"net.syscalls_per_session",
         ratio(srv.at("writev_calls") + srv.at("readv_calls"), sessions),
         "count"},
        {"net.frames_per_writev",
         ratio(srv.at("frames_sent"), srv.at("writev_calls")), "count"},
        {"net.frames_per_readv",
         ratio(srv.at("frames_received"), srv.at("readv_calls")), "count"},
        {"net.link_segments_per_message", ratio(segments, messages), "count"},
        {"net.link_retransmit_share",
         ratio(static_cast<double>(run.links.retransmits), segments),
         "share"},
        {"net.eagain_writes",
         srv.at("eagain_writes") + static_cast<double>(run.sockets.eagain_writes),
         "count"},
        {"net.partial_writes",
         srv.at("partial_writes") +
             static_cast<double>(run.sockets.partial_writes),
         "count"},
        {"net.arena_allocations_over_reserve",
         std::max(0.0, srv.at("arena_allocations") - srv.at("arena_reserved")) +
             static_cast<double>(run.arena.allocations > run.arena.reserved
                                     ? run.arena.allocations -
                                           run.arena.reserved
                                     : 0),
         "count"},
        {"server.handshake_p50_us", srv.at("handshake_p50_us"), "us"},
        {"server.handshake_p99_us", srv.at("handshake_p99_us"), "us"},
        {"server.client_side_wait_us",
         client_p50_us - srv.at("handshake_p50_us"), "us"},
        {"server.cpu_util",
         ratio(srv.at("cpu_s"), srv.at("wall_s") * kShards), "share"},
        {"server.refused_connections", srv.at("refused_connections"),
         "count"},
        {"server.failed_connections", srv.at("failed_connections"), "count"},
        {"server.backpressure_deferrals", srv.at("backpressure_deferrals"),
         "count"},
        {"server.framework_us_per_session", server_cpu_us - replay_server_us,
         "us"},
        {"load.client_cpu_util", load_util, "share"},
        {"failed_session_share",
         ratio(static_cast<double>(run.sessions_failed),
               static_cast<double>(run.sessions_attempted)),
         "share"},
        {"trace.overhead_share",
         ratio(value_of(traced_e2e, "client_cpu_us_per_session"),
               value_of(e2e, "client_cpu_us_per_session")) -
             1,
         "share"},
    };
    out.insert(out.end(), wall.begin(), wall.end());
    print_metrics(out, "per-layer ");
  }

  const bool correct = gates.ok();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", run.sessions_attempted, run.sessions_failed,
      metrics_json(out).c_str());
  return correct ? 0 : 1;
}
