// The server process: a 2-shard SocketServerFleet driven by line commands
// from the parent (the load process). A fresh fleet per phase gives each
// phase its own ServerStats; process CPU is sampled around the fleet's
// lifetime.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "loopbench.hpp"
#include "mapsec/analysis/stats.hpp"

namespace loopbench {

namespace {

bool read_line(int fd, std::string& line) {
  line.clear();
  char c = 0;
  while (true) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line += c;
  }
}

void write_line(int fd, const std::string& line) {
  const std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

Fields report_fields(const server::SocketServerFleet::Report& r,
                     double cpu_s, double wall) {
  const server::ServerStats& s = r.server;
  Fields f;
  f["cpu_s"] = cpu_s;
  f["wall_s"] = wall;
  f["handshakes_completed"] = static_cast<double>(s.handshakes_completed);
  f["full_handshakes"] = static_cast<double>(s.full_handshakes);
  f["resumed_handshakes"] = static_cast<double>(s.resumed_handshakes);
  f["ticket_resumptions"] = static_cast<double>(s.ticket_resumptions);
  f["ticket_open_failures"] = static_cast<double>(s.ticket_open_failures);
  f["rsa_private_ops"] = static_cast<double>(s.handshake_rsa_private_ops);
  f["handshake_bytes"] =
      static_cast<double>(s.handshake_bytes_rx + s.handshake_bytes_tx);
  f["failed_connections"] = static_cast<double>(s.failed_connections);
  f["refused_connections"] = static_cast<double>(s.refused_connections);
  f["backpressure_deferrals"] =
      static_cast<double>(s.backpressure_deferrals);
  f["conserved"] = r.conserved ? 1 : 0;
  f["zero_steady_state_alloc"] = r.zero_steady_state_alloc ? 1 : 0;
  f["arena_allocations"] = static_cast<double>(r.arena.allocations);
  f["arena_reserved"] = static_cast<double>(r.arena.reserved);
  f["frames_sent"] = static_cast<double>(r.sockets.frames_sent);
  f["frames_received"] = static_cast<double>(r.sockets.frames_received);
  f["writev_calls"] = static_cast<double>(r.sockets.writev_calls);
  f["readv_calls"] = static_cast<double>(r.sockets.readv_calls);
  f["partial_writes"] = static_cast<double>(r.sockets.partial_writes);
  f["eagain_writes"] = static_cast<double>(r.sockets.eagain_writes);
  f["handshake_p50_us"] = analysis::percentile(s.handshake_latencies_us, 0.5);
  f["handshake_p99_us"] =
      analysis::percentile(s.handshake_latencies_us, 0.99);
  return f;
}

}  // namespace

int run_server_child(const Workload& w, std::uint64_t seed, int cmd_fd,
                     int reply_fd) {
  std::optional<Pki> pki;
  std::unique_ptr<server::SocketServerFleet> fleet;
  double cpu0 = 0;
  double wall0 = 0;
  std::string cmd;
  while (read_line(cmd_fd, cmd)) {
    if (cmd.rfind("pki ", 0) == 0) {
      const std::uint64_t variant =
          std::strtoull(cmd.c_str() + 4, nullptr, 10);
      const double t0 = wall_s();
      fleet.reset();
      pki.emplace(make_pki(seed, variant));
      const double setup = wall_s() - t0;
      // The client is provisioned with the CA root.
      write_line(reply_fd,
                 std::to_string(setup) + " " + hex(pki->root.encode()));
    } else if (cmd == "fleet" && pki && !fleet) {
      const double t0 = wall_s();
      fleet = std::make_unique<server::SocketServerFleet>(
          fleet_config(seed), server_config(w, *pki, seed), cache_config());
      if (!fleet->ok()) {
        write_line(reply_fd, "error: listener bind failed");
        return 1;
      }
      fleet->start();
      std::string reply = std::to_string(wall_s() - t0);
      for (std::uint16_t port : fleet->ports()) {
        reply += ' ';
        reply += std::to_string(port);
      }
      cpu0 = process_cpu_s();
      wall0 = wall_s();
      write_line(reply_fd, reply);
    } else if (cmd == "stop" && fleet) {
      const server::SocketServerFleet::Report r = fleet->stop();
      const double cpu = process_cpu_s() - cpu0;
      const double wall = wall_s() - wall0;
      fleet.reset();
      write_line(reply_fd, encode_fields(report_fields(r, cpu, wall)));
    } else if (cmd == "quit") {
      fleet.reset();
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      write_line(reply_fd,
                 "peak_rss_kb=" + std::to_string(ru.ru_maxrss));
      return 0;
    } else {
      write_line(reply_fd, "error: unexpected command '" + cmd + "'");
      return 1;
    }
  }
  return 1;  // parent went away
}

}  // namespace loopbench
