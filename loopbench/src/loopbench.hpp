// Internal interfaces of the loopback benchmark: the server child process,
// the closed-loop load generator, the in-process replay and the span
// recorder they share.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mapsec/crypto/bytes.hpp"
#include "mapsec/net/link.hpp"
#include "mapsec/net/socket_bearer.hpp"
#include "mapsec/server/load_gen.hpp"
#include "workload.hpp"

namespace loopbench {

/// Named numbers crossing the process boundary as `key=value` tokens.
using Fields = std::map<std::string, double>;
std::string encode_fields(const Fields& fields);
Fields decode_fields(const std::string& line);

std::string hex(crypto::ConstBytes bytes);
crypto::Bytes from_hex(const std::string& text);

/// Process CPU time (user + system) and wall time, in seconds.
double process_cpu_s();
double wall_s();
/// CPU time of every thread of process `pid`, in seconds (schedstat).
double process_cpu_s(int pid);
/// Host-wide CPU time stolen by the hypervisor, and all CPU time, in
/// clock ticks since boot (/proc/stat); {0, 0} where unavailable.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};
CpuTicks cpu_ticks();

// ---- server child --------------------------------------------------------

/// Serve commands read line by line from `cmd_fd`, one reply line each
/// to `reply_fd`:
///   pki <v> -> "<setup seconds> <CA root hex>" derive the seed's
///              identities, variant v (make_pki)
///   fleet  -> "<setup seconds> <port>..."   bind and start a 2-shard fleet
///   stop   -> fields of the stopped fleet's report (see server_child.cpp)
///   quit   -> "peak_rss_kb=<n>", then exit
/// Returns the process exit code.
int run_server_child(const Workload& w, std::uint64_t seed, int cmd_fd,
                     int reply_fd);

// ---- spans ---------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;        // index into the recorder, -1 for a root span
  std::int64_t session;
};

/// In-memory span log; written out once, at exit.
class SpanRecorder {
 public:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  int open(const char* name, int parent, std::int64_t session) {
    spans_.push_back(Span{name, now_ns(), 0, parent, session});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[id].end_ns = now_ns(); }
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the part covered by direct children, per span.
  std::vector<std::int64_t> self_ns() const;
  /// One JSON object: the run's workload and seed, and every span with
  /// its self time.
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const;

 private:
  std::vector<Span> spans_;
};

// ---- closed-loop load ----------------------------------------------------

struct PhaseOptions {
  std::vector<std::uint16_t> ports;
  int server_pid = 0;  // its CPU time is read at the phase's start and end
  double seconds = 1;
  /// Completed sessions after which every client parks (0: no cap).
  std::size_t max_sessions = 0;
  /// Record a span per inbound/outbound frame of every client link.
  SpanRecorder* tracer = nullptr;
  /// Corrupt one echoed bulk record in flight (the gate's self-test).
  bool inject_bad_echo = false;
};

/// One slice of the measuring window. Rates and latencies are reported
/// as medians over slices, so a transient hiccup moves one slice only.
struct Slice {
  double wall_s = 0;
  double steal_share = 0;  // host steal over all vCPU time in the slice
  std::size_t sessions = 0;             // completed inside the slice
  std::uint64_t bytes_echoed = 0;       // verified, by those sessions
  std::vector<double> latencies_us;     // their client-observed handshakes
};

struct PhaseResult {
  double wall_s = 0;          // first connect to last park
  /// Load and server process CPU over the phase. Every session the phase
  /// counts ran inside it: clients start fresh and park at a session
  /// boundary.
  double cpu_s = 0;
  double server_cpu_s = 0;
  std::vector<Slice> slices;  // the window, in ~0.5 s pieces
  std::size_t sessions_attempted = 0;
  std::size_t sessions_completed = 0;
  std::size_t sessions_failed = 0;  // gave up, refused, stuck at the end
  std::size_t echo_mismatches = 0;
  std::size_t resumed_sessions = 0;
  std::vector<std::size_t> full_per_client;
  std::vector<double> handshake_latencies_us;  // client-observed, all
  /// fold_fleet_digest over each client's transcript after
  /// Workload::digest_sessions sessions; empty if a client fell short.
  crypto::Bytes prefix_digest;
  net::LinkStats links;
  net::SocketStats sockets;
  server::ArenaUsage arena;
};

PhaseResult run_phase(const Workload& w, std::uint64_t seed,
                      const protocol::Certificate& root,
                      const PhaseOptions& options);

// ---- in-process replay ---------------------------------------------------

/// Per-layer busy times from a lockstep replay of the workload's sessions
/// (TlsClient + async_pk TlsServer, FrameCodec, CCMP programs).
struct ReplayResult {
  double pk_op_us = 0;                // median per run_pk_job
  double server_full_handshake_us = 0;    // per full handshake, pk excluded
  double server_resumed_handshake_us = 0; // per resumed handshake
  double client_full_handshake_us = 0;
  double client_resumed_handshake_us = 0;
  double record_seal_us = 0;          // client send_data, per record
  double record_open_us = 0;          // server recv_data, per record
  double record_open_ns_per_byte = 0;
  double ccm_seal_ns_per_byte = 0;    // PacketPipeline::run_batch
  double ccm_open_ns_per_byte = 0;    // ProtocolEngine::run("ccmp-in")
  bool echo_ok = true;
};

ReplayResult run_replay(const Workload& w, std::uint64_t seed,
                        const Pki& pki, double seconds,
                        SpanRecorder& spans);

}  // namespace loopbench
