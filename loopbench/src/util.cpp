#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "loopbench.hpp"

namespace loopbench {

std::string encode_fields(const Fields& fields) {
  std::ostringstream out;
  out.precision(17);
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out << ' ';
    first = false;
    out << key << '=' << value;
  }
  return out.str();
}

Fields decode_fields(const std::string& line) {
  Fields fields;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    fields[token.substr(0, eq)] = std::strtod(token.c_str() + eq + 1, nullptr);
  }
  return fields;
}

std::string hex(crypto::ConstBytes bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 0xF];
  }
  return out;
}

crypto::Bytes from_hex(const std::string& text) {
  crypto::Bytes out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(
        std::strtoul(text.substr(i, 2).c_str(), nullptr, 16)));
  return out;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double process_cpu_s(int pid) {
  namespace fs = std::filesystem;
  std::error_code ec;
  double total_ns = 0;
  const fs::path tasks = fs::path("/proc") / std::to_string(pid) / "task";
  for (const auto& task : fs::directory_iterator(tasks, ec)) {
    std::ifstream in(task.path() / "schedstat");
    double on_cpu_ns = 0;
    if (in >> on_cpu_ns) total_ns += on_cpu_ns;
  }
  return total_ns / 1e9;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double ticks = 0;
    if (!(in >> ticks)) return CpuTicks{};
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

double wall_s() {
  return static_cast<double>(SpanRecorder::now_ns()) / 1e9;
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_)
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  return self;
}

bool SpanRecorder::write_json(const std::string& path,
                              const std::string& workload,
                              std::uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = self_ns();
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"session\":%lld,"
                 "\"self_ns\":%lld}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.session),
                 static_cast<long long>(self[i]),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace loopbench
