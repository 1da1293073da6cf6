#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int Tracer::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_ns(), 0, parent, request});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::total_seconds() const {
  std::map<std::string, double> total;
  for (const SpanRecord& span : spans_) {
    total[span.name] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return total;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::map<std::string, double> self = total_seconds();
  for (const SpanRecord& span : spans_) {
    if (span.parent < 0) continue;
    const SpanRecord& parent = spans_[static_cast<std::size_t>(span.parent)];
    self[parent.name] -= static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return self;
}

void Tracer::write_jsonl(const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const SpanRecord& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}\n";
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t low = static_cast<std::size_t>(std::floor(position));
  const std::size_t high = std::min(values.size() - 1, low + 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::string fnv64_hex(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

void Result::fail(const std::string& why) {
  ++failed;
  std::string& errors = facts["errors"];
  if (errors.size() < 2000) errors += (errors.empty() ? "" : "; ") + why;
}

std::string Result::json() const {
  const auto quote = [](const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
        continue;
      }
      out.push_back(c);
    }
    return out + "\"";
  };
  std::ostringstream out;
  out.precision(17);
  out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ", ") << quote(name) << ": "
        << (std::isfinite(value) ? value : 0.0);
    first = false;
  }
  out << "}, \"facts\": {";
  first = true;
  for (const auto& [name, value] : facts) {
    out << (first ? "" : ", ") << quote(name) << ": " << quote(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
