// Shared pieces of the hvbench tool: clocks, in-memory spans, small
// statistics helpers and the key/value result it prints.
//
// Spans are the traced run's only instrument.  They sit in hvbench,
// around each public call into a layer of the system; the system itself
// is not modified.  A span records its name, start, end, the span that
// encloses it and a request id, and stays in memory until the run writes
// them all out.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds.
std::int64_t now_ns();
/// CPU time of the whole process (all threads), in seconds.
double process_cpu_s();
/// VmHWM of this process, in MiB; 0 when unreadable.
double peak_rss_mb();

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same tracer, -1 = root
  std::uint64_t request = 0;
};

/// A single-threaded span recorder.  When disabled every call is a no-op,
/// so the same code runs traced and untraced.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }
  int begin(const char* name, std::uint64_t request = 0);
  void end(int index);
  /// Records a finished span (for intervals measured elsewhere).
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint64_t request);
  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  /// Per name: total duration minus the part covered by child spans.
  std::map<std::string, double> self_seconds() const;
  /// Per name: total duration.
  std::map<std::string, double> total_seconds() const;
  /// One JSON object per line.
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), index_(tracer.begin(name, request)) {}
  ~Span() { tracer_.end(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Linear-interpolated quantile (q in [0,1]) of unsorted values.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// FNV-1a 64 of `bytes`, as 16 hex digits.
std::string fnv64_hex(const std::string& bytes);

/// What one hvbench command reports: named numbers, the attempted/failed
/// tally, and free-form string facts.  Printed as one JSON line.
struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> facts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void fail(const std::string& why);
  std::string json() const;
};

}  // namespace perfbench
