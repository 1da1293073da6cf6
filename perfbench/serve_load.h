// The serve side of the benchmark: an open-loop probe of a running
// `hv serve --results`, one request kind at a time.
#pragma once

#include <cstdint>
#include <filesystem>

#include "bench.h"

namespace perfbench {

struct ServeOptions {
  std::filesystem::path workdir;  ///< holds results.hv and pool.bin
  int port = 0;
  std::uint64_t seed = 1;
  int connections = 2;
};

/// One open-loop phase per request kind (check, fix, large, query) at a
/// fixed reference rate.  Every response is checked against the locally
/// rendered one, and each request's due/sent/first-byte/done times are
/// written as spans to <workdir>/spans_requests.jsonl.
Result serve_load(const ServeOptions& options);

}  // namespace perfbench
