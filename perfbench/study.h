// The study side of the benchmark: set-up, timed passes of the paper's
// pipeline, and a single-threaded replay of the same steps that checks
// the pipeline's CSV and, when traced, measures each layer.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {

struct StudyOptions {
  std::filesystem::path workdir;
  std::size_t domains = 300;
  int pages = 10;
  std::uint64_t seed = 1;
  bool gzip = false;
  int threads = 2;
  double seconds = 10.0;
  bool trace = false;
  /// When > 0, every snapshot is rewritten by `hv warc mutate --rate`
  /// after set-up (the self-test's corrupted-archive case).
  double corrupt_rate = 0.0;
};

/// One set-up sample: StudyPipeline construction (ranking + calibration)
/// and build_archives into an empty workdir.  Reports setup_s.
Result study_setup(const StudyOptions& options);

/// Timed passes of run_all + results_view + write_csv over the archives
/// study_setup left in the workdir, until `seconds` have passed, then the
/// replay.  Traced: set-up (into an empty workdir) and replay are spanned
/// per layer, and the sealed results (<workdir>/results.hv) and a request
/// pool (<workdir>/pool.bin) are left for a `hv serve` probe.
Result study_run(const StudyOptions& options);

}  // namespace perfbench
