#include "study.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>

#include "archive/gzip.h"
#include "archive/read_error.h"
#include "archive/snapshot_store.h"
#include "archive/warc.h"
#include "cli/commands.h"
#include "engine/engine.h"
#include "html/parser.h"
#include "mitigation/mitigations.h"
#include "net/http.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "ranking/tranco.h"
#include "report/paper_data.h"
#include "report/render.h"
#include "store/persist.h"
#include "store/result_sink.h"

namespace perfbench {
namespace {

using hv::pipeline::kYearCount;

/// Timed passes a study run makes at the least, whatever --seconds says.
constexpr int kMinPasses = 3;

hv::pipeline::PipelineConfig pipeline_config(const StudyOptions& options) {
  hv::pipeline::PipelineConfig config;
  config.corpus.domain_count = options.domains;
  config.corpus.max_pages_per_domain = options.pages;
  config.corpus.seed = options.seed;
  config.workdir = options.workdir;
  config.threads = options.threads;
  config.gzip_archives = options.gzip;
  return config;
}

std::string_view label_of(int year) {
  return hv::report::kSnapshotLabels[static_cast<std::size_t>(year)];
}

std::string warc_date(int year) {
  return std::to_string(hv::report::kYears[static_cast<std::size_t>(year)]) +
         "-02-15T08:00:00Z";
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// The study population, by the same public calls the pipeline makes:
/// intersect the daily lists, order by average rank, widen the cutoff if
/// churn starves it.
std::vector<std::string> study_population(
    const hv::corpus::CorpusConfig& config) {
  for (std::size_t multiplier = 2; multiplier <= 5; ++multiplier) {
    hv::ranking::ListGeneratorConfig lists_config;
    lists_config.universe_size = config.domain_count * (multiplier + 1);
    lists_config.list_size = config.domain_count * multiplier;
    lists_config.list_count = 12;
    lists_config.seed = config.seed ^ 0x7A6C0ull;
    const hv::ranking::ListGenerator lists(lists_config);
    std::vector<std::vector<std::string>> daily;
    for (std::size_t day = 0; day < lists_config.list_count; ++day) {
      daily.push_back(lists.daily_list(day));
    }
    std::vector<hv::ranking::RankedDomain> population =
        hv::ranking::build_study_population(daily);
    if (population.size() < config.domain_count && multiplier < 5) continue;
    std::vector<std::string> domains;
    for (hv::ranking::RankedDomain& ranked : population) {
      domains.push_back(std::move(ranked.domain));
    }
    if (domains.size() > config.domain_count) {
      domains.resize(config.domain_count);
    }
    return domains;
  }
  return {};
}

/// Traced set-up: ranking, calibration, page rendering and archive
/// writing, each behind its own span, by the calls build_archives makes.
/// Must run before any other Generator with this seed exists in the
/// process, or the calibration cache hides the calibration.
void traced_setup(const StudyOptions& options, Tracer& tracer,
                  std::vector<std::string>* domains_out) {
  const hv::pipeline::PipelineConfig config = pipeline_config(options);
  std::vector<std::string> domains;
  {
    Span span(tracer, "ranking.population");
    domains = study_population(config.corpus);
  }
  std::optional<hv::corpus::Generator> generator;
  {
    Span span(tracer, "corpus.calibrate");
    generator.emplace(config.corpus, domains);
  }
  const hv::archive::SnapshotStore snapshots(config.workdir);
  for (int y = 0; y < kYearCount; ++y) {
    const hv::archive::SnapshotPaths paths =
        snapshots.create(label_of(y), options.gzip);
    std::ofstream warc_out(paths.warc, std::ios::binary);
    hv::archive::WarcWriter writer(
        warc_out, options.gzip ? hv::archive::WarcCompression::kGzip
                               : hv::archive::WarcCompression::kNone);
    writer.write_warcinfo(label_of(y));
    hv::archive::CdxIndex index;
    const std::string date = warc_date(y);
    for (std::size_t d = 0; d < generator->domains().size(); ++d) {
      std::optional<hv::corpus::DomainSnapshot> snapshot;
      {
        Span span(tracer, "corpus.render");
        snapshot.emplace(generator->domain_snapshot(d, y));
      }
      if (!snapshot->in_crawl) continue;
      Span span(tracer, "archive.write");
      for (const hv::corpus::PageRecord& page : snapshot->pages) {
        const std::string url = "https://" + snapshot->domain + page.url;
        const std::string message = hv::net::build_http_response(
            200, "OK", {{"Content-Type", page.content_type}}, page.body);
        std::uint64_t length = 0;
        const std::uint64_t offset =
            writer.write_response(url, date, message, &length);
        index.add({snapshot->domain, url, page.content_type, offset, length});
      }
    }
    Span span(tracer, "archive.write");
    index.save(paths.cdx);
  }
  *domains_out = std::move(domains);
}

/// Rewrites every snapshot's WARC through `hv warc mutate`.
void corrupt_archives(const StudyOptions& options) {
  const hv::archive::SnapshotStore snapshots(options.workdir);
  for (int y = 0; y < kYearCount; ++y) {
    const std::filesystem::path warc = snapshots.paths_for(label_of(y)).warc;
    const std::filesystem::path mutated = warc.string() + ".mutated";
    std::ostringstream out;
    std::ostringstream err;
    std::istringstream in;
    const int status = hv::cli::run(
        {"warc", "mutate", warc.string(), mutated.string(), "--rate",
         std::to_string(options.corrupt_rate), "--seed",
         std::to_string(options.seed + static_cast<std::uint64_t>(y))},
        in, out, err);
    if (status != 0) {
      throw std::runtime_error("hv warc mutate failed: " + err.str());
    }
    std::filesystem::rename(mutated, warc);
  }
}

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  hv::pipeline::PipelineCounters counters;
  std::string csv;
};

/// One timed pass: run_all on existing archives, seal, CSV.
Pass timed_pass(const hv::pipeline::PipelineConfig& config) {
  hv::obs::default_tracer().clear();
  hv::pipeline::StudyPipeline pipeline(config);
  Pass pass;
  const std::int64_t start = now_ns();
  const double cpu_start = process_cpu_s();
  pipeline.run_all();
  std::ostringstream csv;
  pipeline.results_view().write_csv(csv);
  pass.cpu_s = process_cpu_s() - cpu_start;
  pass.wall_s = seconds_since(start);
  pass.counters = pipeline.counters();
  pass.csv = csv.str();
  return pass;
}

/// What a replay saw, beyond its spans.
struct Replay {
  std::string csv;
  hv::store::StudyView view;
  double wall_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t checked = 0;
  std::uint64_t drop_http = 0;
  std::uint64_t drop_non_html = 0;
  std::uint64_t drop_non_utf8 = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t findings = 0;
  std::uint64_t raw_bytes = 0;   ///< on-disk bytes read (CDX lengths)
  std::uint64_t body_bytes = 0;  ///< HTML bytes handed to the parser
  std::vector<double> check_us;  ///< whole check_document calls
};

bool same_outcome(const hv::pipeline::PageOutcome& a,
                  const hv::engine::CheckReport& b) {
  return a.violations == b.violations && a.url_newline == b.url_newline &&
         a.url_newline_lt == b.url_newline_lt &&
         a.script_in_attribute == b.script_in_attribute &&
         a.script_in_attr_affected == b.script_in_attr_affected &&
         a.uses_math == b.uses_math && a.uses_svg == b.uses_svg;
}

/// Steps 1-4 on one thread, in the pipeline's order: per snapshot, load
/// the CDX, look every domain up, read each batch of captures in offset
/// order, check, add to the sink; then seal and write the CSV.  With
/// `parts` the check is done call by call (HTTP parse, HTML parse, rules,
/// mitigation scans) and then once more as a whole check_document, whose
/// verdict must match the parts'.
Replay replay(const hv::pipeline::PipelineConfig& config,
              const std::vector<std::string>& ranked_domains, bool parts,
              Tracer& tracer, Result& result) {
  const hv::core::Checker checker;
  const hv::archive::SnapshotStore snapshots(config.workdir);
  hv::store::ShardedResultSink sink;
  Replay out;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < ranked_domains.size(); ++i) {
    sink.register_rank(ranked_domains[i], i + 1);
  }
  for (int y = 0; y < kYearCount; ++y) {
    const hv::archive::SnapshotPaths paths =
        snapshots.paths_for(label_of(y));
    std::optional<hv::archive::CdxIndex> index;
    {
      Span span(tracer, "archive.cdx_load");
      index.emplace(hv::archive::CdxIndex::load(paths.cdx));
    }
    std::vector<std::vector<const hv::archive::CdxEntry*>> tasks;
    {
      Span span(tracer, "archive.cdx_load");
      for (const std::string& domain : index->domains()) {
        tasks.push_back(index->lookup(domain, config.pages_per_domain));
        sink.mark_found(domain, y);
      }
    }
    // The pipeline's read path: a 256 KiB readahead buffer per reader and
    // batches of tasks / (threads * 8) domains.
    std::vector<char> readahead(256 * 1024);
    std::ifstream warc_in;
    warc_in.rdbuf()->pubsetbuf(readahead.data(),
                               static_cast<std::streamsize>(readahead.size()));
    warc_in.open(paths.warc, std::ios::binary);
    hv::archive::WarcReader reader(warc_in);
    const std::size_t batch = std::max<std::size_t>(
        1, tasks.size() / (static_cast<std::size_t>(config.threads) * 8));
    for (std::size_t begin = 0; begin < tasks.size(); begin += batch) {
      std::vector<const hv::archive::CdxEntry*> captures;
      for (std::size_t t = begin; t < std::min(tasks.size(), begin + batch);
           ++t) {
        captures.insert(captures.end(), tasks[t].begin(), tasks[t].end());
      }
      std::sort(captures.begin(), captures.end(),
                [](const auto* a, const auto* b) { return a->offset < b->offset; });
      for (const hv::archive::CdxEntry* capture : captures) {
        Span record_span(tracer, "record", capture->offset);
        std::optional<hv::archive::WarcRecord> record;
        try {
          Span span(tracer, "archive.read");
          reader.seek(capture->offset);
          record = reader.next();
        } catch (const hv::archive::ReadError&) {
          ++out.quarantined;
          sink.mark_error(capture->domain, y);
          continue;
        }
        ++out.records;
        out.raw_bytes += capture->length;
        if (!record.has_value() || record->type != "response") continue;

        hv::pipeline::PageOutcome outcome;
        outcome.domain = capture->domain;
        outcome.year_index = y;
        if (!parts) {
          hv::pipeline::PipelineCounters counters;
          Span span(tracer, "engine.check_document");
          hv::pipeline::analyze_capture(checker, capture->domain, y,
                                        record->payload, &outcome, &counters);
          out.checked += counters.pages_checked;
          out.drop_http += counters.http_errors;
          out.drop_non_html += counters.non_html_records;
          out.drop_non_utf8 += counters.non_utf8_filtered;
        } else {
          hv::engine::CheckRequest request;
          request.bytes = record->payload;
          request.http_message = true;
          request.require_utf8 = true;
          request.scan_mitigations = true;
          // Whichever of the two runs second finds the page in cache, so
          // they take turns going first.
          const bool whole_first = (out.records & 1) != 0;
          std::optional<hv::engine::CheckReport> report;
          const auto whole = [&] {
            const std::int64_t check_start = now_ns();
            const int check_span = tracer.begin("engine.check_document");
            report.emplace(hv::engine::check_document(checker, request));
            tracer.end(check_span);
            out.check_us.push_back(
                static_cast<double>(now_ns() - check_start) * 1e-3);
          };
          if (whole_first) whole();
          hv::engine::Drop drop = hv::engine::Drop::kNone;
          {
            std::optional<hv::net::HttpResponse> response;
            {
              Span span(tracer, "net.http_parse");
              response = hv::net::parse_http_response(record->payload);
            }
            if (!response.has_value() || response->status_code != 200) {
              drop = hv::engine::Drop::kHttpError;
            } else if (response->media_type() != "text/html") {
              drop = hv::engine::Drop::kNonHtml;
            } else {
              out.body_bytes += response->body.size();
              std::optional<hv::html::ParseResult> parsed;
              {
                Span span(tracer, "html.parse");
                parsed.emplace(hv::html::parse(response->body));
              }
              if (!parsed->input_utf8_valid) {
                drop = hv::engine::Drop::kNonUtf8;
              } else {
                {
                  Span span(tracer, "core.rules");
                  const hv::core::CheckResult checked =
                      checker.check(*parsed, response->body);
                  outcome.violations = checked.present;
                  out.findings += checked.findings.size();
                }
                out.parse_errors += parsed->errors.size();
                Span span(tracer, "mitigation.scan");
                const auto urls =
                    hv::mitigation::scan_url_newlines(*parsed->document);
                const auto scripts =
                    hv::mitigation::scan_script_in_attributes(*parsed->document);
                outcome.url_newline = urls.any_newline();
                outcome.url_newline_lt = urls.any_blocked();
                outcome.script_in_attribute = scripts.any();
                outcome.script_in_attr_affected = scripts.any_affected();
                outcome.uses_math = parsed->document->uses_math();
                outcome.uses_svg = parsed->document->uses_svg();
              }
            }
          }
          if (!whole_first) whole();
          if (report->drop != drop ||
              (drop == hv::engine::Drop::kNone && !same_outcome(outcome, *report))) {
            result.fail("check_document disagrees with its parts at " +
                        capture->url);
          }
          switch (drop) {
            case hv::engine::Drop::kNone:
              outcome.analyzable = true;
              ++out.checked;
              break;
            case hv::engine::Drop::kHttpError:
              ++out.drop_http;
              break;
            case hv::engine::Drop::kNonHtml:
              ++out.drop_non_html;
              break;
            case hv::engine::Drop::kNonUtf8:
              ++out.drop_non_utf8;
              break;
          }
        }
        if (outcome.analyzable) {
          Span span(tracer, "store.add");
          sink.add(outcome);
        }
      }
    }
  }
  std::optional<hv::store::StudyView> view;
  {
    Span span(tracer, "store.seal");
    view.emplace(sink.seal());
  }
  std::ostringstream csv;
  {
    Span span(tracer, "store.csv");
    view->write_csv(csv);
  }
  out.csv = csv.str();
  out.view = std::move(*view);
  out.wall_s = seconds_since(start);
  return out;
}

/// Compares two CSVs line by line; every differing line is one failure.
void compare_csv(const std::string& expected, const std::string& actual,
                 const std::string& what, Result& result) {
  if (expected == actual) return;
  std::istringstream a(expected);
  std::istringstream b(actual);
  std::string line_a;
  std::string line_b;
  std::uint64_t differing = 0;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(a, line_a));
    const bool more_b = static_cast<bool>(std::getline(b, line_b));
    if (!more_a && !more_b) break;
    if (!more_a || !more_b || line_a != line_b) ++differing;
  }
  for (std::uint64_t i = 0; i < std::max<std::uint64_t>(1, differing); ++i) {
    result.fail(what + ": CSV differs (" + std::to_string(differing) +
                " line(s))");
  }
}

/// Every archived response payload must be exactly the message the
/// generator rendered, whatever the framing: this is what makes the
/// plain and gzip studies' CSVs equal.
void check_payloads(const hv::pipeline::PipelineConfig& config,
                    const hv::corpus::Generator& generator, Result& result) {
  const hv::archive::SnapshotStore snapshots(config.workdir);
  for (int y = 0; y < kYearCount; ++y) {
    const hv::archive::SnapshotPaths paths =
        snapshots.paths_for(label_of(y));
    const hv::archive::CdxIndex index = hv::archive::CdxIndex::load(paths.cdx);
    std::ifstream warc_in(paths.warc, std::ios::binary);
    hv::archive::WarcReader reader(warc_in);
    std::size_t next = 0;
    for (std::size_t d = 0; d < generator.domains().size(); ++d) {
      const hv::corpus::DomainSnapshot snapshot =
          generator.domain_snapshot(d, y);
      if (!snapshot.in_crawl) continue;
      for (const hv::corpus::PageRecord& page : snapshot.pages) {
        if (next >= index.entries().size()) {
          result.fail("archive has fewer records than the corpus");
          return;
        }
        const hv::archive::CdxEntry& entry = index.entries()[next++];
        try {
          reader.seek(entry.offset);
          const auto record = reader.next();
          if (!record.has_value() ||
              record->payload !=
                  hv::net::build_http_response(
                      200, "OK", {{"Content-Type", page.content_type}},
                      page.body)) {
            result.fail("archived payload differs from the corpus at " +
                        entry.url);
          }
        } catch (const hv::archive::ReadError&) {
          // Counted once already, as a quarantined record.
        }
      }
    }
  }
}

/// Raw members of the archive through the codec: inflate and deflate
/// rates and the compression ratio, on a bounded sample of records.
void codec_pass(const hv::pipeline::PipelineConfig& config, Result& result) {
  const hv::archive::SnapshotStore snapshots(config.workdir);
  constexpr std::uint64_t kSampleBytes = 6u << 20;
  std::uint64_t total_raw = 0;
  std::vector<std::pair<hv::archive::SnapshotPaths, hv::archive::CdxEntry>>
      entries;
  for (int y = 0; y < kYearCount; ++y) {
    const hv::archive::SnapshotPaths paths =
        snapshots.paths_for(label_of(y));
    const hv::archive::CdxIndex index = hv::archive::CdxIndex::load(paths.cdx);
    for (const hv::archive::CdxEntry& entry : index.entries()) {
      entries.emplace_back(paths, entry);
      total_raw += entry.length;
    }
  }
  const std::size_t stride = std::max<std::uint64_t>(
      1, (total_raw + kSampleBytes - 1) / kSampleBytes);
  double inflate_s = 0.0;
  double deflate_s = 0.0;
  std::uint64_t text_bytes = 0;
  std::uint64_t member_bytes = 0;
  std::uint64_t members = 0;
  std::string raw;
  for (std::size_t i = 0; i < entries.size(); i += stride) {
    const auto& [paths, entry] = entries[i];
    std::ifstream in(paths.warc, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(entry.offset));
    raw.assign(entry.length, '\0');
    in.read(raw.data(), static_cast<std::streamsize>(raw.size()));
    std::string text;
    std::string member;
    if (hv::archive::gzip::has_gzip_magic(raw)) {
      member = raw;
      std::int64_t t0 = now_ns();
      const auto status = hv::archive::gzip::inflate_member(
          member, &text, hv::archive::kMaxPayloadBytes);
      inflate_s += seconds_since(t0);
      if (status.status != hv::archive::gzip::InflateStatus::kOk) continue;
      t0 = now_ns();
      const std::string again = hv::archive::gzip::deflate_member(text);
      deflate_s += seconds_since(t0);
      if (again != member) result.fail("deflate is not deterministic");
    } else {
      text = raw;
      std::int64_t t0 = now_ns();
      member = hv::archive::gzip::deflate_member(text);
      deflate_s += seconds_since(t0);
      std::string back;
      t0 = now_ns();
      const auto status = hv::archive::gzip::inflate_member(
          member, &back, hv::archive::kMaxPayloadBytes);
      inflate_s += seconds_since(t0);
      if (status.status != hv::archive::gzip::InflateStatus::kOk || back != text) {
        result.fail("gzip round trip differs");
      }
    }
    text_bytes += text.size();
    member_bytes += member.size();
    ++members;
  }
  const double mb = static_cast<double>(text_bytes) / 1e6;
  result.metrics["gzip.inflate_mb_per_s"] = inflate_s > 0 ? mb / inflate_s : 0;
  result.metrics["gzip.deflate_mb_per_s"] = deflate_s > 0 ? mb / deflate_s : 0;
  result.metrics["archive.compression_ratio"] =
      member_bytes > 0 ? static_cast<double>(text_bytes) /
                             static_cast<double>(member_bytes)
                       : 0;
  result.metrics["gzip.members"] = static_cast<double>(members);
}

/// store.query_s: what `GET /query/domain/<d>` does, for every domain.
double query_pass(const hv::store::StudyView& view) {
  const std::int64_t start = now_ns();
  std::size_t bytes = 0;
  for (const std::string& domain : view.domains()) {
    const auto index = view.find_domain(domain);
    std::ostringstream out;
    if (index.has_value()) hv::report::render_domain_history(out, view, *index);
    bytes += out.str().size();
  }
  return bytes > 0 ? seconds_since(start) : 0.0;
}

void add(std::map<std::string, double>& to, const std::string& name,
         const std::map<std::string, double>& from, const std::string& key) {
  const auto it = from.find(key);
  to[name] += it == from.end() ? 0.0 : it->second;
}

/// Turns the traced replay's spans into the per-layer metrics.
void layer_metrics(const Tracer& setup, const Tracer& traced,
                   const Replay& replayed, double pass_wall_s,
                   double pass_cpu_s, int threads, Result& result) {
  std::map<std::string, double>& m = result.metrics;
  const std::map<std::string, double> setup_self = setup.self_seconds();
  add(m, "corpus.calibrate_s", setup_self, "corpus.calibrate");
  add(m, "ranking.population_s", setup_self, "ranking.population");
  add(m, "corpus.render_s", setup_self, "corpus.render");
  add(m, "archive.write_s", setup_self, "archive.write");

  const std::map<std::string, double> self = traced.self_seconds();
  add(m, "archive.cdx_load_s", self, "archive.cdx_load");
  add(m, "archive.read_s", self, "archive.read");
  m["archive.read_mb_per_s"] =
      m["archive.read_s"] > 0
          ? static_cast<double>(replayed.raw_bytes) / 1e6 / m["archive.read_s"]
          : 0;
  add(m, "net.http_parse_s", self, "net.http_parse");
  add(m, "html.parse_s", self, "html.parse");
  m["html.parse_mb_per_s"] =
      m["html.parse_s"] > 0
          ? static_cast<double>(replayed.body_bytes) / 1e6 / m["html.parse_s"]
          : 0;
  add(m, "core.rules_s", self, "core.rules");
  add(m, "mitigation.scan_s", self, "mitigation.scan");
  add(m, "store.add_s", self, "store.add");
  add(m, "store.seal_s", self, "store.seal");
  add(m, "store.csv_s", self, "store.csv");
  const std::map<std::string, double> total = traced.total_seconds();
  const double check_s = total.count("engine.check_document")
                             ? total.at("engine.check_document")
                             : 0.0;
  m["engine.check_us_p50"] = quantile(replayed.check_us, 0.5);
  m["engine.check_us_p99"] = quantile(replayed.check_us, 0.99);
  m["engine.overhead_s"] = check_s - (m["net.http_parse_s"] + m["html.parse_s"] +
                                      m["core.rules_s"] + m["mitigation.scan_s"]);

  // What the pipeline does per pass, one thread's worth: CDX, reads, the
  // whole check, the store.  Against the pass's own CPU and wall time.
  const double layers = m["archive.cdx_load_s"] + m["archive.read_s"] +
                        check_s + m["store.add_s"] + m["store.seal_s"] +
                        m["store.csv_s"];
  m["pipeline.layer_cpu_s"] = layers;
  m["pipeline.unattributed_s"] = pass_cpu_s - layers;
  m["pipeline.parallel_efficiency"] =
      pass_wall_s > 0 ? layers / (threads * pass_wall_s) : 0;

  m["count.records"] = static_cast<double>(replayed.records);
  m["count.pages_checked"] = static_cast<double>(replayed.checked);
  m["count.drop_http_error"] = static_cast<double>(replayed.drop_http);
  m["count.drop_non_html"] = static_cast<double>(replayed.drop_non_html);
  m["count.drop_non_utf8"] = static_cast<double>(replayed.drop_non_utf8);
  m["count.quarantined"] = static_cast<double>(replayed.quarantined);
  m["count.parse_errors"] = static_cast<double>(replayed.parse_errors);
  m["count.findings"] = static_cast<double>(replayed.findings);
}

/// What `hv serve --results` and its probe need: the sealed results
/// (<workdir>/results.hv), and a request pool (<workdir>/pool.bin) of
/// HTML pages from the corpus: a random sample of kPoolPages ("B"), the
/// kLargePages largest ("L"), and the domains the results know ("D").
void write_serve_inputs(const hv::store::StudyView& view,
                        const hv::corpus::Generator& generator,
                        const StudyOptions& options) {
  // Enough distinct bodies that no one page stays hot in a cache.
  constexpr std::size_t kPoolPages = 1500;
  // The corpus's own tail of large pages, not the single largest one.
  constexpr std::size_t kLargePages = 64;
  std::string error;
  if (!hv::store::save_results(view, options.workdir / "results.hv", &error)) {
    throw std::runtime_error("cannot save results: " + error);
  }
  std::vector<std::string> pages;
  for (std::size_t d = 0; d < generator.domains().size(); ++d) {
    for (int y = 0; y < kYearCount; ++y) {
      hv::corpus::DomainSnapshot snapshot = generator.domain_snapshot(d, y);
      for (hv::corpus::PageRecord& page : snapshot.pages) {
        if (page.content_type.rfind("text/html", 0) == 0) {
          pages.push_back(std::move(page.body));
        }
      }
    }
  }
  if (pages.empty()) throw std::runtime_error("the corpus has no HTML pages");
  std::ofstream pool(options.workdir / "pool.bin", std::ios::binary);
  std::mt19937_64 rng(options.seed ^ 0x5E5Eull);
  for (std::size_t i = 0; i < kPoolPages; ++i) {
    const std::string& body = pages[rng() % pages.size()];
    pool << "B " << body.size() << "\n" << body << "\n";
  }
  const std::size_t large = std::min(kLargePages, pages.size());
  std::partial_sort(pages.begin(), pages.begin() + static_cast<std::ptrdiff_t>(large),
                    pages.end(), [](const std::string& a, const std::string& b) {
                      return a.size() > b.size();
                    });
  for (std::size_t i = 0; i < large; ++i) {
    pool << "L " << pages[i].size() << "\n" << pages[i] << "\n";
  }
  for (const std::string& domain : view.domains()) {
    pool << "D " << domain << "\n";
  }
}

}  // namespace

Result study_setup(const StudyOptions& options) {
  Result result;
  const std::int64_t start = now_ns();
  hv::pipeline::StudyPipeline pipeline(pipeline_config(options));
  pipeline.build_archives();
  result.metrics["setup_s"] = seconds_since(start);
  result.attempted = 1;
  return result;
}

Result study_run(const StudyOptions& options) {
  Result result;
  const hv::pipeline::PipelineConfig config = pipeline_config(options);

  // Untraced, the archives come from study-setup and this process only
  // measures, so its peak RSS is the timed phase's.  Traced, set-up is
  // replayed here layer by layer.
  Tracer setup_tracer(options.trace);
  std::vector<std::string> ranked_domains;
  if (options.trace) traced_setup(options, setup_tracer, &ranked_domains);
  std::optional<hv::pipeline::StudyPipeline> pipeline;
  pipeline.emplace(config);
  if (options.trace && ranked_domains != pipeline->generator().domains()) {
    result.fail("ranking replay disagrees with the pipeline's population");
  }
  ranked_domains = pipeline->generator().domains();
  for (int y = 0; y < kYearCount; ++y) {
    if (!hv::archive::SnapshotStore(config.workdir).exists(label_of(y))) {
      throw std::runtime_error("no archives in " + config.workdir.string() +
                               "; run study-setup first");
    }
  }
  if (options.corrupt_rate > 0) corrupt_archives(options);

  // The first pass in a process is slower (allocator and page-cache
  // warm-up) and swings widely; it is run but not timed.
  timed_pass(config);
  std::vector<Pass> passes;
  // Peak RSS grows a little with every pass a process runs, so it is read
  // after a fixed number of passes, not after however many fit in the
  // time; the growth beyond is reported on its own.
  double fixed_rss_mb = 0.0;
  const std::int64_t measure_start = now_ns();
  while (static_cast<int>(passes.size()) < kMinPasses ||
         seconds_since(measure_start) < options.seconds) {
    passes.push_back(timed_pass(config));
    if (static_cast<int>(passes.size()) == kMinPasses) {
      fixed_rss_mb = peak_rss_mb();
    }
    const hv::pipeline::PipelineCounters& c = passes.back().counters;
    result.attempted += c.records_read + c.records_quarantined;
    result.failed += c.records_quarantined;
    if (passes.size() > 1) {
      compare_csv(passes.front().csv, passes.back().csv,
                  "pass " + std::to_string(passes.size()), result);
    }
  }
  result.metrics["peak_rss_mb"] = fixed_rss_mb;
  if (static_cast<int>(passes.size()) > kMinPasses) {
    result.metrics["study.rss_growth_mb_per_pass"] =
        (peak_rss_mb() - fixed_rss_mb) /
        static_cast<double>(static_cast<int>(passes.size()) - kMinPasses);
  }
  std::vector<double> wall;
  std::vector<double> pages_per_s;
  std::vector<double> cpu_per_kpage;
  for (const Pass& pass : passes) {
    const double pages = static_cast<double>(pass.counters.pages_checked);
    wall.push_back(pass.wall_s * 1e3);
    pages_per_s.push_back(pages / pass.wall_s);
    cpu_per_kpage.push_back(pass.cpu_s * 1e3 / (pages / 1e3));
  }
  result.metrics["study_pages_per_s"] = median(pages_per_s);
  result.metrics["study_cpu_ms_per_kpage"] = median(cpu_per_kpage);
  result.metrics["study.pass_ms_p50"] = median(wall);
  result.metrics["study.pass_ms_max"] = quantile(wall, 1.0);
  result.metrics["passes"] = static_cast<double>(passes.size());
  std::ostringstream pass_ms;
  for (const double ms : wall) pass_ms << (pass_ms.tellp() > 0 ? " " : "") << ms;
  result.facts["pass_ms"] = pass_ms.str();
  result.metrics["pages_per_pass"] =
      static_cast<double>(passes.front().counters.pages_checked);

  // Correctness: the archive holds the corpus byte for byte, and a
  // single-threaded replay of steps 1-4 writes the pipeline's CSV.
  check_payloads(config, pipeline->generator(), result);
  Tracer untraced(false);
  const Replay check = replay(config, ranked_domains, options.trace, untraced,
                              result);
  compare_csv(passes.front().csv, check.csv, "replay", result);
  if (check.checked != passes.front().counters.pages_checked) {
    result.fail("replay checked " + std::to_string(check.checked) +
                " pages, the pipeline " +
                std::to_string(passes.front().counters.pages_checked));
  }
  result.facts["csv_fnv64"] = fnv64_hex(passes.front().csv);

  if (options.trace) {
    Tracer traced(true);
    const Replay spanned = replay(config, ranked_domains, true, traced, result);
    compare_csv(passes.front().csv, spanned.csv, "traced replay", result);
    result.metrics["trace.overhead_s"] = spanned.wall_s - check.wall_s;
    result.metrics["trace.spans"] =
        static_cast<double>(traced.spans().size() + setup_tracer.spans().size());
    std::vector<double> cpu;
    for (const Pass& pass : passes) cpu.push_back(pass.cpu_s);
    layer_metrics(setup_tracer, traced, spanned, median(wall) / 1e3,
                  median(cpu), options.threads, result);
    codec_pass(config, result);
    result.metrics["store.query_s"] = query_pass(spanned.view);
    write_serve_inputs(spanned.view, pipeline->generator(), options);
    setup_tracer.write_jsonl(options.workdir / "spans_setup.jsonl");
    traced.write_jsonl(options.workdir / "spans_replay.jsonl");
  }
  return result;
}

}  // namespace perfbench
