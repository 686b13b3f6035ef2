// Long-running batch-screening service: the `metadock serve` loop.
//
// Jobs are small JSON files describing one screening campaign (receptor,
// library, metaheuristic, batching/retention, output stream).  The server
// accepts them from a watched directory (polled; lexicographic order, so
// producers control priority by filename) or from an stdin line protocol
// (one job-file path per line), and processes them strictly sequentially —
// each job already saturates the node through the fault-tolerant scheduler,
// so intra-job parallelism is where the hardware goes.
//
// Lifecycle: a directory job file is renamed to `<file>.done` on success
// and `<file>.failed` on error, with the error message in
// `<file>.failed.reason`, so a rescan never reprocesses it (a job whose
// rename fails is skipped for the rest of the serve run).  A job
// interrupted by the stop hook (SIGINT in the CLI) keeps its original name
// and its flushed JSONL stream; the next serve run picks it up again and
// the batch screener resumes from the stream.  Progress and throughput are
// reported through the obs metrics registry (vs.batch.* counters,
// vs.job.<name>.progress gauges, vs.serve.* job counters).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "util/sync.h"
#include "vs/batch_screening.h"

namespace metadock::vs {

/// One screening campaign, parsed from a job file.  Every field has a
/// usable default, so a minimal job file is just `{}`.
struct JobSpec {
  /// Job label (metrics, logs); defaults to the job-file stem.
  std::string name;
  /// Path of the job file this spec came from (set by parse_job_file).
  std::string job_path;

  // -- Library -----------------------------------------------------------
  std::size_t ligand_count = 16;
  std::size_t min_atoms = 20;
  std::size_t max_atoms = 60;
  std::uint64_t library_seed = 7;

  // -- Receptor: synthetic (receptor_atoms > 0) or a paper dataset. ------
  std::string dataset = "2BSM";  // "2BSM" | "2BXG"
  std::size_t receptor_atoms = 0;
  std::uint64_t receptor_seed = 1;

  // -- Engine ------------------------------------------------------------
  std::string mh = "M1";         // M1..M4 | SA | TS
  std::string node = "hertz";    // hertz | jupiter
  std::string strategy = "het";  // het | hom | cpu | coop
  double scale = 0.005;
  std::uint64_t seed = 42;
  /// Population per spot, in place of the metaheuristic preset's value.
  int population_per_spot = 16;

  // -- Batching / retention / stream -------------------------------------
  std::size_t batch_size = 64;
  double top_percent = 100.0;
  /// JSONL stream; empty defaults to `<job file>.hits.jsonl`.
  std::string hits_path;
  /// Jobs are resumable by default: an interrupted job restarts from its
  /// flushed stream instead of re-docking the whole library.
  bool resume = true;
};

/// Parses a job file.  Every key is optional, but a key the spec does not
/// define, a value of the wrong type or one out of range throws
/// std::invalid_argument naming the key.  Malformed JSON throws
/// util::JsonParseError; an unreadable file or a non-object document
/// std::runtime_error.
[[nodiscard]] JobSpec parse_job_file(const std::string& path);

struct JobServerOptions {
  /// Watched directory for `*.job.json` files (directory mode).
  std::string jobs_dir;
  /// Exit once a scan finds no pending jobs (instead of polling forever).
  bool drain = false;
  /// Sleep between directory scans.  Pure duration — the server never
  /// reads a wall clock, so job processing stays deterministic.
  int poll_ms = 200;
  /// Stop after this many processed jobs (0 = unlimited).
  std::size_t max_jobs = 0;
  obs::Observer* observer = nullptr;
  /// Cooperative shutdown hook, forwarded into the batch screener: polled
  /// between jobs and between batches, so SIGINT finishes the in-flight
  /// batch, flushes the stream, and returns.
  std::function<bool()> should_stop;
  /// Sink for human-readable per-job progress lines (nullable = silent).
  std::ostream* log = nullptr;
};

struct JobOutcome {
  std::string name;
  std::string job_path;
  std::string hits_path;
  bool ok = false;
  /// True when the stop hook fired mid-job; the job file keeps its name
  /// and the next run resumes it.
  bool interrupted = false;
  std::string error;
  BatchScreeningResult result;
};

class JobServer {
 public:
  explicit JobServer(JobServerOptions options);

  /// Directory mode: scan, process, rename; repeat until drained (drain
  /// mode), stopped, or max_jobs is reached.
  std::vector<JobOutcome> serve_directory();

  /// Stdin protocol: one job-file path per line (blank lines ignored);
  /// returns at EOF, stop, or max_jobs.
  std::vector<JobOutcome> serve_stream(std::istream& in);

  /// Processes one job file end-to-end (parse, screen, rename).  Never
  /// throws: failures are reported in the outcome.
  [[nodiscard]] JobOutcome process_job(const std::string& path);

 private:
  [[nodiscard]] JobOutcome process_job_impl(const std::string& path) REQUIRES(serial_);

  [[nodiscard]] bool stop_requested() const REQUIRES(serial_) {
    return options_.should_stop && options_.should_stop();
  }

  /// Pending job files in `jobs_dir`, lexicographically sorted.
  [[nodiscard]] std::vector<std::string> scan_jobs_dir() const REQUIRES(serial_);

  /// Single-owner role (DESIGN.md §16): one serve loop drives the server,
  /// each public entry point claims the role for its duration.
  mutable util::Serial serial_;
  JobServerOptions options_ GUARDED_BY(serial_);
};

}  // namespace metadock::vs
