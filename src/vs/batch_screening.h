// Batch-screening pipeline: the library-scale layer above
// VirtualScreeningEngine.
//
// Real deployments screen libraries of millions of ligands, not one
// receptor/ligand pair; this module admits a library in fixed-size batches,
// docks each ligand through the existing fault-tolerant sched layer, and
//
//   * retains only the top-N% hits with a streaming bounded heap, so
//     resident memory is O(retained) rather than O(library);
//   * streams every docked ligand to a JSONL file (one hit record per
//     line, flushed per batch), so partial progress survives a crash;
//   * resumes from that file: a re-run with `resume` re-reads the stream,
//     truncates a torn trailing line, feeds the recovered hits back into
//     the retention heap and docks only the ligands that are missing.
//     Run-level fault/energy/time aggregates count newly docked ligands
//     only — resumed records already paid their cost in the previous run.
//
// Batch boundaries are a pure function of (library size, batch_size), so a
// crashed-and-resumed run appends exactly the records the uninterrupted
// run would have written: the final JSONL stream is byte-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "vs/screening.h"

namespace metadock::vs {

struct BatchScreeningOptions {
  /// Ligands admitted per batch (>= 1).  The JSONL stream is flushed at
  /// every batch boundary, so this is also the crash-loss granularity.
  std::size_t batch_size = 64;
  /// Retention fraction in (0, 100]: only the best `top_percent` of the
  /// library (under hit_before) is kept in memory and returned.
  double top_percent = 100.0;
  /// JSONL stream path; empty keeps results in memory only (no resume).
  std::string hits_path;
  /// Re-read `hits_path` and skip ligands it already records.
  bool resume = false;
  /// Job label for per-job metrics ("vs.job.<name>.progress"); optional.
  std::string job_name;
  /// Observability sink (nullable = off): vs.batch.{admitted,completed,
  /// retained,resumed_skips} counters and the progress gauges.
  obs::Observer* observer = nullptr;
  /// Cooperative shutdown: polled before each batch.  When it returns true
  /// the in-flight batch finishes, the stream is flushed, and run()
  /// returns early with `interrupted` set — the SIGINT contract of
  /// `metadock serve`.
  std::function<bool()> should_stop;
};

struct BatchScreeningResult {
  /// Top-N% hits, best-first under hit_before.
  std::vector<LigandHit> retained;
  /// Ligands in the admitted library.
  std::size_t admitted = 0;
  /// Ligands with a result (newly docked + recovered on resume).
  std::size_t completed = 0;
  /// Ligands docked by this run.
  std::size_t newly_docked = 0;
  /// Ligands skipped because the resume stream already recorded them.
  std::size_t resumed_skips = 0;
  /// Torn/corrupt trailing JSONL lines discarded by the resume reader.
  std::size_t discarded_lines = 0;
  /// Heap capacity derived from top_percent (== retained.size() once the
  /// whole library completed).
  std::size_t retain_capacity = 0;
  /// True when run() returned before the library completed (stop
  /// request); the JSONL stream is still flushed and resumable.
  bool interrupted = false;
  /// Modeled cost and fault accounting for the ligands *this run* docked.
  /// Resumed records are excluded by design: their cost was accounted by
  /// the run that docked them, and re-adding it would double-count.
  double virtual_seconds = 0.0;
  double energy_joules = 0.0;
  sched::FaultReport faults;
};

/// Bounded best-K container with heap semantics: offer() is O(log K) and
/// keeps the K best hits seen so far under hit_before.  Because hit_before
/// is a strict total order (score, then ligand index), the retained set is
/// a pure function of the offered multiset — insertion order, batch size
/// and resume boundaries cannot change it.
class TopHitsRetainer {
 public:
  explicit TopHitsRetainer(std::size_t capacity) : capacity_(capacity) {}

  void offer(LigandHit hit);

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Extracts the retained hits, best-first; the retainer is left empty.
  [[nodiscard]] std::vector<LigandHit> take_sorted();

 private:
  std::size_t capacity_;
  /// Max-heap under hit_before: front() is the worst retained hit, the
  /// next to be displaced.
  std::vector<LigandHit> heap_;
};

/// Hits recovered from an interrupted run's JSONL stream.
struct ResumeState {
  std::vector<LigandHit> hits;
  /// Byte length of the valid prefix (the file is truncated to this before
  /// appending, so a torn final line cannot corrupt the stream).
  std::uint64_t valid_bytes = 0;
  /// Lines dropped at the tail (torn write or corruption).
  std::size_t discarded_lines = 0;
};

/// Parses a JSONL hit stream, stopping at the first torn/corrupt line.
/// A missing file, or a path that is not a regular file (a device), yields
/// an empty state.
[[nodiscard]] ResumeState read_jsonl_hits(const std::string& path);

/// Retention capacity for a library of `admitted` ligands at `top_percent`
/// (ceil, at least 1 for a non-empty library).
[[nodiscard]] std::size_t retain_capacity_for(std::size_t admitted, double top_percent);

class BatchScreener {
 public:
  /// `engine` must outlive the screener.  Throws std::invalid_argument on
  /// out-of-range batch_size/top_percent, and when resume is requested
  /// without a hits_path.
  BatchScreener(VirtualScreeningEngine& engine, BatchScreeningOptions options);

  /// Screens the library in batches; see the module comment for the
  /// streaming/resume contract.  Ligand i is docked with ligand_index i,
  /// exactly as VirtualScreeningEngine::screen does, so a full-retention
  /// batched run is bit-identical to screen().  Throws std::runtime_error
  /// naming the path and the OS error when a record or a flush of the
  /// stream fails (a full disk, say).
  [[nodiscard]] BatchScreeningResult run(const std::vector<mol::Molecule>& ligands);

  [[nodiscard]] const BatchScreeningOptions& options() const noexcept { return options_; }

 private:
  VirtualScreeningEngine& engine_;
  BatchScreeningOptions options_;
};

}  // namespace metadock::vs
