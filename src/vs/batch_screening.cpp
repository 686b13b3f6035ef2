#include "vs/batch_screening.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/json.h"
#include "vs/report.h"

namespace metadock::vs {
namespace {

/// Runs `write` on the hits stream, then throws naming `path` and the OS
/// error if the stream failed: a record the OS refused (ENOSPC, EIO) must
/// not count as emitted.
template <typename Write>
void write_or_throw(std::ofstream& out, const std::string& path, Write&& write) {
  errno = 0;
  write();
  if (!out) {
    const int err = errno;
    throw std::runtime_error("BatchScreener: cannot write " + path + ": " +
                             (err != 0 ? std::strerror(err) : "stream error"));
  }
}

}  // namespace

void TopHitsRetainer::offer(LigandHit hit) {
  if (capacity_ == 0) return;
  if (heap_.size() < capacity_) {
    heap_.push_back(std::move(hit));
    std::push_heap(heap_.begin(), heap_.end(), hit_before);
    return;
  }
  // Full: displace the worst retained hit iff the newcomer beats it.
  if (!hit_before(hit, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), hit_before);
  heap_.back() = std::move(hit);
  std::push_heap(heap_.begin(), heap_.end(), hit_before);
}

std::vector<LigandHit> TopHitsRetainer::take_sorted() {
  std::vector<LigandHit> out = std::move(heap_);
  heap_.clear();
  sort_hits(out);
  return out;
}

ResumeState read_jsonl_hits(const std::string& path) {
  ResumeState state;
  // Only a regular file holds records to resume: a device such as
  // /dev/full reads as an endless line of zero bytes.
  std::error_code ec;
  if (std::filesystem::exists(path, ec) && !std::filesystem::is_regular_file(path, ec)) {
    return state;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return state;  // nothing emitted yet: fresh start
  std::string line;
  std::uint64_t consumed = 0;
  bool tail_reached = false;
  while (std::getline(in, line)) {
    const bool complete = !in.eof();  // getline that hit EOF read a torn line
    const std::uint64_t line_bytes = line.size() + (complete ? 1 : 0);
    if (tail_reached || !complete) {
      ++state.discarded_lines;
      consumed += line_bytes;
      continue;
    }
    if (line.empty()) {  // blank separator lines are harmless
      consumed += line_bytes;
      state.valid_bytes = consumed;
      continue;
    }
    try {
      state.hits.push_back(hit_from_json(util::JsonValue::parse(line)));
      consumed += line_bytes;
      state.valid_bytes = consumed;
    } catch (const std::exception&) {
      // Torn or corrupt record: everything from here on is untrusted.
      // The stream is append-only, so corruption can only be a tail event;
      // the ligands behind the discarded lines are simply re-docked.
      ++state.discarded_lines;
      consumed += line_bytes;
      tail_reached = true;
    }
  }
  return state;
}

std::size_t retain_capacity_for(std::size_t admitted, double top_percent) {
  if (admitted == 0) return 0;
  const double raw = std::ceil(static_cast<double>(admitted) * top_percent / 100.0);
  const auto capacity = static_cast<std::size_t>(raw);
  return std::clamp<std::size_t>(capacity, 1, admitted);
}

BatchScreener::BatchScreener(VirtualScreeningEngine& engine, BatchScreeningOptions options)
    : engine_(engine), options_(std::move(options)) {
  if (options_.batch_size == 0) {
    throw std::invalid_argument("BatchScreener: batch_size must be >= 1");
  }
  if (!(options_.top_percent > 0.0) || options_.top_percent > 100.0) {
    throw std::invalid_argument("BatchScreener: top_percent must be in (0, 100]");
  }
  if (options_.resume && options_.hits_path.empty()) {
    throw std::invalid_argument("BatchScreener: resume requires a hits_path");
  }
}

BatchScreeningResult BatchScreener::run(const std::vector<mol::Molecule>& ligands) {
  BatchScreeningResult result;
  result.admitted = ligands.size();
  result.retain_capacity = retain_capacity_for(ligands.size(), options_.top_percent);
  TopHitsRetainer retainer(result.retain_capacity);
  std::vector<char> done(ligands.size(), 0);

  if (obs::Observer* o = options_.observer) {
    o->metrics.counter("vs.batch.admitted").add(static_cast<double>(ligands.size()));
  }

  // -- Resume: recover the valid prefix of the emitted stream. ------------
  if (options_.resume) {
    ResumeState recovered = read_jsonl_hits(options_.hits_path);
    result.discarded_lines = recovered.discarded_lines;
    for (LigandHit& hit : recovered.hits) {
      const std::size_t idx = hit.ligand_index;
      // Records outside the admitted library (job shrank) or duplicated
      // indices are ignored rather than trusted.
      if (idx >= ligands.size() || done[idx] != 0) continue;
      done[idx] = 1;
      ++result.resumed_skips;
      retainer.offer(std::move(hit));
    }
    if (obs::Observer* o = options_.observer) {
      o->metrics.counter("vs.batch.resumed_skips")
          .add(static_cast<double>(result.resumed_skips));
    }
    // Drop the torn tail so the stream stays parseable and the re-docked
    // records land exactly where the uninterrupted run would put them.
    if (recovered.valid_bytes > 0 || recovered.discarded_lines > 0) {
      std::error_code ec;
      if (std::filesystem::exists(options_.hits_path, ec)) {
        std::filesystem::resize_file(options_.hits_path, recovered.valid_bytes, ec);
        if (ec) {
          throw std::runtime_error("BatchScreener: cannot truncate " + options_.hits_path +
                                   ": " + ec.message());
        }
      }
    }
  }

  // -- Stream sink. -------------------------------------------------------
  std::ofstream out;
  if (!options_.hits_path.empty()) {
    out.open(options_.hits_path, std::ios::binary | std::ios::app);
    if (!out) {
      throw std::runtime_error("BatchScreener: cannot open " + options_.hits_path);
    }
  }

  const auto update_progress = [&](std::size_t completed_now) {
    if (obs::Observer* o = options_.observer) {
      const double fraction = ligands.empty() ? 1.0
                                              : static_cast<double>(completed_now) /
                                                    static_cast<double>(ligands.size());
      o->metrics.gauge("vs.batch.progress").set(fraction);
      if (!options_.job_name.empty()) {
        o->metrics.gauge("vs.job." + options_.job_name + ".progress").set(fraction);
      }
    }
  };

  // -- Batched docking loop.  Batch b always covers the same index range
  // regardless of how many of its ligands were recovered, so emitted
  // records are appended in global index order across crashes. ------------
  std::size_t completed = result.resumed_skips;
  // Rounds up without forming size + batch_size - 1, which wraps for a
  // batch_size near SIZE_MAX.
  const std::size_t n_batches = ligands.size() / options_.batch_size +
                                (ligands.size() % options_.batch_size != 0 ? 1 : 0);
  for (std::size_t b = 0; b < n_batches; ++b) {
    if (options_.should_stop && options_.should_stop()) {
      result.interrupted = true;
      break;
    }
    const std::size_t begin = b * options_.batch_size;
    const std::size_t end = std::min(begin + options_.batch_size, ligands.size());
    std::size_t batch_new = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (done[i] != 0) continue;
      LigandHit hit = engine_.dock(ligands[i], i);
      done[i] = 1;
      ++completed;
      ++result.newly_docked;
      ++batch_new;
      result.virtual_seconds += hit.virtual_seconds;
      result.energy_joules += hit.energy_joules;
      result.faults.merge(hit.faults);
      if (out.is_open()) {
        write_or_throw(out, options_.hits_path, [&] { out << hit_to_json_line(hit) << '\n'; });
      }
      retainer.offer(std::move(hit));
    }
    // Flush at the batch boundary: the crash-loss unit is one batch.
    if (batch_new > 0 && out.is_open()) {
      write_or_throw(out, options_.hits_path, [&] { out.flush(); });
    }
    if (obs::Observer* o = options_.observer) {
      o->metrics.counter("vs.batch.completed").add(static_cast<double>(batch_new));
    }
    update_progress(completed);
  }
  if (out.is_open()) write_or_throw(out, options_.hits_path, [&] { out.flush(); });

  result.completed = completed;
  result.retained = retainer.take_sorted();
  if (obs::Observer* o = options_.observer) {
    o->metrics.counter("vs.batch.retained").add(static_cast<double>(result.retained.size()));
  }
  update_progress(completed);
  return result;
}

}  // namespace metadock::vs
