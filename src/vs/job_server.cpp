#include "vs/job_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "mol/library.h"
#include "mol/synth.h"
#include "util/json.h"
#include "vs/names.h"

namespace metadock::vs {

namespace fs = std::filesystem;

namespace {

constexpr const char* kJobSuffix = ".job.json";

[[noreturn]] void reject(const std::string& key, const std::string& why) {
  throw std::invalid_argument("job: \"" + key + "\" " + why);
}

/// Largest integer a JSON number (a double) carries exactly: 2^53.
constexpr std::uint64_t kMaxExactInteger = std::uint64_t{1} << 53;

/// `value` as an integer in [lo, hi].  The range is checked on the double:
/// casting one outside the target type is undefined.
std::uint64_t integer_of(const std::string& key, const util::JsonValue& value, std::uint64_t lo,
                         std::uint64_t hi) {
  const double x = value.is_number() ? value.as_double() : -1.0;
  if (!value.is_number() || !(x >= static_cast<double>(lo) && x <= static_cast<double>(hi)) ||
      std::trunc(x) != x) {
    reject(key, "must be an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<std::uint64_t>(x);
}

const std::string& string_of(const std::string& key, const util::JsonValue& value) {
  if (!value.is_string()) reject(key, "must be a string");
  return value.as_string();
}

double number_of(const std::string& key, const util::JsonValue& value) {
  if (!value.is_number()) reject(key, "must be a number");
  return value.as_double();
}

bool bool_of(const std::string& key, const util::JsonValue& value) {
  if (!value.is_bool()) reject(key, "must be true or false");
  return value.as_bool();
}

}  // namespace

JobSpec parse_job_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("job: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const util::JsonValue doc = util::JsonValue::parse(buffer.str());
  if (!doc.is_object()) throw std::runtime_error("job: " + path + " is not a JSON object");

  JobSpec spec;
  spec.job_path = path;
  std::string stem = fs::path(path).filename().string();
  if (stem.size() > std::strlen(kJobSuffix) &&
      stem.compare(stem.size() - std::strlen(kJobSuffix), std::string::npos, kJobSuffix) == 0) {
    stem.resize(stem.size() - std::strlen(kJobSuffix));
  } else {
    stem = fs::path(path).stem().string();
  }
  spec.name = stem;

  for (const auto& [key, value] : doc.as_object()) {
    const auto count = [&] { return integer_of(key, value, 0, kMaxExactInteger); };
    if (key == "name") {
      spec.name = string_of(key, value);
    } else if (key == "ligands") {
      spec.ligand_count = integer_of(key, value, 1, kMaxExactInteger);
    } else if (key == "min_atoms") {
      spec.min_atoms = count();
    } else if (key == "max_atoms") {
      spec.max_atoms = count();
    } else if (key == "library_seed") {
      spec.library_seed = count();
    } else if (key == "dataset") {
      spec.dataset = string_of(key, value);
    } else if (key == "receptor_atoms") {
      spec.receptor_atoms = count();
    } else if (key == "receptor_seed") {
      spec.receptor_seed = count();
    } else if (key == "mh") {
      spec.mh = string_of(key, value);
    } else if (key == "node") {
      spec.node = string_of(key, value);
    } else if (key == "strategy") {
      spec.strategy = string_of(key, value);
    } else if (key == "scale") {
      spec.scale = number_of(key, value);
    } else if (key == "seed") {
      spec.seed = count();
    } else if (key == "population_per_spot") {
      spec.population_per_spot = static_cast<int>(
          integer_of(key, value, 1, static_cast<std::uint64_t>(std::numeric_limits<int>::max())));
    } else if (key == "batch_size") {
      spec.batch_size = count();
    } else if (key == "top_percent") {
      spec.top_percent = number_of(key, value);
    } else if (key == "hits") {
      spec.hits_path = string_of(key, value);
    } else if (key == "resume") {
      spec.resume = bool_of(key, value);
    } else {
      reject(key, "is not a job key");
    }
  }
  if (spec.hits_path.empty()) spec.hits_path = path + ".hits.jsonl";

  if (spec.min_atoms < 4 || spec.max_atoms < spec.min_atoms) {
    throw std::invalid_argument("job: need 4 <= \"min_atoms\" <= \"max_atoms\"");
  }
  try {
    (void)dataset_from(spec.dataset);
    (void)node_from(spec.node);
    (void)strategy_from(spec.strategy);
    (void)mh_from(spec.mh);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("job: ") + e.what());
  }
  return spec;
}

JobServer::JobServer(JobServerOptions options) : options_(std::move(options)) {
  const util::ScopedSerial own(serial_);
  if (options_.poll_ms < 0) throw std::invalid_argument("JobServer: poll_ms must be >= 0");
}

std::vector<std::string> JobServer::scan_jobs_dir() const {
  std::vector<std::string> pending;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(options_.jobs_dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > std::strlen(kJobSuffix) &&
        name.compare(name.size() - std::strlen(kJobSuffix), std::string::npos, kJobSuffix) ==
            0) {
      pending.push_back(entry.path().string());
    }
  }
  if (ec) throw std::runtime_error("JobServer: cannot scan " + options_.jobs_dir + ": " +
                                   ec.message());
  std::sort(pending.begin(), pending.end());
  return pending;
}

JobOutcome JobServer::process_job(const std::string& path) {
  const util::ScopedSerial own(serial_);
  return process_job_impl(path);
}

JobOutcome JobServer::process_job_impl(const std::string& path) {
  JobOutcome outcome;
  outcome.job_path = path;
  try {
    const JobSpec spec = parse_job_file(path);
    outcome.name = spec.name;
    outcome.hits_path = spec.hits_path;
    if (options_.log != nullptr) {
      *options_.log << "job " << spec.name << ": " << spec.ligand_count << " ligands, batch "
                    << spec.batch_size << ", top " << spec.top_percent << "%"
                    << (spec.resume ? ", resumable" : "") << "\n";
    }

    const mol::Molecule receptor = [&spec] {
      if (spec.receptor_atoms > 0) {
        mol::ReceptorParams rp;
        rp.atom_count = spec.receptor_atoms;
        rp.seed = spec.receptor_seed;
        return mol::make_receptor(rp);
      }
      return mol::make_dataset_receptor(dataset_from(spec.dataset));
    }();

    mol::LibraryParams lib;
    lib.count = spec.ligand_count;
    lib.min_atoms = spec.min_atoms;
    lib.max_atoms = spec.max_atoms;
    lib.seed = spec.library_seed;
    const std::vector<mol::Molecule> ligands = mol::make_ligand_library(lib);

    ScreeningOptions screening;
    screening.params = mh_from(spec.mh);
    screening.params.population_per_spot = spec.population_per_spot;
    screening.exec.strategy = strategy_from(spec.strategy);
    screening.exec.observer = options_.observer;
    screening.scale = spec.scale;
    screening.seed = spec.seed;
    VirtualScreeningEngine engine(receptor, node_from(spec.node), screening);

    BatchScreeningOptions batch;
    batch.batch_size = spec.batch_size;
    batch.top_percent = spec.top_percent;
    batch.hits_path = spec.hits_path;
    batch.resume = spec.resume;
    batch.job_name = spec.name;
    batch.observer = options_.observer;
    batch.should_stop = options_.should_stop;
    BatchScreener screener(engine, batch);
    outcome.result = screener.run(ligands);
    outcome.interrupted = outcome.result.interrupted;
    outcome.ok = true;

    std::error_code ec;
    if (outcome.interrupted) {
      // Keep the job file: the next serve run resumes it from the stream.
      if (options_.log != nullptr) {
        *options_.log << "job " << spec.name << ": interrupted after "
                      << outcome.result.completed << "/" << outcome.result.admitted
                      << " ligands (stream flushed, job kept for resume)\n";
      }
    } else {
      fs::rename(path, path + ".done", ec);
      if (ec && options_.log != nullptr) {
        *options_.log << "job " << spec.name << ": warning: cannot rename to .done: "
                      << ec.message() << "\n";
      }
      if (options_.log != nullptr) {
        *options_.log << "job " << spec.name << ": done — " << outcome.result.retained.size()
                      << "/" << outcome.result.admitted << " hits retained";
        if (outcome.result.resumed_skips > 0) {
          *options_.log << " (" << outcome.result.resumed_skips << " resumed)";
        }
        *options_.log << ", " << outcome.hits_path << "\n";
      }
    }
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
    const std::string& label = outcome.name.empty() ? path : outcome.name;
    std::ofstream reason(path + ".failed.reason", std::ios::binary);
    reason << outcome.error << "\n";
    if (!reason && options_.log != nullptr) {
      *options_.log << "job " << label << ": warning: cannot write .failed.reason\n";
    }
    std::error_code ec;
    fs::rename(path, path + ".failed", ec);  // never reprocess a bad job
    if (ec && options_.log != nullptr) {
      *options_.log << "job " << label << ": warning: cannot rename to .failed: " << ec.message()
                    << "\n";
    }
    if (options_.log != nullptr) {
      *options_.log << "job " << label << ": FAILED: " << outcome.error << "\n";
    }
  }
  if (obs::Observer* o = options_.observer) {
    o->metrics.counter(outcome.ok ? "vs.serve.jobs_completed" : "vs.serve.jobs_failed").add();
  }
  return outcome;
}

std::vector<JobOutcome> JobServer::serve_directory() {
  const util::ScopedSerial own(serial_);
  if (options_.jobs_dir.empty()) {
    throw std::invalid_argument("JobServer: directory mode needs jobs_dir");
  }
  std::vector<JobOutcome> outcomes;
  // Finished jobs whose file kept its name because the rename failed: a
  // rescan would take them again, so this run skips them.
  std::set<std::string> stuck;
  while (!stop_requested()) {
    std::vector<std::string> pending = scan_jobs_dir();
    std::erase_if(pending, [&stuck](const std::string& path) { return stuck.contains(path); });
    if (pending.empty()) {
      if (options_.drain) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
      continue;
    }
    for (const std::string& path : pending) {
      if (stop_requested()) return outcomes;
      outcomes.push_back(process_job_impl(path));
      if (outcomes.back().interrupted) return outcomes;
      std::error_code ec;
      if (fs::exists(path, ec)) stuck.insert(path);
      if (options_.max_jobs != 0 && outcomes.size() >= options_.max_jobs) return outcomes;
    }
  }
  return outcomes;
}

std::vector<JobOutcome> JobServer::serve_stream(std::istream& in) {
  const util::ScopedSerial own(serial_);
  std::vector<JobOutcome> outcomes;
  std::string line;
  while (!stop_requested() && std::getline(in, line)) {
    // Trim whitespace; blank lines keep the protocol newline-tolerant.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    const std::string path = line.substr(first, last - first + 1);
    outcomes.push_back(process_job_impl(path));
    if (outcomes.back().interrupted) break;
    if (options_.max_jobs != 0 && outcomes.size() >= options_.max_jobs) break;
  }
  return outcomes;
}

}  // namespace metadock::vs
