// Job-file parsing and the `metadock serve` loop: directory lifecycle
// (.done / .failed renames), the stdin protocol, cooperative shutdown, and
// server-level resume of an interrupted job.
#include "vs/job_server.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "vs/batch_screening.h"

namespace metadock::vs {
namespace {

namespace fs = std::filesystem;

/// Fresh empty directory under the gtest temp dir.
fs::path temp_dir(const std::string& name) {
  static int counter = 0;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("metadock_serve_" + std::to_string(counter++) + "_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const fs::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// A tiny job that docks quickly: 3 ligands of 8-14 atoms at scale 0.002.
std::string tiny_job_json(const std::string& extra = "") {
  return std::string("{\"ligands\": 3, \"min_atoms\": 8, \"max_atoms\": 14, "
                     "\"receptor_atoms\": 300, \"scale\": 0.002, \"batch_size\": 2, "
                     "\"population_per_spot\": 8" +
                     (extra.empty() ? "" : ", " + extra) + "}");
}

// ---------------------------------------------------------------------------
// parse_job_file
// ---------------------------------------------------------------------------

TEST(JobSpecParse, DefaultsFillEveryField) {
  const fs::path dir = temp_dir("defaults");
  const fs::path path = dir / "alpha.job.json";
  write_file(path, "{}");
  const JobSpec spec = parse_job_file(path.string());
  EXPECT_EQ(spec.name, "alpha");  // derived from the stem, .job.json stripped
  EXPECT_EQ(spec.job_path, path.string());
  EXPECT_EQ(spec.ligand_count, 16u);
  EXPECT_EQ(spec.min_atoms, 20u);
  EXPECT_EQ(spec.max_atoms, 60u);
  EXPECT_EQ(spec.dataset, "2BSM");
  EXPECT_EQ(spec.receptor_atoms, 0u);
  EXPECT_EQ(spec.mh, "M1");
  EXPECT_EQ(spec.node, "hertz");
  EXPECT_EQ(spec.strategy, "het");
  EXPECT_EQ(spec.batch_size, 64u);
  EXPECT_DOUBLE_EQ(spec.top_percent, 100.0);
  EXPECT_EQ(spec.hits_path, path.string() + ".hits.jsonl");
  EXPECT_TRUE(spec.resume);
}

TEST(JobSpecParse, OverridesAreHonoured) {
  const fs::path dir = temp_dir("overrides");
  const fs::path path = dir / "beta.job.json";
  write_file(path,
             "{\"name\": \"custom\", \"ligands\": 5, \"min_atoms\": 6, \"max_atoms\": 9, "
             "\"library_seed\": 99, \"dataset\": \"2BXG\", \"mh\": \"M4\", "
             "\"node\": \"jupiter\", \"strategy\": \"cpu\", \"scale\": 0.25, "
             "\"seed\": 17, \"batch_size\": 2, \"top_percent\": 40.0, "
             "\"hits\": \"custom.jsonl\", \"resume\": false}");
  const JobSpec spec = parse_job_file(path.string());
  EXPECT_EQ(spec.name, "custom");
  EXPECT_EQ(spec.ligand_count, 5u);
  EXPECT_EQ(spec.min_atoms, 6u);
  EXPECT_EQ(spec.max_atoms, 9u);
  EXPECT_EQ(spec.library_seed, 99u);
  EXPECT_EQ(spec.dataset, "2BXG");
  EXPECT_EQ(spec.mh, "M4");
  EXPECT_EQ(spec.node, "jupiter");
  EXPECT_EQ(spec.strategy, "cpu");
  EXPECT_DOUBLE_EQ(spec.scale, 0.25);
  EXPECT_EQ(spec.seed, 17u);
  EXPECT_EQ(spec.batch_size, 2u);
  EXPECT_DOUBLE_EQ(spec.top_percent, 40.0);
  EXPECT_EQ(spec.hits_path, "custom.jsonl");
  EXPECT_FALSE(spec.resume);
}

TEST(JobSpecParse, RejectsMissingAndMalformedAndOutOfRange) {
  const fs::path dir = temp_dir("bad");
  EXPECT_THROW((void)parse_job_file((dir / "absent.job.json").string()), std::runtime_error);

  const fs::path malformed = dir / "malformed.job.json";
  write_file(malformed, "{\"ligands\": ");
  EXPECT_THROW((void)parse_job_file(malformed.string()), util::JsonParseError);

  const fs::path not_object = dir / "array.job.json";
  write_file(not_object, "[1, 2]");
  EXPECT_THROW((void)parse_job_file(not_object.string()), std::runtime_error);

  const fs::path zero = dir / "zero.job.json";
  write_file(zero, "{\"ligands\": 0}");
  EXPECT_THROW((void)parse_job_file(zero.string()), std::invalid_argument);

  const fs::path atoms = dir / "atoms.job.json";
  write_file(atoms, "{\"min_atoms\": 10, \"max_atoms\": 5}");
  EXPECT_THROW((void)parse_job_file(atoms.string()), std::invalid_argument);

  // Out-of-range, wrongly typed and unknown keys: each is rejected with an
  // error that names the key.
  const std::pair<const char*, const char*> bad_keys[] = {
      {"{\"ligands\": 1, \"population_per_spot\": 1e20, \"scale\": 0.001}",
       "population_per_spot"},
      {"{\"population_per_spot\": -4}", "population_per_spot"},
      {"{\"population_per_spot\": 0}", "population_per_spot"},
      {"{\"population_per_spot\": 2.5}", "population_per_spot"},
      {"{\"population_per_spot\": 2147483648}", "population_per_spot"},
      {"{\"ligands\": 1e20}", "ligands"},
      {"{\"ligands\": \"5\"}", "ligands"},
      {"{\"seed\": -1}", "seed"},
      {"{\"name\": 5}", "name"},
      {"{\"scale\": \"0.5\"}", "scale"},
      {"{\"resume\": \"yes\"}", "resume"},
      {"{\"hits\": null}", "hits"},
      {"{\"mh\": \"M9\"}", "mh"},
      {"{\"ligands\": 2, \"top_pct\": 5}", "top_pct"},
      {"{\"count\": -3, \"receptor\": \"/nonexistent.pdb\"}", "count"},
      {"{\"receptor\": \"/nonexistent.pdb\"}", "receptor"},
  };
  const fs::path bad = dir / "bad.job.json";
  for (const auto& [json, key] : bad_keys) {
    write_file(bad, json);
    try {
      (void)parse_job_file(bad.string());
      ADD_FAILURE() << json << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("\"") + key + "\""), std::string::npos)
          << json << ": " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// serve_directory
// ---------------------------------------------------------------------------

TEST(JobServer, DrainProcessesAllJobsAndRenamesDone) {
  const fs::path dir = temp_dir("drain");
  write_file(dir / "a.job.json", tiny_job_json());
  write_file(dir / "b.job.json", tiny_job_json("\"top_percent\": 50.0"));
  write_file(dir / "notes.txt", "not a job");  // must be ignored

  obs::Observer observer;
  JobServerOptions options;
  options.jobs_dir = dir.string();
  options.drain = true;
  options.observer = &observer;
  JobServer server(options);
  const std::vector<JobOutcome> outcomes = server.serve_directory();

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].name, "a");  // lexicographic order
  EXPECT_EQ(outcomes[1].name, "b");
  for (const JobOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_FALSE(outcome.interrupted);
    EXPECT_EQ(outcome.result.completed, 3u);
    EXPECT_TRUE(fs::exists(outcome.hits_path));
    EXPECT_FALSE(fs::exists(outcome.job_path));
    EXPECT_TRUE(fs::exists(outcome.job_path + ".done"));
  }
  EXPECT_EQ(outcomes[0].result.retained.size(), 3u);
  EXPECT_EQ(outcomes[1].result.retained.size(), 2u);  // ceil(3 * 50%)
  EXPECT_TRUE(fs::exists(dir / "notes.txt"));
  EXPECT_DOUBLE_EQ(observer.metrics.counter("vs.serve.jobs_completed").value(), 2.0);
}

TEST(JobServer, FailingJobIsRenamedFailedAndCounted) {
  const fs::path dir = temp_dir("fail");
  write_file(dir / "bad.job.json", "{\"mh\": \"M9\"}");
  write_file(dir / "good.job.json", tiny_job_json());

  obs::Observer observer;
  JobServerOptions options;
  options.jobs_dir = dir.string();
  options.drain = true;
  options.observer = &observer;
  JobServer server(options);
  const std::vector<JobOutcome> outcomes = server.serve_directory();

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("M9"), std::string::npos);
  EXPECT_TRUE(fs::exists(dir / "bad.job.json.failed"));  // never reprocessed
  EXPECT_NE(read_file(dir / "bad.job.json.failed.reason").find("M9"), std::string::npos);
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_TRUE(fs::exists(dir / "good.job.json.done"));
  EXPECT_DOUBLE_EQ(observer.metrics.counter("vs.serve.jobs_failed").value(), 1.0);
  EXPECT_DOUBLE_EQ(observer.metrics.counter("vs.serve.jobs_completed").value(), 1.0);
}

// A job whose rename fails keeps its name; the drain must not take it
// again and again.  A non-empty directory in the way of the rename makes it
// fail even for root.
TEST(JobServer, DrainTakesAJobThatCannotBeRenamedOnce) {
  const fs::path dir = temp_dir("stuck");
  write_file(dir / "bad.job.json", "{\"mh\": \"M9\"}");
  fs::create_directories(dir / "bad.job.json.failed");
  write_file(dir / "bad.job.json.failed" / "keep", "");

  std::ostringstream log;
  JobServerOptions options;
  options.jobs_dir = dir.string();
  options.drain = true;
  options.max_jobs = 3;
  options.log = &log;
  JobServer server(options);
  const std::vector<JobOutcome> outcomes = server.serve_directory();

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_TRUE(fs::exists(dir / "bad.job.json"));
  EXPECT_NE(log.str().find("cannot rename to .failed"), std::string::npos) << log.str();
  EXPECT_NE(read_file(dir / "bad.job.json.failed.reason").find("M9"), std::string::npos);
}

TEST(JobServer, JobWhoseStreamCannotBeWrittenFails) {
  // Every hit record is lost to ENOSPC on /dev/full, so the job must be
  // renamed .failed with the reason beside it, never .done.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  const fs::path dir = temp_dir("full");
  write_file(dir / "full.job.json", tiny_job_json("\"hits\": \"/dev/full\", \"resume\": false"));

  JobServerOptions options;
  options.jobs_dir = dir.string();
  options.drain = true;
  JobServer server(options);
  const std::vector<JobOutcome> outcomes = server.serve_directory();

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_FALSE(fs::exists(dir / "full.job.json.done"));
  EXPECT_TRUE(fs::exists(dir / "full.job.json.failed"));
  EXPECT_NE(read_file(dir / "full.job.json.failed.reason").find("/dev/full"), std::string::npos);
}

TEST(JobServer, MaxJobsStopsEarly) {
  const fs::path dir = temp_dir("maxjobs");
  write_file(dir / "a.job.json", tiny_job_json());
  write_file(dir / "b.job.json", tiny_job_json());
  JobServerOptions options;
  options.jobs_dir = dir.string();
  options.drain = true;
  options.max_jobs = 1;
  JobServer server(options);
  const std::vector<JobOutcome> outcomes = server.serve_directory();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(fs::exists(dir / "a.job.json.done"));
  EXPECT_TRUE(fs::exists(dir / "b.job.json"));  // untouched, next run's work
}

TEST(JobServer, StopHookPreventsFurtherJobs) {
  const fs::path dir = temp_dir("stop");
  write_file(dir / "a.job.json", tiny_job_json());
  write_file(dir / "b.job.json", tiny_job_json());
  JobServerOptions options;
  options.jobs_dir = dir.string();
  options.drain = true;
  int calls = 0;
  // Polls 1-3 (serve loop, pre-job check, batch 0) pass; poll 4 — the
  // batch screener's check before batch 1 — requests stop.  Job a finishes
  // its in-flight batch, flushes, and reports interrupted; job b never runs.
  options.should_stop = [&calls] { return ++calls > 3; };
  JobServer server(options);
  const std::vector<JobOutcome> outcomes = server.serve_directory();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].interrupted);
  EXPECT_TRUE(fs::exists(dir / "a.job.json"));  // kept for resume
  EXPECT_TRUE(fs::exists(dir / "b.job.json"));  // never started
}

// The serve-level resume contract: an interrupted job keeps its file and
// its flushed stream; the next serve run resumes it and finishes with the
// same hits an uninterrupted run produces.
TEST(JobServer, InterruptedJobResumesOnNextRun) {
  // Reference: the same job, uninterrupted.
  const fs::path ref_dir = temp_dir("resume_ref");
  write_file(ref_dir / "job.job.json", tiny_job_json());
  JobServerOptions ref_options;
  ref_options.jobs_dir = ref_dir.string();
  ref_options.drain = true;
  JobServer ref_server(ref_options);
  const std::vector<JobOutcome> ref = ref_server.serve_directory();
  ASSERT_EQ(ref.size(), 1u);
  ASSERT_TRUE(ref[0].ok);

  const fs::path dir = temp_dir("resume");
  write_file(dir / "job.job.json", tiny_job_json());

  // Run 1: stop after the first batch-boundary poll — SIGINT mid-job.
  {
    JobServerOptions options;
    options.jobs_dir = dir.string();
    options.drain = true;
    int polls = 0;
    // Stop at the screener's pre-batch-1 poll (serve loop + pre-job check
    // + batch 0 account for the first three), so exactly one batch lands.
    options.should_stop = [&polls] { return ++polls > 3; };
    JobServer server(options);
    const std::vector<JobOutcome> outcomes = server.serve_directory();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].interrupted);
    EXPECT_EQ(outcomes[0].result.newly_docked, 2u);  // one flushed batch
    EXPECT_TRUE(fs::exists(dir / "job.job.json"));
  }

  // Run 2: no stop hook; the job resumes from its stream and completes.
  obs::Observer observer;
  JobServerOptions options;
  options.jobs_dir = dir.string();
  options.drain = true;
  options.observer = &observer;
  JobServer server(options);
  const std::vector<JobOutcome> outcomes = server.serve_directory();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[0].interrupted);
  EXPECT_EQ(outcomes[0].result.resumed_skips, 2u);
  EXPECT_EQ(outcomes[0].result.newly_docked, 1u);
  EXPECT_EQ(outcomes[0].result.completed, 3u);
  EXPECT_TRUE(fs::exists(dir / "job.job.json.done"));
  EXPECT_DOUBLE_EQ(observer.metrics.counter("vs.batch.resumed_skips").value(), 2.0);

  // Same hit list as the uninterrupted reference, bit for bit.
  const auto& got = outcomes[0].result.retained;
  const auto& want = ref[0].result.retained;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ligand_index, want[i].ligand_index);
    EXPECT_EQ(got[i].best_score, want[i].best_score);
  }
}

// ---------------------------------------------------------------------------
// serve_stream
// ---------------------------------------------------------------------------

TEST(JobServer, StreamProtocolProcessesPathsPerLine) {
  const fs::path dir = temp_dir("stream");
  write_file(dir / "one.job.json", tiny_job_json());
  write_file(dir / "two.job.json", tiny_job_json());
  std::istringstream in("  " + (dir / "one.job.json").string() + "  \n" +  // padded
                        "\n" +                                             // blank: skipped
                        (dir / "two.job.json").string() + "\n");
  JobServer server({});
  const std::vector<JobOutcome> outcomes = server.serve_stream(in);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].name, "one");
  EXPECT_EQ(outcomes[1].name, "two");
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_TRUE(fs::exists(dir / "one.job.json.done"));
  EXPECT_TRUE(fs::exists(dir / "two.job.json.done"));
}

TEST(JobServer, StreamReportsMissingJobAsFailure) {
  std::istringstream in("/nonexistent/path.job.json\n");
  JobServer server({});
  const std::vector<JobOutcome> outcomes = server.serve_stream(in);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[0].error.empty());
}

TEST(JobServer, RejectsNegativePollInterval) {
  JobServerOptions options;
  options.poll_ms = -1;
  EXPECT_THROW(JobServer server(options), std::invalid_argument);
}

}  // namespace
}  // namespace metadock::vs
