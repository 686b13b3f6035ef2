// Batch-screening pipeline: top-N% retention, JSONL streaming, and the
// crash/resume contract (byte-identical stream, bit-identical hit lists,
// no double-counted cost).
#include "vs/batch_screening.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mol/library.h"
#include "mol/synth.h"
#include "vs/report.h"

namespace metadock::vs {
namespace {

namespace fs = std::filesystem;

const mol::Molecule& receptor() {
  static const mol::Molecule r = [] {
    mol::ReceptorParams p;
    p.atom_count = 350;
    p.seed = 31;
    return mol::make_receptor(p);
  }();
  return r;
}

ScreeningOptions fast_options() {
  ScreeningOptions o;
  o.params = meta::m3_scatter_light();
  o.params.population_per_spot = 8;
  o.params.generations = 200;
  o.scale = 0.01;
  return o;
}

std::vector<mol::Molecule> small_library(std::size_t n) {
  mol::LibraryParams p;
  p.count = n;
  p.min_atoms = 8;
  p.max_atoms = 16;
  return make_ligand_library(p);
}

/// Unique path inside the gtest temp dir.
std::string temp_path(const std::string& name) {
  static int counter = 0;
  return (fs::path(::testing::TempDir()) / ("metadock_batch_" + std::to_string(counter++) +
                                            "_" + name))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Bitwise hit equality (every field the JSONL record carries).
void expect_hits_bitwise_equal(const std::vector<LigandHit>& a,
                               const std::vector<LigandHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ligand_index, b[i].ligand_index) << i;
    EXPECT_EQ(a[i].ligand_name, b[i].ligand_name) << i;
    EXPECT_EQ(a[i].best_score, b[i].best_score) << i;
    EXPECT_EQ(a[i].best_spot_id, b[i].best_spot_id) << i;
    EXPECT_EQ(a[i].best_pose.position.x, b[i].best_pose.position.x) << i;
    EXPECT_EQ(a[i].best_pose.position.y, b[i].best_pose.position.y) << i;
    EXPECT_EQ(a[i].best_pose.position.z, b[i].best_pose.position.z) << i;
    EXPECT_EQ(a[i].best_pose.orientation.w, b[i].best_pose.orientation.w) << i;
    EXPECT_EQ(a[i].best_pose.orientation.x, b[i].best_pose.orientation.x) << i;
    EXPECT_EQ(a[i].virtual_seconds, b[i].virtual_seconds) << i;
    EXPECT_EQ(a[i].energy_joules, b[i].energy_joules) << i;
    EXPECT_EQ(a[i].faults.devices_lost, b[i].faults.devices_lost) << i;
    EXPECT_EQ(a[i].faults.transient_faults, b[i].faults.transient_faults) << i;
  }
}

// ---------------------------------------------------------------------------
// TopHitsRetainer
// ---------------------------------------------------------------------------

LigandHit hit_of(std::size_t index, double score) {
  LigandHit h;
  h.ligand_index = index;
  h.best_score = score;
  return h;
}

TEST(TopHitsRetainer, KeepsTheKBestUnderTotalOrder) {
  TopHitsRetainer r(3);
  for (double s : {5.0, -1.0, 3.0, -4.0, 2.0, 0.0}) {
    r.offer(hit_of(static_cast<std::size_t>(s + 10), s));
  }
  EXPECT_EQ(r.size(), 3u);
  const auto hits = r.take_sorted();
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_DOUBLE_EQ(hits[0].best_score, -4.0);
  EXPECT_DOUBLE_EQ(hits[1].best_score, -1.0);
  EXPECT_DOUBLE_EQ(hits[2].best_score, 0.0);
  EXPECT_EQ(r.size(), 0u);  // emptied by take_sorted
}

TEST(TopHitsRetainer, EqualScoresRetainLowestIndices) {
  // Ties must resolve exactly as sort_hits does: lowest ligand_index wins
  // retention, whatever the offer order.
  TopHitsRetainer r(2);
  r.offer(hit_of(9, 1.0));
  r.offer(hit_of(2, 1.0));
  r.offer(hit_of(5, 1.0));
  r.offer(hit_of(0, 1.0));
  const auto hits = r.take_sorted();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].ligand_index, 0u);
  EXPECT_EQ(hits[1].ligand_index, 2u);
}

TEST(TopHitsRetainer, MatchesSortAndTruncateForAnyOfferOrder) {
  std::vector<LigandHit> all;
  // Scores engineered with many ties.
  const double scores[] = {2.0, -1.0, 2.0, 0.5, -1.0, 2.0, 0.5, -3.0, 0.5, -1.0};
  for (std::size_t i = 0; i < 10; ++i) all.push_back(hit_of(i, scores[i]));
  std::vector<LigandHit> expect = all;
  sort_hits(expect);
  for (std::size_t k = 1; k <= all.size(); ++k) {
    for (int rotation = 0; rotation < 10; ++rotation) {
      TopHitsRetainer r(k);
      for (std::size_t i = 0; i < all.size(); ++i) {
        r.offer(all[(i + static_cast<std::size_t>(rotation)) % all.size()]);
      }
      const auto kept = r.take_sorted();
      ASSERT_EQ(kept.size(), k);
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(kept[i].ligand_index, expect[i].ligand_index) << "k=" << k;
      }
    }
  }
}

TEST(TopHitsRetainer, ZeroCapacityRetainsNothing) {
  TopHitsRetainer r(0);
  r.offer(hit_of(0, -1.0));
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(r.take_sorted().empty());
}

TEST(BatchScreening, RetainCapacityTable) {
  struct Case {
    std::size_t admitted;
    double top_percent;
    std::size_t want;
  };
  const Case cases[] = {
      {0, 50.0, 0},   {1, 1.0, 1},     {100, 10.0, 10}, {100, 100.0, 100},
      {10, 25.0, 3},  // ceil(2.5)
      {10, 0.1, 1},   // floor would be 0; at least one hit is kept
      {3, 100.0, 3},  {1000000, 1.0, 10000},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(retain_capacity_for(c.admitted, c.top_percent), c.want)
        << c.admitted << " @ " << c.top_percent;
  }
}

// ---------------------------------------------------------------------------
// Options validation
// ---------------------------------------------------------------------------

TEST(BatchScreening, RejectsInvalidOptions) {
  VirtualScreeningEngine engine(receptor(), sched::hertz(), fast_options());
  BatchScreeningOptions bad;
  bad.batch_size = 0;
  EXPECT_THROW(BatchScreener(engine, bad), std::invalid_argument);
  bad = {};
  bad.top_percent = 0.0;
  EXPECT_THROW(BatchScreener(engine, bad), std::invalid_argument);
  bad = {};
  bad.top_percent = 101.0;
  EXPECT_THROW(BatchScreener(engine, bad), std::invalid_argument);
  bad = {};
  bad.resume = true;  // no hits_path
  EXPECT_THROW(BatchScreener(engine, bad), std::invalid_argument);
}

TEST(BatchScreening, EmptyLibraryIsANoOp) {
  VirtualScreeningEngine engine(receptor(), sched::hertz(), fast_options());
  BatchScreener screener(engine, {});
  const auto result = screener.run({});
  EXPECT_EQ(result.admitted, 0u);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_TRUE(result.retained.empty());
  EXPECT_FALSE(result.interrupted);
}

// ---------------------------------------------------------------------------
// Equivalence with screen(): any batch size, full retention, with and
// without injected device death, across M1-M4 (satellite property test).
// ---------------------------------------------------------------------------

TEST(BatchScreening, BatchedFullRetentionMatchesScreenAcrossMetaheuristics) {
  const auto library = small_library(5);
  const meta::MetaheuristicParams presets[] = {meta::m1_genetic(), meta::m2_scatter_full(),
                                               meta::m3_scatter_light(),
                                               meta::m4_local_search()};
  for (const auto& preset : presets) {
    for (const bool with_death : {false, true}) {
      ScreeningOptions options = fast_options();
      options.params = preset;
      options.params.population_per_spot = 8;
      // One generation at this scale.  M4 keeps its single pass, so scaled()
      // shortens its local search instead (2,496 -> 12 improve steps).
      if (preset.population_based) options.params.generations = 200;
      options.scale = 0.005;
      if (with_death) options.exec.fault_plan.kill(1, 0.001);

      VirtualScreeningEngine reference_engine(receptor(), sched::hertz(), options);
      const std::vector<LigandHit> expect = reference_engine.screen(library);

      for (const std::size_t batch_size : {std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
        VirtualScreeningEngine engine(receptor(), sched::hertz(), options);
        BatchScreeningOptions batch;
        batch.batch_size = batch_size;
        batch.top_percent = 100.0;
        BatchScreener screener(engine, batch);
        const auto result = screener.run(library);
        EXPECT_EQ(result.admitted, library.size());
        EXPECT_EQ(result.completed, library.size());
        EXPECT_EQ(result.newly_docked, library.size());
        SCOPED_TRACE(preset.name + " batch=" + std::to_string(batch_size) +
                     (with_death ? " death" : ""));
        expect_hits_bitwise_equal(result.retained, expect);
      }
    }
  }
}

TEST(BatchScreening, TopPercentKeepsExactlyTheBestPrefix) {
  const auto library = small_library(7);
  ScreeningOptions options = fast_options();
  VirtualScreeningEngine reference_engine(receptor(), sched::hertz(), options);
  std::vector<LigandHit> expect = reference_engine.screen(library);

  VirtualScreeningEngine engine(receptor(), sched::hertz(), options);
  BatchScreeningOptions batch;
  batch.batch_size = 3;
  batch.top_percent = 40.0;  // ceil(2.8) = 3 of 7
  BatchScreener screener(engine, batch);
  const auto result = screener.run(library);
  EXPECT_EQ(result.retain_capacity, 3u);
  expect.resize(3);
  expect_hits_bitwise_equal(result.retained, expect);
}

// ---------------------------------------------------------------------------
// JSONL streaming + resume
// ---------------------------------------------------------------------------

TEST(BatchScreening, StreamsOneRecordPerLigandInIndexOrder) {
  const auto library = small_library(5);
  const std::string path = temp_path("stream.jsonl");
  VirtualScreeningEngine engine(receptor(), sched::hertz(), fast_options());
  BatchScreeningOptions batch;
  batch.batch_size = 2;
  batch.hits_path = path;
  BatchScreener screener(engine, batch);
  const auto result = screener.run(library);
  EXPECT_EQ(result.completed, 5u);

  const ResumeState state = read_jsonl_hits(path);
  EXPECT_EQ(state.discarded_lines, 0u);
  ASSERT_EQ(state.hits.size(), 5u);
  for (std::size_t i = 0; i < state.hits.size(); ++i) {
    EXPECT_EQ(state.hits[i].ligand_index, i);
  }
  // Stream records roundtrip exactly: parsing and re-serializing a line
  // reproduces it byte-for-byte.
  std::ifstream in(path);
  std::string line;
  std::size_t i = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(hit_to_json_line(hit_from_json(util::JsonValue::parse(line))), line) << i;
    ++i;
  }
  std::remove(path.c_str());
}

TEST(BatchScreening, ReadJsonlHitsMissingFileIsEmpty) {
  const ResumeState state = read_jsonl_hits(temp_path("never_written.jsonl"));
  EXPECT_TRUE(state.hits.empty());
  EXPECT_EQ(state.valid_bytes, 0u);
}

TEST(BatchScreening, ReadJsonlHitsStopsAtTornTail) {
  const std::string path = temp_path("torn.jsonl");
  LigandHit a = hit_of(0, -1.0);
  LigandHit b = hit_of(1, -2.0);
  const std::string line_a = hit_to_json_line(a);
  const std::string line_b = hit_to_json_line(b);
  {
    std::ofstream out(path, std::ios::binary);
    out << line_a << '\n' << line_b << '\n' << "{\"index\":2,\"lig";  // torn write
  }
  const ResumeState state = read_jsonl_hits(path);
  ASSERT_EQ(state.hits.size(), 2u);
  EXPECT_EQ(state.discarded_lines, 1u);
  EXPECT_EQ(state.valid_bytes, line_a.size() + line_b.size() + 2);
  std::remove(path.c_str());
}

// The headline acceptance test: a run killed after batch k, resumed with
// resume=true, must produce a byte-identical JSONL stream and a
// bit-identical retained hit list versus an uninterrupted run — and must
// not re-account the cost of the ligands recovered from the stream.
TEST(BatchScreening, KillAfterBatchKThenResumeIsByteIdentical) {
  const auto library = small_library(7);
  const ScreeningOptions options = fast_options();

  // Reference: uninterrupted run.
  const std::string full_path = temp_path("full.jsonl");
  VirtualScreeningEngine full_engine(receptor(), sched::hertz(), options);
  BatchScreeningOptions full_batch;
  full_batch.batch_size = 2;
  full_batch.top_percent = 50.0;
  full_batch.hits_path = full_path;
  BatchScreener full_screener(full_engine, full_batch);
  const auto full = full_screener.run(library);
  EXPECT_FALSE(full.interrupted);
  EXPECT_EQ(full.completed, 7u);

  for (const std::size_t kill_after : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("killed after batch " + std::to_string(kill_after));
    const std::string path = temp_path("killed.jsonl");

    // Phase 1: the "crashed" run — stops at a batch boundary.
    VirtualScreeningEngine engine1(receptor(), sched::hertz(), options);
    BatchScreeningOptions batch1 = full_batch;
    batch1.hits_path = path;
    batch1.max_batches = kill_after;
    BatchScreener screener1(engine1, batch1);
    const auto part1 = screener1.run(library);
    EXPECT_TRUE(part1.interrupted);
    EXPECT_EQ(part1.newly_docked, kill_after * 2);

    // Phase 2: resume.
    VirtualScreeningEngine engine2(receptor(), sched::hertz(), options);
    BatchScreeningOptions batch2 = full_batch;
    batch2.hits_path = path;
    batch2.resume = true;
    BatchScreener screener2(engine2, batch2);
    const auto part2 = screener2.run(library);
    EXPECT_FALSE(part2.interrupted);
    EXPECT_EQ(part2.resumed_skips, kill_after * 2);
    EXPECT_EQ(part2.newly_docked, 7u - kill_after * 2);
    EXPECT_EQ(part2.completed, 7u);

    // Byte-identical stream, bit-identical retained list.
    EXPECT_EQ(slurp(path), slurp(full_path));
    expect_hits_bitwise_equal(part2.retained, full.retained);

    // No double-counting: the resumed run accounts only the ligands it
    // docked itself, and the two phases partition the full run's cost.
    EXPECT_LT(part2.virtual_seconds, full.virtual_seconds);
    EXPECT_NEAR(part1.virtual_seconds + part2.virtual_seconds, full.virtual_seconds,
                1e-9 * full.virtual_seconds);
    EXPECT_NEAR(part1.energy_joules + part2.energy_joules, full.energy_joules,
                1e-9 * full.energy_joules);
    std::remove(path.c_str());
  }
  std::remove(full_path.c_str());
}

// Same story under device death: fault accounting must partition too —
// resumed records never re-contribute their FaultReport.
TEST(BatchScreening, ResumeDoesNotDoubleCountFaults) {
  const auto library = small_library(6);
  ScreeningOptions options = fast_options();
  options.exec.fault_plan.kill(1, 0.001);  // device 1 dies in every dock

  const std::string full_path = temp_path("faults_full.jsonl");
  VirtualScreeningEngine full_engine(receptor(), sched::hertz(), options);
  BatchScreeningOptions full_batch;
  full_batch.batch_size = 2;
  full_batch.hits_path = full_path;
  BatchScreener full_screener(full_engine, full_batch);
  const auto full = full_screener.run(library);
  ASSERT_GT(full.faults.devices_lost, 0u);

  const std::string path = temp_path("faults_killed.jsonl");
  VirtualScreeningEngine engine1(receptor(), sched::hertz(), options);
  BatchScreeningOptions batch1 = full_batch;
  batch1.hits_path = path;
  batch1.max_batches = 2;
  BatchScreener screener1(engine1, batch1);
  const auto part1 = screener1.run(library);
  EXPECT_TRUE(part1.interrupted);

  VirtualScreeningEngine engine2(receptor(), sched::hertz(), options);
  BatchScreeningOptions batch2 = full_batch;
  batch2.hits_path = path;
  batch2.resume = true;
  BatchScreener screener2(engine2, batch2);
  const auto part2 = screener2.run(library);

  // Each dock loses device 1 once; resplits accumulate per newly docked
  // ligand only.  4 ligands were resumed, so a double-count would inflate
  // part2 well past the 2-ligand share.
  EXPECT_EQ(part1.faults.resplits + part2.faults.resplits, full.faults.resplits);
  EXPECT_EQ(part2.newly_docked, 2u);
  EXPECT_EQ(slurp(path), slurp(full_path));
  expect_hits_bitwise_equal(part2.retained, full.retained);
  std::remove(path.c_str());
  std::remove(full_path.c_str());
}

TEST(BatchScreening, ResumeAfterTornTailRedocksTheTornLigand) {
  const auto library = small_library(4);
  const ScreeningOptions options = fast_options();

  const std::string full_path = temp_path("tear_full.jsonl");
  VirtualScreeningEngine full_engine(receptor(), sched::hertz(), options);
  BatchScreeningOptions batch;
  batch.batch_size = 2;
  batch.hits_path = full_path;
  BatchScreener full_screener(full_engine, batch);
  (void)full_screener.run(library);

  // Corrupt copy: first 2 full records + a torn third line.
  const std::string path = temp_path("tear.jsonl");
  {
    std::ifstream in(full_path, std::ios::binary);
    std::string line;
    std::ofstream out(path, std::ios::binary);
    for (int i = 0; i < 2 && std::getline(in, line); ++i) out << line << '\n';
    out << "{\"index\":2,\"ligand\":\"lig";  // the crash tore this write
  }

  VirtualScreeningEngine engine(receptor(), sched::hertz(), options);
  BatchScreeningOptions resume_batch = batch;
  resume_batch.hits_path = path;
  resume_batch.resume = true;
  BatchScreener screener(engine, resume_batch);
  const auto result = screener.run(library);
  EXPECT_EQ(result.resumed_skips, 2u);
  EXPECT_EQ(result.newly_docked, 2u);
  EXPECT_EQ(result.discarded_lines, 1u);
  EXPECT_EQ(slurp(path), slurp(full_path));
  std::remove(path.c_str());
  std::remove(full_path.c_str());
}

TEST(BatchScreening, StopHookFinishesInFlightBatchAndFlushes) {
  const auto library = small_library(6);
  const std::string path = temp_path("stop.jsonl");
  VirtualScreeningEngine engine(receptor(), sched::hertz(), fast_options());
  BatchScreeningOptions batch;
  batch.batch_size = 2;
  batch.hits_path = path;
  int polls = 0;
  batch.should_stop = [&polls] { return ++polls > 1; };  // stop before batch 2
  BatchScreener screener(engine, batch);
  const auto result = screener.run(library);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.newly_docked, 2u);  // exactly the first batch
  const ResumeState state = read_jsonl_hits(path);
  EXPECT_EQ(state.hits.size(), 2u);  // flushed before returning
  std::remove(path.c_str());
}

TEST(BatchScreening, MetricsCountAdmittedCompletedRetainedResumed) {
  const auto library = small_library(4);
  const std::string path = temp_path("metrics.jsonl");
  obs::Observer observer;

  {
    VirtualScreeningEngine engine(receptor(), sched::hertz(), fast_options());
    BatchScreeningOptions batch;
    batch.batch_size = 2;
    batch.hits_path = path;
    batch.max_batches = 1;
    batch.observer = &observer;
    batch.job_name = "jobA";
    BatchScreener screener(engine, batch);
    (void)screener.run(library);
  }
  EXPECT_DOUBLE_EQ(observer.metrics.counter("vs.batch.admitted").value(), 4.0);
  EXPECT_DOUBLE_EQ(observer.metrics.counter("vs.batch.completed").value(), 2.0);
  EXPECT_DOUBLE_EQ(observer.metrics.gauge("vs.batch.progress").value(), 0.5);
  EXPECT_DOUBLE_EQ(observer.metrics.gauge("vs.job.jobA.progress").value(), 0.5);

  {
    VirtualScreeningEngine engine(receptor(), sched::hertz(), fast_options());
    BatchScreeningOptions batch;
    batch.batch_size = 2;
    batch.hits_path = path;
    batch.resume = true;
    batch.observer = &observer;
    BatchScreener screener(engine, batch);
    (void)screener.run(library);
  }
  EXPECT_DOUBLE_EQ(observer.metrics.counter("vs.batch.resumed_skips").value(), 2.0);
  EXPECT_DOUBLE_EQ(observer.metrics.counter("vs.batch.completed").value(), 4.0);
  // retained accumulates per run: 2 flushed by the interrupted run + 4 by
  // the completed resume.
  EXPECT_DOUBLE_EQ(observer.metrics.counter("vs.batch.retained").value(), 6.0);
  EXPECT_DOUBLE_EQ(observer.metrics.gauge("vs.batch.progress").value(), 1.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace metadock::vs
