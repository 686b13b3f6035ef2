// Google-benchmark microbenchmarks of the real host scoring paths: the
// reference loop, the batched engine (scalar and SIMD), and the end-to-end
// engine generation.  These measure real wall-clock on the build host (not
// virtual time) — they are how the CPU-side implementation itself is kept
// honest.
//
// Besides the google-benchmark mode, `--emit-json=PATH` runs a fixed
// comparison of the LJ kernels at 2BSM scale (3264 x 45) against the
// reference loop and writes a schema-versioned JSON summary — the generator
// of the repo's BENCH_scoring.json (see README).  `--emit-min-seconds=S`
// shrinks the per-implementation measurement window for smoke tests.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cpusim/cpu_engine.h"
#include "gpusim/runtime.h"
#include "gpusim/scoring_kernel.h"
#include "meta/engine.h"
#include "meta/evaluator.h"
#include "mol/synth.h"
#include "sched/multi_gpu.h"
#include "sched/node_config.h"
#include "scoring/batch_engine.h"
#include "scoring/lennard_jones.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace metadock;

const mol::Molecule& receptor(std::size_t atoms) {
  static std::map<std::size_t, mol::Molecule> cache;
  auto it = cache.find(atoms);
  if (it == cache.end()) {
    mol::ReceptorParams p;
    p.atom_count = atoms;
    it = cache.emplace(atoms, mol::make_receptor(p)).first;
  }
  return it->second;
}

const mol::Molecule& ligand() {
  static const mol::Molecule m = [] {
    mol::LigandParams p;
    p.atom_count = 45;
    return mol::make_ligand(p);
  }();
  return m;
}

scoring::Pose sample_pose(std::uint64_t seed) {
  auto rng = util::stream(seed);
  scoring::Pose pose;
  pose.position = {static_cast<float>(rng.uniform(-20, 20)),
                   static_cast<float>(rng.uniform(-20, 20)),
                   static_cast<float>(rng.uniform(-20, 20))};
  pose.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  return pose;
}

void BM_ScoreReference(benchmark::State& state) {
  const auto r_atoms = static_cast<std::size_t>(state.range(0));
  const scoring::LennardJonesScorer scorer(receptor(r_atoms), ligand());
  const scoring::Pose pose = sample_pose(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.score(pose));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scorer.pairs_per_eval()));
}
BENCHMARK(BM_ScoreReference)->Arg(512)->Arg(3264)->Arg(8609);

void BM_BatchEngine(benchmark::State& state) {
  const scoring::LennardJonesScorer scorer(receptor(3264), ligand());
  scoring::BatchEngineOptions opt;
  opt.simd = state.range(0) != 0 ? scoring::SimdLevel::kAvx2 : scoring::SimdLevel::kScalar;
  if (opt.simd == scoring::SimdLevel::kAvx2 && !scoring::simd_kernel_supported()) {
    state.SkipWithError("AVX2 kernel unavailable on this host");
    return;
  }
  const scoring::BatchScoringEngine engine(scorer, opt);
  std::vector<scoring::Pose> poses;
  for (int i = 0; i < 32; ++i) poses.push_back(sample_pose(static_cast<std::uint64_t>(i)));
  std::vector<double> out(poses.size());
  for (auto _ : state) {
    engine.score_batch(poses, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32 *
                          static_cast<std::int64_t>(scorer.pairs_per_eval()));
}
BENCHMARK(BM_BatchEngine)->Arg(0)->Arg(1);

void BM_EngineGeneration(benchmark::State& state) {
  // One M1 generation over a small problem: measures the non-scoring
  // template machinery (select/combine/include, RNG streams) plus scoring.
  mol::ReceptorParams rp;
  rp.atom_count = 512;
  static const mol::Molecule rec = mol::make_receptor(rp);
  static const mol::Molecule lig = ligand();
  const meta::DockingProblem problem = meta::make_problem(rec, lig);
  const scoring::LennardJonesScorer scorer(rec, lig);
  meta::MetaheuristicParams params = meta::m1_genetic();
  params.population_per_spot = 16;
  params.generations = 1;
  const meta::MetaheuristicEngine engine(params);
  for (auto _ : state) {
    meta::BatchedEvaluator eval(scorer);
    benchmark::DoNotOptimize(engine.run(problem, eval));
  }
}
BENCHMARK(BM_EngineGeneration);

// ---------------------------------------------------------------------------
// --emit-json: fixed LJ kernel comparison at 2BSM scale

struct EmitResult {
  std::string impl;
  double pairs_per_second = 0.0;
};

/// One loop of the kernel comparison; every call scores the same pairs.
struct ScoringLoop {
  std::string impl;
  std::function<void()> call;
};

/// Best-window throughput of each loop, whose calls score `pairs_per_call`
/// pairs each.  The loops take turns, six rounds of one window of at least
/// `min_seconds` each, so load that comes and goes falls on every loop
/// alike and the smoke gate's ratio of two loops stays steady on a busy
/// host; each keeps its fastest window.
std::vector<EmitResult> measure_pairs_per_second(const std::vector<ScoringLoop>& loops,
                                                 double pairs_per_call, double min_seconds) {
  std::vector<EmitResult> results;
  for (const ScoringLoop& loop : loops) {
    loop.call();  // warm the caches and the thread-local scratch
    results.push_back({loop.impl, 0.0});
  }
  for (int round = 0; round < 6; ++round) {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const util::WallTimer timer;
      std::int64_t calls = 0;
      while (timer.seconds() < min_seconds) {
        loops[i].call();
        ++calls;
      }
      results[i].pairs_per_second =
          std::max(results[i].pairs_per_second,
                   static_cast<double>(calls) * pairs_per_call / timer.seconds());
    }
  }
  return results;
}

// ---------------------------------------------------------------------------
// --emit-json "generation" section: end-to-end metaheuristic throughput

/// Best-of-three end-to-end engine throughput (pose evaluations per second)
/// over windows of at least `min_seconds`, with a fresh batched evaluator
/// per run.
double measure_generation_eps(const meta::MetaheuristicEngine& engine,
                              const meta::DockingProblem& problem,
                              const scoring::LennardJonesScorer& scorer, double min_seconds) {
  {
    meta::BatchedEvaluator warm(scorer);  // warms caches and per-thread scratch
    (void)engine.run(problem, warm);
  }
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const util::WallTimer timer;
    std::uint64_t evals = 0;
    while (timer.seconds() < min_seconds) {
      meta::BatchedEvaluator eval(scorer);
      evals += engine.run(problem, eval).evaluations;
    }
    best = std::max(best, static_cast<double>(evals) / timer.seconds());
  }
  return best;
}

// ---------------------------------------------------------------------------
// --emit-json "overlap" section: stream-overlap dispatch on virtual hertz
//
// Unlike the sections above, these numbers are *virtual* time from the
// device models — deterministic, independent of the build host.  The
// workload is deliberately a small-fragment screen (tiny receptor and
// ligand, huge batch): per-pose compute shrinks with the molecule sizes
// while the 28-byte pose upload does not, so PCIe time is a large slice of
// each batch and the double-buffered pipeline has something to hide.  At
// 2BSM scale the same kernels are compute-bound and copies are ~1% of a
// batch, so overlap wins little there (see DESIGN.md §13).

struct OverlapModeResult {
  std::string mode;
  double batch_seconds = 0.0;
};

/// Eq.1-style probe: per-device cost-only timing on a throwaway runtime;
/// shares proportional to measured throughput.
std::vector<double> overlap_probe_shares(const sched::NodeConfig& node,
                                         const scoring::LennardJonesScorer& scorer,
                                         std::size_t probe_poses) {
  std::vector<double> shares(node.gpus.size(), 0.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < node.gpus.size(); ++i) {
    gpusim::Runtime rt({node.gpus[i]});
    gpusim::DeviceScoringKernel probe(rt.device(0), scorer);
    const double before = rt.device(0).busy_seconds();
    probe.score_cost_only(probe_poses);
    shares[i] = 1.0 / (rt.device(0).busy_seconds() - before);
    sum += shares[i];
  }
  for (double& s : shares) s /= sum;
  return shares;
}

/// Mean per-batch barrier time of `batches` cost-only batches under one
/// dispatch mode (fresh runtime per mode; the molecule-upload prologue is
/// excluded).
double overlap_batch_seconds(const sched::NodeConfig& node,
                             const scoring::LennardJonesScorer& scorer,
                             const std::vector<double>& shares, bool overlap,
                             double cpu_tail_share, std::size_t batch_poses, int batches) {
  gpusim::Runtime rt(node.gpus);
  sched::MultiGpuOptions mg;
  mg.shares = shares;
  mg.overlap = overlap;
  mg.cpu_tail_share = cpu_tail_share;
  mg.cpu_fallback = node.cpu;
  sched::MultiGpuBatchScorer mgs(rt, scorer, mg);
  const double after_setup = mgs.node_seconds();
  for (int b = 0; b < batches; ++b) mgs.evaluate_cost_only(batch_poses);
  return (mgs.node_seconds() - after_setup) / batches;
}

void emit_overlap_section(util::JsonWriter& w) {
  constexpr std::size_t kReceptorAtoms = 32;
  constexpr std::size_t kLigandAtoms = 11;
  constexpr std::size_t kBatch = 262144;
  constexpr int kBatches = 4;

  mol::ReceptorParams rp;
  rp.atom_count = kReceptorAtoms;
  const mol::Molecule frag_receptor = mol::make_receptor(rp);
  mol::LigandParams lp;
  lp.atom_count = kLigandAtoms;
  const mol::Molecule frag_ligand = mol::make_ligand(lp);
  const scoring::LennardJonesScorer scorer(frag_receptor, frag_ligand);

  const sched::NodeConfig node = sched::hertz();
  const std::vector<double> shares = overlap_probe_shares(node, scorer, kBatch);

  const double serial_s =
      overlap_batch_seconds(node, scorer, shares, /*overlap=*/false, 0.0, kBatch, kBatches);
  const double overlapped_s =
      overlap_batch_seconds(node, scorer, shares, /*overlap=*/true, 0.0, kBatch, kBatches);

  // Tail share that lets the host CPU finish its partition just as the GPU
  // pipelines drain theirs: s * t_cpu = (1 - s) * t_gpu per batch.
  cpusim::CpuScoringEngine cpu_probe(node.cpu, scorer.atom_counts());
  cpu_probe.score_cost_only(kBatch);
  const double t_cpu = cpu_probe.busy_seconds();
  const double tail_share =
      std::min(0.45, t_cpu > 0.0 ? overlapped_s / (overlapped_s + t_cpu) : 0.0);
  const double tail_s =
      overlap_batch_seconds(node, scorer, shares, /*overlap=*/true, tail_share, kBatch, kBatches);

  std::vector<OverlapModeResult> modes;
  modes.push_back({"serial", serial_s});
  modes.push_back({"overlapped", overlapped_s});
  modes.push_back({"overlapped-cpu-tail", tail_s});

  w.key("overlap").begin_object();
  w.key("config").begin_object();
  w.key("node").value(node.name);
  w.key("receptor_atoms").value(std::uint64_t{kReceptorAtoms});
  w.key("ligand_atoms").value(std::uint64_t{kLigandAtoms});
  w.key("pairs_per_eval").value(static_cast<std::uint64_t>(scorer.pairs_per_eval()));
  w.key("batch_poses").value(std::uint64_t{kBatch});
  w.key("batches").value(static_cast<std::uint64_t>(kBatches));
  w.key("shares").begin_array();
  for (const double s : shares) w.value(s);
  w.end_array();
  w.key("cpu_tail_share").value(tail_share);
  w.end_object();
  w.key("results").begin_array();
  for (const OverlapModeResult& m : modes) {
    w.begin_object();
    w.key("mode").value(m.mode);
    w.key("batch_seconds").value(m.batch_seconds);
    w.key("speedup_vs_serial").value(m.batch_seconds > 0.0 ? serial_s / m.batch_seconds : 0.0);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  for (const OverlapModeResult& m : modes) {
    std::printf("  overlap %-20s %.6f s/batch (%.2fx vs serial)\n", m.mode.c_str(),
                m.batch_seconds, m.batch_seconds > 0.0 ? serial_s / m.batch_seconds : 0.0);
  }
}

int emit_json(const std::string& path, double min_seconds) {
  const scoring::LennardJonesScorer scorer(receptor(3264), ligand());
  constexpr std::size_t kPoses = 32;
  std::vector<scoring::Pose> poses;
  for (std::size_t i = 0; i < kPoses; ++i) poses.push_back(sample_pose(i));
  std::vector<double> out(poses.size());
  const double pairs_per_call =
      static_cast<double>(scorer.pairs_per_eval()) * static_cast<double>(kPoses);

  scoring::BatchEngineOptions scalar_opt;
  scalar_opt.simd = scoring::SimdLevel::kScalar;
  const scoring::BatchScoringEngine scalar(scorer, scalar_opt);
  std::vector<ScoringLoop> loops = {
      {"reference",
       [&] {
         for (std::size_t i = 0; i < kPoses; ++i) out[i] = scorer.score(poses[i]);
       }},
      {"batched-scalar", [&] { scalar.score_batch(poses, out); }}};
  std::optional<scoring::BatchScoringEngine> simd;
  if (scoring::simd_kernel_supported()) {
    scoring::BatchEngineOptions simd_opt;
    simd_opt.simd = scoring::SimdLevel::kAvx2;
    simd.emplace(scorer, simd_opt);
    loops.push_back({"batched-simd", [&] { simd->score_batch(poses, out); }});
  }
  const std::vector<EmitResult> results =
      measure_pairs_per_second(loops, pairs_per_call, min_seconds);
  const double reference_pps = results.front().pairs_per_second;

  // End-to-end generation throughput: an M1 engine run with the batched
  // evaluator (the kernel cpuid picks).
  mol::ReceptorParams grp;
  grp.atom_count = 512;
  const mol::Molecule gen_receptor = mol::make_receptor(grp);
  meta::DockingProblem gen_problem = meta::make_problem(gen_receptor, ligand());
  constexpr std::size_t kGenSpots = 8;
  if (gen_problem.spots.size() > kGenSpots) gen_problem.spots.resize(kGenSpots);
  meta::MetaheuristicParams gen_params = meta::m1_genetic();
  gen_params.population_per_spot = 16;
  gen_params.generations = 4;
  const meta::MetaheuristicEngine gen_engine(gen_params);
  const scoring::LennardJonesScorer gen_scorer(gen_receptor, ligand());

  const double gen_eps = measure_generation_eps(gen_engine, gen_problem, gen_scorer, min_seconds);

  util::JsonWriter w;
  w.begin_object();
  w.key("schema").value("metadock.bench_scoring/5");
  w.key("dataset").begin_object();
  w.key("name").value("2BSM-scale synthetic");
  w.key("receptor_atoms").value(std::uint64_t{3264});
  w.key("ligand_atoms").value(std::uint64_t{45});
  w.key("pairs_per_eval").value(static_cast<std::uint64_t>(scorer.pairs_per_eval()));
  w.end_object();
  w.key("simd").begin_object();
  w.key("kernel_compiled").value(scoring::simd_kernel_compiled());
  w.key("kernel_supported").value(scoring::simd_kernel_supported());
  w.key("default_level").value(std::string(scoring::simd_level_name(scoring::default_simd_level())));
  w.end_object();
  w.key("config").begin_object();
  w.key("pose_batch").value(std::uint64_t{kPoses});
  w.key("pose_block").value(scalar.pose_block());
  w.key("tile_size").value(std::uint64_t{scalar.receptor().tile_size});
  w.key("min_seconds_per_window").value(min_seconds);
  w.end_object();
  w.key("results").begin_array();
  for (const EmitResult& r : results) {
    w.begin_object();
    w.key("impl").value(r.impl);
    w.key("pairs_per_second").value(r.pairs_per_second);
    w.key("speedup_vs_reference")
        .value(reference_pps > 0.0 ? r.pairs_per_second / reference_pps : 0.0);
    w.end_object();
  }
  w.end_array();
  w.key("generation").begin_object();
  w.key("config").begin_object();
  w.key("mh").value(gen_params.name);
  w.key("receptor_atoms").value(static_cast<std::uint64_t>(gen_receptor.size()));
  w.key("ligand_atoms").value(static_cast<std::uint64_t>(ligand().size()));
  w.key("spots").value(static_cast<std::uint64_t>(gen_problem.spots.size()));
  w.key("population_per_spot").value(static_cast<std::uint64_t>(gen_params.population_per_spot));
  w.key("generations").value(static_cast<std::uint64_t>(gen_params.generations));
  w.end_object();
  w.key("results").begin_array();
  w.begin_object();
  w.key("mode").value("batched");
  w.key("evals_per_second").value(gen_eps);
  w.end_object();
  w.end_array();
  w.end_object();
  emit_overlap_section(w);
  w.end_object();

  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "bench_scoring_micro: cannot open %s\n", path.c_str());
    return 1;
  }
  file << w.str() << '\n';
  std::printf("wrote %s\n", path.c_str());
  for (const EmitResult& r : results) {
    std::printf("  %-15s %.3e pairs/s (%.2fx vs reference)\n", r.impl.c_str(),
                r.pairs_per_second, reference_pps > 0.0 ? r.pairs_per_second / reference_pps : 0.0);
  }
  std::printf("  gen batched           %.3e evals/s\n", gen_eps);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string emit_path;
  double min_seconds = 0.4;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--emit-json=", 0) == 0) {
      emit_path = std::string(arg.substr(12));
    } else if (arg.rfind("--emit-min-seconds=", 0) == 0) {
      min_seconds = std::stod(std::string(arg.substr(19)));
    }
  }
  if (!emit_path.empty()) return emit_json(emit_path, min_seconds);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
