// surface and pocket: closed-loop library screens through vs::BatchScreener.
//
// One client docks each ligand after the previous one returns, as `screen`
// and `serve` do.  A run sets up (receptor and library build, spot
// detection, engine construction) and plans the screen (one
// NodeExecutor::estimate per ligand) repeatedly, then screens the whole
// library until its time budget is spent; every screen must reproduce the
// same hit stream and the same virtual figures, which the plan predicts.
//
// The traced run (--trace 1) screens the library untraced, then through a
// docking chain rebuilt from public parts with every layer timed from
// outside, then untraced again:
//
//   vs loop (retention heap + JSONL stream, as BatchScreener::run)
//     -> NodeExecutor::estimate           (Eq. 1 percents for the split)
//     -> gpusim::Runtime + warm-up probe  (same virtual timeline as run())
//     -> sched::MultiGpuBatchScorer       (shares_from_percents)
//     -> TimedEvaluator                   (evaluator time)
//     -> meta::MetaheuristicEngine::run   (engine time)
//
// Its stream must be byte-identical to the untraced one, which proves the
// per-layer split measures the same program.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>

#include "bench.h"
#include "gpusim/runtime.h"
#include "gpusim/scoring_kernel.h"
#include "meta/engine.h"
#include "mol/synth.h"
#include "sched/executor.h"
#include "sched/multi_gpu.h"
#include "sched/node_config.h"
#include "sched/partition.h"
#include "scoring/batch_engine.h"
#include "surface/spots.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "vs/batch_screening.h"
#include "vs/report.h"
#include "vs/screening.h"

namespace perfbench {

/// Atom counts are stratified over [20, 60] with a +-1 seeded jitter; the
/// structures and the docking order come from the seed.  Every seed thus
/// screens nearly the same amount of pair work: the spread between seeds
/// measures the host, not the luck of the library draw, while the virtual
/// figures still differ from seed to seed.
std::vector<metadock::mol::Molecule> make_library(std::size_t n, std::uint64_t seed) {
  metadock::util::Xoshiro256 rng = metadock::util::stream(seed, 0x11Bu);
  std::vector<std::size_t> atoms(n);
  for (std::size_t i = 0; i < n; ++i) {
    atoms[i] = std::clamp<std::size_t>(20 + (i * 41) / n + rng.below(3), 21, 61) - 1;
  }
  for (std::size_t i = n; i > 1; --i) std::swap(atoms[i - 1], atoms[rng.below(i)]);
  std::vector<metadock::mol::Molecule> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    metadock::mol::LigandParams lp;
    lp.atom_count = atoms[i];
    lp.seed = metadock::util::hash_combine(seed, i);
    metadock::mol::Molecule m = metadock::mol::make_ligand(lp);
    m.set_name("lig-" + std::to_string(i));
    out.push_back(std::move(m));
  }
  return out;
}

namespace {

using namespace metadock;
using util::WallTimer;

struct DockingSpec {
  bool paper_receptor = true;  // 2BSM, else a 512-atom synthetic receptor
  sched::NodeConfig node;
  meta::MetaheuristicParams params;
  double scale = 0.005;
  std::size_t ligands = 0;
  double top_percent = 100.0;
};

DockingSpec spec_for(const Args& args) {
  DockingSpec s;
  if (args.workload == "surface") {
    // The paper's setting: blind screen of 2BSM on the high-heterogeneity
    // node with the `screen` defaults (M1, 16 per spot, scale 0.005).
    // Scoring arithmetic dominates host time here.
    s.node = sched::hertz();
    s.params = meta::m1_genetic();
    s.params.population_per_spot = 16;
    s.scale = 0.005;
    s.ligands = args.smoke ? 2 : 6;
  } else {
    // Focused screen: a small receptor makes each evaluation cheap, so
    // fan-out over 6 devices x 2 stream halves, engine work and stream I/O
    // carry a large share of host time.
    s.paper_receptor = false;
    s.node = sched::jupiter();
    s.params = meta::m3_scatter_light();
    s.scale = 0.01;
    s.ligands = args.smoke ? 3 : 30;
    s.top_percent = 10.0;
  }
  return s;
}

mol::Molecule make_workload_receptor(const DockingSpec& spec) {
  if (spec.paper_receptor) return mol::make_dataset_receptor(mol::kDataset2BSM);
  mol::ReceptorParams rp;
  rp.atom_count = 512;
  rp.seed = 512;  // fixed: the seed varies the library, not the pocket
  mol::Molecule m = mol::make_receptor(rp);
  m.set_name("pocket-512");
  return m;
}

vs::ScreeningOptions screening_options(const DockingSpec& spec, std::uint64_t seed) {
  vs::ScreeningOptions o;
  o.params = spec.params;
  o.exec.strategy = sched::Strategy::kHeterogeneous;
  o.exec.overlap = true;
  o.seed = util::hash_combine(seed, 2);
  o.scale = spec.scale;
  return o;
}

struct Session {
  Session(mol::Molecule r, std::vector<mol::Molecule> lib, const sched::NodeConfig& node,
          const vs::ScreeningOptions& options)
      : receptor(std::move(r)), library(std::move(lib)), engine(receptor, node, options) {}
  mol::Molecule receptor;
  std::vector<mol::Molecule> library;
  vs::VirtualScreeningEngine engine;  // holds a reference to `receptor`
};

/// The problem VirtualScreeningEngine::dock builds for ligand `index`.
meta::DockingProblem problem_for(const vs::VirtualScreeningEngine& engine,
                                 const mol::Molecule& ligand, std::size_t index) {
  meta::DockingProblem p;
  p.receptor = &engine.receptor();
  p.ligand = &ligand;
  p.spots = engine.spots();
  p.seed = engine.options().seed + index;
  p.ligand_radius = ligand.radius_about_centroid();
  return p;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t hits_digest(const std::vector<vs::LigandHit>& hits) {
  std::uint64_t h = fnv1a("");
  for (const vs::LigandHit& hit : hits) h = fnv1a(vs::hit_to_json_line(hit) + '\n', h);
  return h;
}

struct ScreenRun {
  vs::BatchScreeningResult result;
  std::vector<double> ligand_s;
  double wall_s = 0.0;
  std::string stream;
};

/// One closed-loop screen of the session's library.  With batch_size 1 the
/// screener polls should_stop before every ligand, which timestamps each
/// ligand's latency to a persisted hit.
ScreenRun screen(Session& s, const DockingSpec& spec, const std::string& path) {
  std::filesystem::remove(path);
  ScreenRun run;
  std::vector<double> marks;
  marks.reserve(s.library.size() + 1);
  WallTimer clock;
  vs::BatchScreeningOptions bo;
  bo.batch_size = 1;
  bo.top_percent = spec.top_percent;
  bo.hits_path = path;
  bo.should_stop = [&] {
    marks.push_back(clock.seconds());
    return false;
  };
  vs::BatchScreener screener(s.engine, bo);
  clock.reset();
  run.result = screener.run(s.library);
  run.wall_s = clock.seconds();
  marks.push_back(run.wall_s);
  for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
    run.ligand_s.push_back(marks[i + 1] - marks[i]);
  }
  run.stream = read_file(path);
  return run;
}

/// Forwards to the wrapped evaluator and accumulates the wall time spent
/// inside it, which splits engine time from evaluator time.
class TimedEvaluator final : public meta::Evaluator {
 public:
  explicit TimedEvaluator(meta::Evaluator& inner) : inner_(inner) {}

  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override {
    const WallTimer t;
    inner_.evaluate(poses, out);
    seconds_ += t.seconds();
  }
  void evaluate_soa(const scoring::PoseSoAView& poses, std::span<double> out) override {
    const WallTimer t;
    inner_.evaluate_soa(poses, out);
    seconds_ += t.seconds();
  }
  [[nodiscard]] double virtual_seconds() const override { return inner_.virtual_seconds(); }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  meta::Evaluator& inner_;
  double seconds_ = 0.0;
};

/// Per-layer accumulators of the traced screen.
struct Layers {
  double dock_s = 0.0;       // whole rebuilt docking calls
  double estimate_s = 0.0;   // NodeExecutor::estimate calls
  std::size_t estimates = 0;
  double run_s = 0.0;        // MetaheuristicEngine::run
  double eval_s = 0.0;       // inside the evaluator
  double kernel_s = 0.0;     // host.scoring_wall_seconds
  double pairs = 0.0;        // host.scored_pairs
  double kernels = 0.0;
  double kernel_blocks = 0.0;
  double kernel_spans = 0.0;
  double warmup_virtual_s = 0.0;
  double imbalance = 0.0;
  double balance = 0.0;
  std::uint64_t evaluations = 0;
  std::uint64_t batches = 0;
  std::vector<std::vector<std::size_t>> batch_sizes;  // per ligand
};

/// VirtualScreeningEngine::dock rebuilt from public parts, timed per layer.
vs::LigandHit traced_dock(const vs::VirtualScreeningEngine& engine, const sched::NodeConfig& node,
                          const mol::Molecule& ligand, std::size_t index, Layers& acc) {
  const vs::ScreeningOptions& o = engine.options();
  const sched::ExecutorOptions& exec = o.exec;
  const meta::DockingProblem problem = problem_for(engine, ligand, index);
  const meta::MetaheuristicParams params = o.params.scaled(o.scale);

  WallTimer t;
  sched::NodeExecutor executor(node, exec);
  const sched::ExecutionReport plan = executor.estimate(problem, params);
  acc.estimate_s += t.seconds();
  ++acc.estimates;
  acc.warmup_virtual_s += plan.warmup_seconds;
  acc.imbalance += plan.imbalance_ratio;
  acc.balance += plan.balance_efficiency;
  std::vector<double> percents;
  for (const sched::DeviceReport& d : plan.devices) percents.push_back(d.percent);

  obs::Observer observer;
  const scoring::LennardJonesScorer scorer(*problem.receptor, *problem.ligand);
  gpusim::Runtime rt(node.gpus, exec.fault_plan);
  rt.attach_observer(&observer);
  // The warm-up probe NodeExecutor::run issues before scoring, so the
  // devices' virtual clocks match the untraced run.
  double warmup_s = 0.0;
  for (int d = 0; d < rt.device_count(); ++d) {
    gpusim::Device& dev = rt.device(d);
    const double before = dev.busy_seconds();
    gpusim::DeviceScoringKernel probe(dev, scorer, exec.kernel);
    for (int it = 0; it < exec.warmup_iterations; ++it) probe.score_cost_only(exec.warmup_batch);
    warmup_s = std::max(warmup_s, dev.busy_seconds() - before);
  }

  sched::MultiGpuOptions mg;
  mg.kernel = exec.kernel;
  mg.faults = exec.fault_policy;
  mg.overlap = exec.overlap;
  mg.cpu_tail_share = exec.cpu_tail_share;
  mg.cpu_fallback = node.cpu;
  mg.shares = sched::shares_from_percents(percents);
  sched::MultiGpuBatchScorer scorer_mg(rt, scorer, mg);
  TimedEvaluator timed(scorer_mg);
  const meta::MetaheuristicEngine meta_engine(params);

  t.reset();
  const meta::RunResult r = meta_engine.run(problem, timed);
  acc.run_s += t.seconds();
  acc.eval_s += timed.seconds();
  acc.kernel_s += observer.metrics.counter("host.scoring_wall_seconds").value();
  acc.pairs += observer.metrics.counter("host.scored_pairs").value();
  for (int d = 0; d < rt.device_count(); ++d) {
    acc.kernels += static_cast<double>(rt.device(d).kernels_launched());
  }
  const KernelFanout fanout = kernel_fanout(observer.tracer);
  acc.kernel_blocks += fanout.blocks;
  acc.kernel_spans += fanout.launches;
  acc.evaluations += r.evaluations;
  acc.batches += r.batch_sizes.size();
  acc.batch_sizes.push_back(r.batch_sizes);

  vs::LigandHit hit;
  hit.ligand_index = index;
  hit.ligand_name = ligand.name();
  hit.best_score = r.best.score;
  hit.best_pose = r.best.pose;
  hit.best_spot_id = r.best_spot_id;
  hit.virtual_seconds = warmup_s + scorer_mg.node_seconds();
  hit.energy_joules = rt.total_energy_joules() + scorer_mg.cpu_energy_joules();
  hit.faults.merge(scorer_mg.fault_report());
  return hit;
}

struct TracedScreen {
  std::vector<vs::LigandHit> retained;
  std::string stream;
  double wall_s = 0.0;
  double vs_self_s = 0.0;
};

/// BatchScreener::run (batch size 1, no resume) rebuilt around traced_dock.
TracedScreen traced_screen(Session& s, const DockingSpec& spec, const std::string& path,
                           Layers& acc) {
  TracedScreen out;
  vs::TopHitsRetainer retainer(vs::retain_capacity_for(s.library.size(), spec.top_percent));
  std::ofstream stream(path, std::ios::binary | std::ios::trunc);
  const WallTimer loop;
  for (std::size_t i = 0; i < s.library.size(); ++i) {
    const WallTimer t;
    vs::LigandHit hit = traced_dock(s.engine, spec.node, s.library[i], i, acc);
    acc.dock_s += t.seconds();
    stream << vs::hit_to_json_line(hit) << '\n';
    stream.flush();
    retainer.offer(std::move(hit));
  }
  out.retained = retainer.take_sorted();
  out.wall_s = loop.seconds();
  out.vs_self_s = out.wall_s - acc.dock_s;
  stream.close();
  out.stream = read_file(path);
  return out;
}

/// Scores the traced run's per-batch pose counts with the batched engine
/// straight over the global pool: the kernel arithmetic without devices,
/// splits or streams.  Poses sit on the spot centres; the full pair sum
/// costs the same wherever a pose lies.
double standalone_seconds(const Session& s, const Layers& acc) {
  const sched::ExecutorOptions& exec = s.engine.options().exec;
  const auto wpb = static_cast<std::size_t>(exec.kernel.warps_per_block);
  scoring::BatchEngineOptions be;
  be.pose_block = exec.kernel.warps_per_block;
  be.simd = scoring::resolve_scoring_impl(exec.kernel.impl) == scoring::ScoringImpl::kBatchedSimd
                ? exec.kernel.simd_level
                : scoring::SimdLevel::kScalar;
  const std::vector<surface::Spot>& spots = s.engine.spots();
  double seconds = 0.0;
  for (std::size_t i = 0; i < acc.batch_sizes.size(); ++i) {
    const std::vector<std::size_t>& sizes = acc.batch_sizes[i];
    const std::size_t max_n = sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
    std::vector<scoring::Pose> poses(max_n);
    for (std::size_t k = 0; k < max_n; ++k) poses[k].position = spots[k % spots.size()].center;
    std::vector<double> out(max_n);
    const scoring::LennardJonesScorer scorer(s.receptor, s.library[i]);
    const scoring::BatchScoringEngine engine(scorer, be);
    for (const std::size_t n : sizes) {
      const WallTimer t;
      util::ThreadPool::global().parallel_for((n + wpb - 1) / wpb, [&](std::size_t b) {
        const std::size_t lo = b * wpb;
        const std::size_t hi = std::min(n, lo + wpb);
        engine.score_batch(std::span<const scoring::Pose>(poses).subspan(lo, hi - lo),
                           std::span<double>(out).subspan(lo, hi - lo));
      });
      seconds += t.seconds();
    }
  }
  return seconds;
}

std::unique_ptr<Session> set_up(const DockingSpec& spec, const vs::ScreeningOptions& options,
                                std::uint64_t seed) {
  util::ThreadPool::global();  // first use starts the workers
  mol::Molecule receptor = make_workload_receptor(spec);
  std::vector<mol::Molecule> library = make_library(spec.ligands, util::hash_combine(seed, 1));
  return std::make_unique<Session>(std::move(receptor), std::move(library), spec.node, options);
}

/// Plans the screen before running it: one estimate per library ligand.
/// Returns the predicted virtual time of the whole screen.
double plan_screen(const Session& s, const DockingSpec& spec) {
  const vs::ScreeningOptions& o = s.engine.options();
  const meta::MetaheuristicParams params = o.params.scaled(o.scale);
  double virtual_s = 0.0;
  for (std::size_t i = 0; i < s.library.size(); ++i) {
    sched::NodeExecutor exec(spec.node, o.exec);
    virtual_s += exec.estimate(problem_for(s.engine, s.library[i], i), params).makespan_seconds;
  }
  return virtual_s;
}

/// Virtual figures and digests one repetition must reproduce exactly.
struct Fingerprint {
  std::uint64_t stream = 0;
  std::uint64_t retained = 0;
  double virtual_s = 0.0;
  double energy_j = 0.0;
  double top_energy = 0.0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const ScreenRun& run) {
  Fingerprint f;
  f.stream = fnv1a(run.stream);
  f.retained = hits_digest(run.result.retained);
  f.virtual_s = run.result.virtual_seconds;
  f.energy_j = run.result.energy_joules;
  f.top_energy = run.result.retained.empty() ? 0.0 : run.result.retained.front().best_score;
  return f;
}

void check_screen(Result& r, const ScreenRun& run, const DockingSpec& spec) {
  const std::size_t n = spec.ligands;
  r.check(run.result.completed == n && run.result.newly_docked == n, "every ligand docked");
  r.check(run.result.retained.size() == vs::retain_capacity_for(n, spec.top_percent),
          "top-N% retention size");
  r.check(std::is_sorted(run.result.retained.begin(), run.result.retained.end(), vs::hit_before),
          "hit list ranked best-first");
  const double top = run.result.retained.empty() ? 0.0 : run.result.retained.front().best_score;
  r.check(std::isfinite(top) && top < 0.0, "top hit has a finite binding (negative) energy");
  r.check(static_cast<std::size_t>(std::count(run.stream.begin(), run.stream.end(), '\n')) == n,
          "one JSONL record per docked ligand");
}

void note_fingerprint(Result& r, const Fingerprint& f) {
  r.note("hits_digest", json_string(hex(f.retained)));
  r.note("stream_digest", json_string(hex(f.stream)));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", f.top_energy);
  r.note("top_hit_energy_kcal_mol", buf);
}

std::string stream_path(const Args& args, const char* tag) {
  return (std::filesystem::path(args.scratch_dir) /
          (args.workload + "-" + std::to_string(args.seed) + "-" + tag + ".jsonl"))
      .string();
}

void run_untraced(const Args& args, const DockingSpec& spec, const vs::ScreeningOptions& options,
                  Result& r) {
  // Set-up and planning take milliseconds, so each is repeated for a tenth
  // of a second and every sample kept; the last session then screens the
  // library while the next screen still fits the budget.  A run spreads its
  // screens over many short processes, whose digests perfbench/run.py
  // compares; a smoke run is one process, so it screens twice itself.
  // Set-ups come first because their allocation churn, interleaved, would
  // slow whatever follows by a varying amount.
  const std::size_t min_reps = 3;
  const std::size_t min_screens = args.smoke ? 2 : 1;
  const double slice_s = args.smoke ? 0.0 : 0.1;
  const WallTimer budget;
  std::unique_ptr<Session> session;
  const std::vector<double> setup_s =
      repeat_timed(min_reps, slice_s, [&] { session = set_up(spec, options, args.seed); });
  Session& s = *session;
  std::optional<double> plan_virtual_s;
  const std::vector<double> plan_s = repeat_timed(min_reps, slice_s, [&] {
    const double v = plan_screen(s, spec);
    if (!plan_virtual_s) plan_virtual_s = v;
    r.check(v == *plan_virtual_s, "plan virtual time identical across repeats");
  });

  std::vector<double> ligand_s, screen_s;
  std::optional<Fingerprint> first;
  while (screen_s.size() < min_screens || budget.seconds() + screen_s.back() <= args.seconds) {
    r.attempted += spec.ligands;
    ScreenRun run;
    try {
      run = screen(s, spec, stream_path(args, "screen"));
    } catch (const std::exception& e) {
      r.failed += spec.ligands;
      r.check(false, std::string("screen threw: ") + e.what());
      break;
    }
    check_screen(r, run, spec);
    r.check(run.result.virtual_seconds == *plan_virtual_s,
            "the plan predicts the screen's virtual time exactly");
    screen_s.push_back(run.wall_s);
    ligand_s.insert(ligand_s.end(), run.ligand_s.begin(), run.ligand_s.end());
    const Fingerprint f = fingerprint(run);
    if (!first) {
      first = f;
      note_fingerprint(r, f);
    }
    r.check(f == *first, "hit digests and virtual metrics identical across repetitions");
  }
  const auto n = static_cast<double>(spec.ligands);
  r.unit_items = n;
  r.samples = {{"item_s", ligand_s}, {"unit_s", screen_s}, {"setup_s", setup_s},
               {"plan_s", plan_s}};
  r.put("peak_rss_mb", peak_rss_mb(), "MiB", "host");
  r.put("plan_virtual_s", *plan_virtual_s, "s", "virtual");
  if (first) {
    r.put("virtual_s_per_ligand", first->virtual_s / n, "s", "virtual");
    r.put("virtual_j_per_ligand", first->energy_j / n, "J", "virtual");
  }
}

void run_traced(const Args& args, const DockingSpec& spec, const vs::ScreeningOptions& options,
                Result& r) {
  WallTimer t;
  util::ThreadPool::global();
  mol::Molecule receptor = make_workload_receptor(spec);
  std::vector<mol::Molecule> library =
      make_library(spec.ligands, util::hash_combine(args.seed, 1));
  const double build_s = t.seconds();
  t.reset();
  const std::size_t spots = surface::find_spots(receptor, options.spot_params).size();
  const double spots_s = t.seconds();
  Session s(std::move(receptor), std::move(library), spec.node, options);

  // Untraced screens before and after the traced one: the overhead ratio
  // uses their mean, so warm-up and drift do not land on one side.
  r.attempted += 3 * spec.ligands;
  const std::string path = stream_path(args, "untraced");
  const ScreenRun untraced = screen(s, spec, path);
  check_screen(r, untraced, spec);
  Layers acc;
  const TracedScreen traced = traced_screen(s, spec, stream_path(args, "traced"), acc);
  const ScreenRun again = screen(s, spec, path);
  r.check(traced.stream == untraced.stream && again.stream == untraced.stream,
          "traced docking chain streams hits byte-identical to the untraced screen");
  r.check(hits_digest(traced.retained) == hits_digest(untraced.result.retained),
          "traced retained hit list identical to the untraced one");
  note_fingerprint(r, fingerprint(untraced));

  t.reset();
  const vs::ResumeState resumed = vs::read_jsonl_hits(path);
  const double resume_s = t.seconds();
  r.check(resumed.hits.size() == spec.ligands && resumed.discarded_lines == 0,
          "resume reader recovers every streamed hit");
  const double standalone_s = standalone_seconds(s, acc);

  const auto ligands = static_cast<double>(acc.estimates);
  r.put("mol.build_s", build_s, "s", "host");
  r.put("surface.find_spots_s", spots_s, "s", "host");
  r.put("surface.spots", static_cast<double>(spots), "count", "count");
  r.put("scoring.kernel_s", acc.kernel_s, "s", "host");
  r.put("scoring.pairs", acc.pairs, "count", "count");
  r.put("scoring.pairs_per_s", acc.pairs / acc.kernel_s, "pairs/s", "host");
  r.put("scoring.standalone_pairs_per_s", acc.pairs / standalone_s, "pairs/s", "host");
  r.put("scoring.pipeline_efficiency", standalone_s / acc.kernel_s, "ratio", "host");
  r.put("gpusim.kernels", acc.kernels, "count", "count");
  r.put("gpusim.blocks_per_kernel", acc.kernel_blocks / acc.kernel_spans, "blocks", "count");
  r.put("gpusim.launch_overhead_s", acc.kernel_s - standalone_s, "s", "host");
  r.put("sched.dispatch_s", acc.eval_s - acc.kernel_s, "s", "host");
  r.put("sched.warmup_virtual_s", acc.warmup_virtual_s / ligands, "s", "virtual");
  r.put("sched.imbalance_ratio", acc.imbalance / ligands, "ratio", "virtual");
  r.put("sched.balance_efficiency", acc.balance / ligands, "ratio", "virtual");
  r.put("sched.estimate_s", acc.estimate_s / ligands, "s", "host");
  r.put("sched.cluster_estimate_s", 0.0, "s", "host");
  r.put("sched.cluster_messages", 0.0, "count", "count");
  r.put("sched.cluster_steals", 0.0, "count", "count");
  r.put("meta.self_s", acc.run_s - acc.eval_s, "s", "host");
  r.put("meta.evaluations", static_cast<double>(acc.evaluations), "count", "count");
  r.put("meta.batches", static_cast<double>(acc.batches), "count", "count");
  r.put("vs.self_s", traced.vs_self_s, "s", "host");
  r.put("vs.stream_bytes", static_cast<double>(untraced.stream.size()), "B", "count");
  r.put("vs.resume_read_s", resume_s, "s", "host");
  r.put("obs.trace_overhead_ratio", traced.wall_s / (0.5 * (untraced.wall_s + again.wall_s)),
        "ratio", "host");
}

}  // namespace

Result run_docking(const Args& args) {
  const DockingSpec spec = spec_for(args);
  const vs::ScreeningOptions options = screening_options(spec, args.seed);
  Result r;
  if (args.trace) {
    run_traced(args, spec, options, r);
  } else {
    run_untraced(args, spec, options, r);
  }
  return r;
}

}  // namespace perfbench
