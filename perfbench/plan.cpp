// campaign-plan: sizing a campaign without docking anything.
//
// One sweep is the paper-scale NodeExecutor::estimate rows of Tables 6-9
// (2BSM and 2BXG; Jupiter and Hertz; M1-M4; every column) plus a
// ClusterScreener::estimate sweep of a 1536-ligand library over 8/32/128
// mixed nodes x the four distribution policies, fault-free and with one
// node dying mid-campaign.  It runs the same sched/gpusim dispatch code as
// a screen, cost-only, plus the cluster event loop, with zero scoring.  The
// run repeats the sweep until its time budget is spent; every sweep must
// reproduce every modelled makespan bit for bit.
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "bench.h"
#include "meta/engine.h"
#include "meta/params.h"
#include "meta/trace.h"
#include "mol/synth.h"
#include "sched/cluster.h"
#include "sched/executor.h"
#include "sched/node_config.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "vs/cluster_screening.h"
#include "vs/screening.h"

namespace perfbench {
namespace {

using namespace metadock;
using util::WallTimer;

constexpr std::size_t kClusterLibrary = 1536;

/// Inputs of one sweep.  Problems point into the molecules, so the set-up
/// lives at a fixed address.
struct PlanSetup {
  explicit PlanSetup(const Args& args)
      : bsm_receptor(mol::make_dataset_receptor(mol::kDataset2BSM)),
        bsm_ligand(mol::make_dataset_ligand(mol::kDataset2BSM)),
        bxg_receptor(mol::make_dataset_receptor(mol::kDataset2BXG)),
        bxg_ligand(mol::make_dataset_ligand(mol::kDataset2BXG)),
        library(make_library(args.smoke ? 64 : kClusterLibrary, util::hash_combine(args.seed, 1))) {
    build_s = timer.seconds();
    bsm = meta::make_problem(bsm_receptor, bsm_ligand);
    bxg = meta::make_problem(bxg_receptor, bxg_ligand);
    vs::ScreeningOptions o;  // the `metadock cluster` defaults: M3 at scale 0.01
    o.params = meta::m3_scatter_light();
    o.scale = 0.01;
    o.seed = util::hash_combine(args.seed, 2);
    engine = std::make_unique<vs::VirtualScreeningEngine>(bsm_receptor, sched::hertz(), o);
    spots_s = timer.seconds() - build_s;
    // ClusterScreener::estimate prices every ligand relative to the first.
    representative.receptor = &bsm_receptor;
    representative.ligand = &library.front();
    representative.spots = engine->spots();
    representative.seed = o.seed;
    representative.ligand_radius = library.front().radius_about_centroid();
    cluster_params = o.params.scaled(o.scale);
  }
  PlanSetup(const PlanSetup&) = delete;
  PlanSetup& operator=(const PlanSetup&) = delete;

  WallTimer timer;
  mol::Molecule bsm_receptor, bsm_ligand, bxg_receptor, bxg_ligand;
  std::vector<mol::Molecule> library;
  meta::DockingProblem bsm, bxg, representative;
  std::unique_ptr<vs::VirtualScreeningEngine> engine;
  meta::MetaheuristicParams cluster_params;
  double build_s = 0.0;  // molecules and library
  double spots_s = 0.0;  // spot detection (problems + cluster engine)
};

struct Row {
  double wall_s = 0.0;
  double makespan_s = 0.0;
  double energy_j = 0.0;
  std::size_t ligands = 1;
  std::size_t nodes_lost = 0;
  bool cluster = false;
};

/// Per-layer accumulators of the traced sweep.
struct PlanLayers {
  double estimate_s = 0.0;
  std::size_t estimates = 0;
  double cluster_s = 0.0;
  std::size_t clusters = 0;
  double messages = 0.0;
  double steals = 0.0;
  double kernels = 0.0;
  double kernel_blocks = 0.0;
  double kernel_spans = 0.0;
  double warmup_virtual_s = 0.0;
  double imbalance = 0.0;
  double balance = 0.0;
  std::size_t het_rows = 0;
  double evaluations = 0.0;
  double batches = 0.0;
};

Row estimate_row(const sched::NodeConfig& node, sched::Strategy strategy,
                 const meta::DockingProblem& problem, const meta::MetaheuristicParams& params,
                 PlanLayers* layers) {
  sched::ExecutorOptions opts;
  opts.strategy = strategy;
  obs::Observer observer;
  if (layers != nullptr) opts.observer = &observer;
  const WallTimer t;
  sched::NodeExecutor exec(node, opts);
  const sched::ExecutionReport rep = exec.estimate(problem, params);
  Row row;
  row.wall_s = t.seconds();
  row.makespan_s = rep.makespan_seconds;
  row.energy_j = rep.energy_joules;
  if (layers == nullptr) return row;

  layers->estimate_s += row.wall_s;
  ++layers->estimates;
  for (const std::string& name : observer.metrics.counter_names()) {
    if (name.rfind("device.", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 8, 8, ".kernels") == 0) {
      layers->kernels += observer.metrics.counter(name).value();
    }
  }
  const KernelFanout fanout = kernel_fanout(observer.tracer);
  layers->kernel_blocks += fanout.blocks;
  layers->kernel_spans += fanout.launches;
  if (strategy == sched::Strategy::kHeterogeneous) {
    layers->warmup_virtual_s += rep.warmup_seconds;
    layers->imbalance += rep.imbalance_ratio;
    layers->balance += rep.balance_efficiency;
    ++layers->het_rows;
  }
  for (const sched::DeviceReport& d : rep.devices) {
    layers->evaluations += static_cast<double>(d.conformations);
  }
  layers->batches +=
      static_cast<double>(meta::WorkloadTrace::from_params(params).per_spot_batches.size());
  return row;
}

Row cluster_row(const PlanSetup& s, const std::vector<sched::NodeConfig>& nodes,
                sched::DistributionPolicy policy, const sched::ClusterOptions& options,
                PlanLayers* layers, Result& r) {
  const WallTimer t;
  vs::ClusterScreener screener(*s.engine, nodes, options);
  const sched::ClusterReport report = screener.estimate(s.library, policy);
  Row row;
  row.wall_s = t.seconds();
  row.makespan_s = report.makespan_seconds;
  row.ligands = s.library.size();
  row.nodes_lost = report.nodes_lost;
  row.cluster = true;
  r.check(std::accumulate(report.ligands_per_node.begin(), report.ligands_per_node.end(),
                          std::size_t{0}) == s.library.size(),
          "cluster plan credits every ligand to exactly one node");
  if (layers != nullptr) {
    layers->cluster_s += row.wall_s;
    ++layers->clusters;
    layers->messages += static_cast<double>(report.messages.total_count());
    layers->steals += static_cast<double>(report.steals);
  }
  return row;
}

std::vector<Row> sweep(const PlanSetup& s, const Args& args, Result& r, PlanLayers* layers) {
  std::vector<Row> rows;
  const auto attempt = [&](auto&& make_row) {
    ++r.attempted;
    try {
      rows.push_back(make_row());
    } catch (const std::exception& e) {
      ++r.failed;
      r.check(false, std::string("estimate threw: ") + e.what());
    }
  };

  // Tables 6-9: every column of every row.
  std::vector<meta::MetaheuristicParams> presets = meta::table4_presets();
  if (args.smoke) presets.resize(1);
  for (const meta::DockingProblem* problem : {&s.bsm, &s.bxg}) {
    for (const bool jupiter : {true, false}) {
      const sched::NodeConfig node = jupiter ? sched::jupiter() : sched::hertz();
      for (const meta::MetaheuristicParams& params : presets) {
        attempt([&] {
          return estimate_row(node, sched::Strategy::kCpu, *problem, params, layers);
        });
        if (jupiter) {
          attempt([&] {
            return estimate_row(sched::jupiter_homogeneous(), sched::Strategy::kHomogeneous,
                                *problem, params, layers);
          });
        }
        attempt([&] {
          return estimate_row(node, sched::Strategy::kHomogeneous, *problem, params, layers);
        });
        attempt([&] {
          return estimate_row(node, sched::Strategy::kHeterogeneous, *problem, params, layers);
        });
      }
    }
  }

  // The cluster cost model's per-node rows: the representative ligand on
  // each node type, which also prices the campaign's energy per ligand.
  for (const sched::NodeConfig& node : {sched::jupiter(), sched::hertz()}) {
    attempt([&] {
      return estimate_row(node, sched::Strategy::kHeterogeneous, s.representative,
                          s.cluster_params, layers);
    });
  }

  // Cluster sizing: 1 Jupiter : 3 Hertz nodes, every policy, with and
  // without a node death placed by the seed inside the fault-free makespan.
  const std::vector<std::size_t> sizes =
      args.smoke ? std::vector<std::size_t>{8} : std::vector<std::size_t>{8, 32, 128};
  for (const std::size_t n : sizes) {
    std::vector<sched::NodeConfig> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(i % 4 == 0 ? sched::jupiter() : sched::hertz());
    }
    const int victim = 1 + static_cast<int>(args.seed % (n - 1));
    const double at = 0.25 + 0.5 * static_cast<double>(util::hash_combine(args.seed, n) % 1000) /
                                 1000.0;
    for (const sched::DistributionPolicy policy :
         {sched::DistributionPolicy::kStatic, sched::DistributionPolicy::kStaticProportional,
          sched::DistributionPolicy::kDynamic, sched::DistributionPolicy::kWorkStealing}) {
      double fault_free_s = 0.0;
      attempt([&] {
        const Row row = cluster_row(s, nodes, policy, {}, layers, r);
        fault_free_s = row.makespan_s;
        return row;
      });
      attempt([&] {
        sched::ClusterOptions death;
        death.node_faults.kill(victim, fault_free_s * at);
        const Row row = cluster_row(s, nodes, policy, death, layers, r);
        r.check(row.nodes_lost == 1, "the scheduled node death fires");
        return row;
      });
    }
  }
  return rows;
}

std::uint64_t rows_digest(const std::vector<Row>& rows) {
  std::uint64_t h = fnv1a("");
  char buf[64];
  for (const Row& row : rows) {
    std::snprintf(buf, sizeof(buf), "%a %a %zu\n", row.makespan_s, row.energy_j, row.ligands);
    h = fnv1a(buf, h);
  }
  return h;
}

void run_untraced(const Args& args, Result& r) {
  // Set-ups come first: their allocation churn, interleaved, would slow the
  // sweeps that follow by a varying amount.  Sweeps then repeat while the
  // next one still fits the budget.
  const WallTimer budget;
  std::unique_ptr<PlanSetup> s;
  const std::size_t min_setups = args.smoke ? 2 : 3;
  const std::vector<double> setup_s = repeat_timed(min_setups, args.smoke ? 0.0 : 0.1, [&] {
    util::ThreadPool::global();  // first use starts the workers
    s = std::make_unique<PlanSetup>(args);
  });
  std::vector<double> sweep_s, row_s;
  std::vector<Row> first;
  while (sweep_s.size() < 2 || budget.seconds() + sweep_s.back() <= args.seconds) {
    const WallTimer t;
    const std::vector<Row> rows = sweep(*s, args, r, nullptr);
    sweep_s.push_back(t.seconds());
    for (const Row& row : rows) row_s.push_back(row.wall_s);
    if (first.empty()) first = rows;
    r.check(rows_digest(rows) == rows_digest(first),
            "every modelled makespan identical across sweeps");
  }

  double makespans = 0.0, planned = 0.0, table_j = 0.0, table_rows = 0.0;
  for (const Row& row : first) {
    makespans += row.makespan_s;
    planned += static_cast<double>(row.ligands);
    if (!row.cluster) {
      table_j += row.energy_j;
      table_rows += 1.0;
    }
  }
  r.unit_items = planned;
  r.samples = {
      {"item_s", row_s}, {"unit_s", sweep_s}, {"setup_s", setup_s}, {"plan_s", sweep_s}};
  r.put("peak_rss_mb", peak_rss_mb(), "MiB", "host");
  r.put("virtual_s_per_ligand", makespans / planned, "s", "virtual");
  r.put("virtual_j_per_ligand", table_j / table_rows, "J", "virtual");
  r.put("plan_virtual_s", makespans, "s", "virtual");
  r.note("plan_digest", json_string(hex(rows_digest(first))));
}

void run_traced(const Args& args, Result& r) {
  util::ThreadPool::global();
  const PlanSetup s(args);

  // Untraced sweeps before and after the traced one: the overhead ratio
  // uses their mean, so warm-up and drift do not land on one side.
  WallTimer t;
  const std::vector<Row> untraced = sweep(s, args, r, nullptr);
  double untraced_s = t.seconds();
  PlanLayers acc;
  t.reset();
  const std::vector<Row> traced = sweep(s, args, r, &acc);
  const double traced_s = t.seconds();
  t.reset();
  const std::vector<Row> again = sweep(s, args, r, nullptr);
  untraced_s = 0.5 * (untraced_s + t.seconds());
  r.check(rows_digest(traced) == rows_digest(untraced) &&
              rows_digest(again) == rows_digest(untraced),
          "traced sweep models the same makespans as the untraced one");
  r.note("plan_digest", json_string(hex(rows_digest(untraced))));

  const auto het = static_cast<double>(acc.het_rows);
  r.put("mol.build_s", s.build_s, "s", "host");
  r.put("surface.find_spots_s", s.spots_s, "s", "host");
  r.put("surface.spots",
        static_cast<double>(s.bsm.spots.size() + s.bxg.spots.size()), "count", "count");
  r.put("scoring.kernel_s", 0.0, "s", "host");
  r.put("scoring.pairs", 0.0, "count", "count");
  r.put("scoring.pairs_per_s", 0.0, "pairs/s", "host");
  r.put("scoring.standalone_pairs_per_s", 0.0, "pairs/s", "host");
  r.put("scoring.pipeline_efficiency", 0.0, "ratio", "host");
  r.put("gpusim.kernels", acc.kernels, "count", "count");
  r.put("gpusim.blocks_per_kernel", acc.kernel_blocks / acc.kernel_spans, "blocks", "count");
  r.put("gpusim.launch_overhead_s", 0.0, "s", "host");
  // Everything an estimate does is cost-only dispatch replay.
  r.put("sched.dispatch_s", acc.estimate_s, "s", "host");
  r.put("sched.warmup_virtual_s", acc.warmup_virtual_s / het, "s", "virtual");
  r.put("sched.imbalance_ratio", acc.imbalance / het, "ratio", "virtual");
  r.put("sched.balance_efficiency", acc.balance / het, "ratio", "virtual");
  r.put("sched.estimate_s", acc.estimate_s / static_cast<double>(acc.estimates), "s", "host");
  r.put("sched.cluster_estimate_s", acc.cluster_s / static_cast<double>(acc.clusters), "s",
        "host");
  r.put("sched.cluster_messages", acc.messages, "count", "count");
  r.put("sched.cluster_steals", acc.steals, "count", "count");
  r.put("meta.self_s", 0.0, "s", "host");
  r.put("meta.evaluations", acc.evaluations, "count", "count");
  r.put("meta.batches", acc.batches, "count", "count");
  r.put("vs.self_s", 0.0, "s", "host");
  r.put("vs.stream_bytes", 0.0, "B", "count");
  r.put("vs.resume_read_s", 0.0, "s", "host");
  r.put("obs.trace_overhead_ratio", traced_s / untraced_s, "ratio", "host");
}

}  // namespace

Result run_plan(const Args& args) {
  Result r;
  if (args.trace) {
    run_traced(args, r);
  } else {
    run_untraced(args, r);
  }
  return r;
}

}  // namespace perfbench
