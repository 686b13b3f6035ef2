// Multi-node scaling — the event-driven cluster simulator (DESIGN.md §15).
//
// Screens a 1536-ligand 2BSM campaign on simulated clusters of 8/32/128
// mixed nodes (1x Jupiter : 3x Hertz) under all four distribution policies,
// in two fault arms:
//
//   * fault-free  — healthy cluster;
//   * node-death  — node 1 straggles 8x a quarter into the campaign, and
//     nodes 2 and 5 die outright at 1/3 and 1/2 of the reference makespan
//     (the reference is the fault-free proportional-split run of that
//     cluster size, so fault times scale with N).
//
// Every number is virtual time from the shared clock, so the emitted
// BENCH_cluster.json is deterministic and tools/check_bench_cluster.py can
// hold hard gates against it: stealing must keep >= 70% scaling efficiency
// at 32 nodes fault-free, and must beat the dynamic master/worker on
// makespan at 32 nodes in the straggler/death arm.
//
//   scaling_efficiency = (hertz_work_seconds / makespan) / ideal_speedup
//
// where hertz_work_seconds is the campaign's total compute on one Hertz
// node and ideal_speedup is the cluster's aggregate speed in Hertz units —
// 1.0 means perfect balance with zero communication cost.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "meta/engine.h"
#include "mol/library.h"
#include "mol/synth.h"
#include "sched/cluster.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace metadock;

constexpr std::size_t kLibraryLigands = 1536;
constexpr std::size_t kMinAtoms = 20;
constexpr std::size_t kMaxAtoms = 60;
constexpr double kStraggleFactor = 8.0;

std::vector<sched::NodeConfig> mixed_cluster(int n) {
  std::vector<sched::NodeConfig> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    nodes.push_back(i % 4 == 0 ? sched::jupiter() : sched::hertz());
  }
  return nodes;
}

struct Row {
  int nodes = 0;
  sched::DistributionPolicy policy = sched::DistributionPolicy::kStatic;
  std::string faults;
  sched::ClusterReport report;
  double speedup = 0.0;
  double ideal_speedup = 0.0;
  double efficiency = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string emit_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--emit-json=";
    if (arg.rfind(prefix, 0) == 0) emit_path = arg.substr(prefix.size());
  }

  const mol::Molecule receptor = mol::make_dataset_receptor(mol::kDataset2BSM);
  const mol::Molecule ligand = mol::make_dataset_ligand(mol::kDataset2BSM);
  const meta::DockingProblem problem = meta::make_problem(receptor, ligand);
  const meta::MetaheuristicParams params = meta::m3_scatter_light();

  mol::LibraryParams lib;
  lib.count = kLibraryLigands;
  lib.min_atoms = kMinAtoms;
  lib.max_atoms = kMaxAtoms;
  std::vector<std::size_t> atoms;
  for (const auto& m : mol::make_ligand_library(lib)) atoms.push_back(m.size());

  // Hertz-unit yardsticks, shared by every cluster size.
  const double hertz_base = [&] {
    sched::ClusterSim one({sched::hertz()});
    return one.workload_for(problem, atoms, params).node_base_seconds[0];
  }();

  std::vector<Row> rows;
  const sched::DistributionPolicy policies[] = {
      sched::DistributionPolicy::kStatic, sched::DistributionPolicy::kStaticProportional,
      sched::DistributionPolicy::kDynamic, sched::DistributionPolicy::kWorkStealing};

  double hertz_work = 0.0;
  std::size_t units_per_ligand = 0;
  for (const int n : {8, 32, 128}) {
    sched::ClusterSim healthy(mixed_cluster(n));
    const sched::ClusterWorkload w = healthy.workload_for(problem, atoms, params);
    units_per_ligand = w.units_per_ligand;
    hertz_work = hertz_base *
                 std::accumulate(w.ligand_cost.begin(), w.ligand_cost.end(), 0.0);
    double ideal = 0.0;
    for (double base : w.node_base_seconds) ideal += hertz_base / base;

    // Fault times scale with the cluster: anchor them to the fault-free
    // proportional split so every size sees a mid-campaign event.
    const double ref =
        healthy.simulate(w, sched::DistributionPolicy::kStaticProportional).makespan_seconds;
    sched::ClusterOptions death_opt;
    death_opt.node_faults.straggle(1, ref / 4.0, kStraggleFactor)
        .kill(2, ref / 3.0)
        .kill(5, ref / 2.0);
    sched::ClusterSim wounded(mixed_cluster(n), death_opt);

    for (const sched::DistributionPolicy policy : policies) {
      for (const bool death : {false, true}) {
        Row row;
        row.nodes = n;
        row.policy = policy;
        row.faults = death ? "node-death" : "fault-free";
        row.report = (death ? wounded : healthy).simulate(w, policy);
        row.speedup = hertz_work / row.report.makespan_seconds;
        row.ideal_speedup = ideal;
        row.efficiency = row.speedup / ideal;
        rows.push_back(std::move(row));
      }
    }
  }

  util::Table t("Multi-node scaling — " + std::to_string(kLibraryLigands) +
                "-ligand campaign, 2BSM, M3, mixed 1:3 Jupiter:Hertz (1x Hertz = " +
                util::Table::num(hertz_work) + " s of compute)");
  t.header({"nodes", "policy", "faults", "makespan s", "speedup", "efficiency", "steals",
            "handoffs", "redocked"});
  for (const Row& r : rows) {
    t.row({std::to_string(r.nodes), std::string(sched::policy_name(r.policy)), r.faults,
           util::Table::num(r.report.makespan_seconds), util::Table::num(r.speedup),
           util::Table::num(r.efficiency),
           std::to_string(r.report.steals + r.report.stolen_ligands),
           std::to_string(r.report.handoffs), std::to_string(r.report.redocked_ligands)});
  }
  t.print();
  std::printf("\nstealing holds proportional-split efficiency through stragglers and node\n"
              "death; per-ligand dynamic dispatch pays the master's control plane at scale.\n");

  if (emit_path.empty()) return 0;

  util::JsonWriter jw;
  jw.begin_object();
  jw.key("schema").value("metadock.bench_cluster/1");
  jw.key("config").begin_object();
  jw.key("dataset").value("2BSM");
  jw.key("mh").value(params.name);
  jw.key("library_ligands").value(static_cast<std::uint64_t>(kLibraryLigands));
  jw.key("min_atoms").value(static_cast<std::uint64_t>(kMinAtoms));
  jw.key("max_atoms").value(static_cast<std::uint64_t>(kMaxAtoms));
  jw.key("units_per_ligand").value(static_cast<std::uint64_t>(units_per_ligand));
  jw.key("node_pattern").value("1x jupiter : 3x hertz");
  jw.key("straggle_factor").value(kStraggleFactor);
  jw.key("hertz_base_seconds").value(hertz_base);
  jw.key("hertz_work_seconds").value(hertz_work);
  jw.key("network").begin_object();
  jw.key("latency_s").value(sched::kNetworkLatencyS);
  jw.key("bandwidth_gbs").value(sched::kNetworkBandwidthGbs);
  jw.key("master_service_s").value(sched::kMasterServiceS);
  jw.key("death_detect_s").value(sched::kDeathDetectS);
  jw.end_object();
  jw.end_object();
  jw.key("results").begin_array();
  for (const Row& r : rows) {
    const std::size_t docked = std::accumulate(r.report.ligands_per_node.begin(),
                                               r.report.ligands_per_node.end(), std::size_t{0});
    jw.begin_object();
    jw.key("nodes").value(r.nodes);
    jw.key("policy").value(std::string(sched::policy_name(r.policy)));
    jw.key("faults").value(r.faults);
    jw.key("makespan_seconds").value(r.report.makespan_seconds);
    jw.key("comm_seconds").value(r.report.comm_seconds);
    jw.key("speedup_vs_hertz").value(r.speedup);
    jw.key("ideal_speedup").value(r.ideal_speedup);
    jw.key("scaling_efficiency").value(r.efficiency);
    jw.key("balance_efficiency").value(r.report.balance_efficiency);
    jw.key("ligands_docked").value(static_cast<std::uint64_t>(docked));
    jw.key("messages").value(r.report.messages.total_count());
    jw.key("steals").value(static_cast<std::uint64_t>(r.report.steals));
    jw.key("stolen_ligands").value(static_cast<std::uint64_t>(r.report.stolen_ligands));
    jw.key("handoffs").value(static_cast<std::uint64_t>(r.report.handoffs));
    jw.key("failed_steals").value(static_cast<std::uint64_t>(r.report.failed_steals));
    jw.key("nodes_lost").value(static_cast<std::uint64_t>(r.report.nodes_lost));
    jw.key("reassigned_ligands")
        .value(static_cast<std::uint64_t>(r.report.reassigned_ligands));
    jw.key("redocked_ligands").value(static_cast<std::uint64_t>(r.report.redocked_ligands));
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();

  std::ofstream out(emit_path);
  if (!out) {
    std::fprintf(stderr, "bench_ablation_multinode: cannot write %s\n", emit_path.c_str());
    return 1;
  }
  out << jw.str() << "\n";
  std::printf("wrote %s\n", emit_path.c_str());
  return 0;
}
