// Multi-node cluster simulation — the paper's future-work direction:
// "adapt our virtual screening method to more complex systems comprising
// several computational nodes working together with the message-passing
// paradigm, and each node with several computational components".
//
// A virtual-screening campaign (one docking run per library ligand) is
// distributed across heterogeneous nodes by an event-driven simulator on a
// shared virtual clock.  Communication is MPI-style through NetworkModel
// (see sched/message.h): the receptor is broadcast once over a tree,
// ligands move as priced messages, and per-ligand results return to the
// master.  Four distribution policies:
//
//   * kStatic             — blind round-robin (ligand i -> node i % N), the
//                           baseline every other policy improves on;
//   * kStaticProportional — Eq. 1 applied across nodes: contiguous shards
//                           sized by measured node throughput, split by
//                           per-ligand cost, sent once up front;
//   * kDynamic            — master/worker: an idle node pulls the next
//                           ligand; every pull serializes on the master's
//                           control plane (NetworkModel::master_service_s),
//                           so per-ligand dispatch stops scaling with N;
//   * kWorkStealing       — proportional warm-start plus continuous
//                           rebalancing: a node whose remaining-work
//                           estimate falls below a threshold steals ligand
//                           blocks from the straggler with the largest
//                           backlog, and when no queued work is left it can
//                           take over an in-flight docking at a generation
//                           boundary (the victim ships its population
//                           state).  Steal brokering and block transfer are
//                           on the critical path.
//
// Whole-node faults reuse gpusim::FaultPlan with the *node index* as the
// ordinal: `kill(n, t)` kills node n outright at virtual time t (its queue
// and in-flight docking are reassigned to survivors once the failure
// detector fires; results already returned to the master are kept and
// never re-docked), and `straggle(n, t, k)` slows every ligand on node n
// by k after t — the whole-node analogue of PR 1's device faults.
//
// The simulator prices *time*; docking *numerics* are node-placement
// independent, so vs::ClusterScreener pairs a ClusterReport from here with
// per-ligand results that are bit-identical to single-node screen().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "gpusim/fault_plan.h"
#include "meta/engine.h"
#include "meta/params.h"
#include "obs/observer.h"
#include "sched/executor.h"
#include "sched/message.h"
#include "sched/node_config.h"

namespace metadock::sched {

enum class DistributionPolicy { kStatic, kStaticProportional, kDynamic, kWorkStealing };

[[nodiscard]] std::string_view policy_name(DistributionPolicy policy);

/// Tracer tid for a cluster node's track ("node.N <name>" in the exported
/// trace); above the device/stream track ranges.
inline constexpr int kClusterTrackBase = 1 << 22;
[[nodiscard]] constexpr int cluster_node_track(int node) noexcept {
  return kClusterTrackBase + node;
}

struct ClusterOptions {
  NetworkModel network;
  /// Per-node executor stack (strategy, warm-up, device fault plan, ...)
  /// used to derive each node's throughput.
  ExecutorOptions node_options;
  /// Remaining-work level (virtual seconds) below which a kWorkStealing
  /// node solicits more work *before* it runs dry, hiding the brokering
  /// round trip behind its in-flight docking.  <= 0 selects the default:
  /// the larger of twice the node's mean per-ligand time and 10% of the
  /// campaign's balanced-parallel phase (so end-game rebalancing starts
  /// while nodes still have own work to overlap it with).
  double steal_threshold_s = 0.0;
  /// Node-death / node-straggle schedule; ordinal = node index.
  gpusim::FaultPlan node_faults;
  /// Observability sink (nullable = off): sched.cluster.* metrics plus a
  /// per-node tracer track of docking segments (see DESIGN.md §15).
  obs::Observer* observer = nullptr;
};

/// The cost-model inputs of one campaign, decoupled from DockingProblem so
/// tests can drive the event simulator with synthetic node speeds.
struct ClusterWorkload {
  /// Seconds each node needs for a ligand of cost 1.0 (the representative
  /// ligand); size must equal the cluster's node count.
  std::vector<double> node_base_seconds;
  /// Per-ligand cost multiplier (atom count relative to the representative:
  /// the pair sum is receptor_atoms x ligand_atoms).
  std::vector<double> ligand_cost;
  /// Sequential checkpoints per docking (metaheuristic generations).  An
  /// in-flight steal hands the unstarted tail of these units to the thief;
  /// 1 makes every docking indivisible.
  std::size_t units_per_ligand = 1;
  /// Message payloads (see sched/message.h for the derivation helpers).
  double receptor_bytes = 100e3;
  /// Dispatch payload for a ligand of cost 1.0 (scaled by ligand_cost).
  double ligand_bytes = 1024.0;
  /// Population state shipped by an in-flight handoff.
  double state_bytes = 16e3;
};

struct ClusterReport {
  DistributionPolicy policy = DistributionPolicy::kStatic;
  /// Virtual time the master received the campaign's last result.
  double makespan_seconds = 0.0;
  /// Network seconds summed over every send plus master service time (the
  /// comm bill, most of it overlapped with computation).
  double comm_seconds = 0.0;
  /// Per node: when the master received its last result (time of the
  /// receptor broadcast for a node that returned nothing).  The makespan
  /// is the max over these.
  std::vector<double> node_seconds;
  /// Results credited per node; sums to the library size (a ligand counts
  /// for the node whose result the master accepted).
  std::vector<std::size_t> ligands_per_node;
  /// Compute-busy seconds per node (excludes idle and transfer waits).
  std::vector<double> node_busy_seconds;
  /// Per ligand: node whose result the master accepted.
  std::vector<int> docked_on;
  /// Per ligand: compute seconds charged across the cluster, including
  /// work lost to node death and re-docked on a survivor.
  std::vector<double> ligand_seconds;
  /// mean / max node_busy_seconds over nodes that docked work.
  double balance_efficiency = 1.0;
  MessageStats messages;
  std::size_t steals = 0;           // granted steal requests
  std::size_t stolen_ligands = 0;   // queued ligands moved by steals
  std::size_t handoffs = 0;         // in-flight dockings migrated
  std::size_t failed_steals = 0;    // brokered requests that found no work
  std::size_t nodes_lost = 0;       // whole-node deaths
  std::size_t reassigned_ligands = 0;  // queued ligands moved off dead nodes
  std::size_t redocked_ligands = 0;    // in-flight at death, restarted
};

class ClusterSim {
 public:
  ClusterSim(std::vector<NodeConfig> nodes, ClusterOptions options = {});

  /// Times a screening campaign.  `problem` provides the receptor, spots
  /// and a representative ligand; `ligand_atom_counts` gives the library
  /// (per-ligand cost scales with its atom count).  Each node's base speed
  /// comes from a NodeExecutor::estimate replay of `params` on its device
  /// stack; the event simulator then plays the campaign out.
  [[nodiscard]] ClusterReport screen_estimate(const meta::DockingProblem& problem,
                                              const std::vector<std::size_t>& ligand_atom_counts,
                                              const meta::MetaheuristicParams& params,
                                              DistributionPolicy policy) const;

  /// Builds the cost-model inputs screen_estimate feeds the simulator —
  /// exposed so the vs layer can shard a real library with the same costs.
  [[nodiscard]] ClusterWorkload workload_for(const meta::DockingProblem& problem,
                                             const std::vector<std::size_t>& ligand_atom_counts,
                                             const meta::MetaheuristicParams& params) const;

  /// The event-driven core: plays one campaign on the shared virtual
  /// clock.  Throws std::invalid_argument on malformed workloads and
  /// std::runtime_error when every node dies with work outstanding.
  [[nodiscard]] ClusterReport simulate(const ClusterWorkload& workload,
                                       DistributionPolicy policy) const;

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] const std::vector<NodeConfig>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] const ClusterOptions& options() const noexcept { return options_; }

 private:
  std::vector<NodeConfig> nodes_;
  ClusterOptions options_;
};

}  // namespace metadock::sched
