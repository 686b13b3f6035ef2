// MPI-style message layer for the multi-node cluster simulator.
//
// Every byte that crosses the interconnect is priced by message_time_s
// (latency + bandwidth, the alpha-beta model), and every send is accounted
// per message kind in MessageStats so a ClusterReport can show where the
// communication time went.  The master additionally serializes its
// *control plane*: dispatch decisions, steal brokering and death handling
// occupy the master for kMasterServiceS each — the classic master/worker
// scaling ceiling that continuous work stealing exists to avoid.  Result
// returns sink through a parallel collector and pay network time only.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace metadock::sched {

/// Every message class the cluster protocol sends.
enum class MessageKind {
  kBroadcast = 0,    // receptor to all nodes (tree)
  kShardSend,        // initial ligand shard to one node (static/stealing)
  kPullRequest,      // idle worker asks the master for a ligand (dynamic)
  kDispatch,         // master ships one ligand (dynamic) or a reassigned block
  kResultReturn,     // per-ligand best pose back to the master
  kStealRequest,     // under-threshold node asks the master for work
  kStealForward,     // master forwards the request to the chosen victim
  kStealBlock,       // victim ships queued ligands (or a grant denial)
  kHandoffState,     // victim ships an in-flight ligand's population state
  kDeathNotice,      // failure detector: master learns a node died
};
inline constexpr std::size_t kMessageKindCount = 10;

[[nodiscard]] std::string_view message_name(MessageKind kind);

/// Wire sizes (bytes).  Control messages are tiny and latency-bound;
/// ligand descriptors and population state scale with the science payload.
inline constexpr double kControlBytes = 64.0;
inline constexpr double kResultBytes = 512.0;

/// The interconnect every message of a cluster campaign crosses: latency
/// (seconds) and bandwidth (GB/s) of a commodity network.
inline constexpr double kNetworkLatencyS = 50e-6;
inline constexpr double kNetworkBandwidthGbs = 5.0;
/// Master control-plane serialization: each pull request, steal brokering
/// step, shard dispatch and death reassignment occupies the master for this
/// long.  With N nodes pulling one ligand at a time the master saturates at
/// 1/kMasterServiceS dispatches per second — the reason per-ligand
/// master/worker stops scaling before work stealing.
inline constexpr double kMasterServiceS = 1e-4;
/// Failure-detector timeout: virtual seconds between a node dying and the
/// master learning about it (heartbeat loss) and starting to reassign the
/// dead node's shard.
inline constexpr double kDeathDetectS = 2e-3;

/// Seconds one message of `bytes` takes on the interconnect.
[[nodiscard]] constexpr double message_time_s(double bytes) {
  return kNetworkLatencyS + bytes / (kNetworkBandwidthGbs * 1e9);
}

/// Receptor broadcast payload: coordinates + element + charge per atom.
[[nodiscard]] constexpr double receptor_payload_bytes(std::size_t receptor_atoms) {
  return 17.0 * static_cast<double>(receptor_atoms);
}

/// One ligand's dispatch payload: descriptor plus coordinates/topology.
[[nodiscard]] constexpr double ligand_payload_bytes(std::size_t ligand_atoms) {
  return 64.0 + 24.0 * static_cast<double>(ligand_atoms);
}

/// Population state shipped when an in-flight docking migrates at a
/// generation boundary: one pose + score per individual.
[[nodiscard]] constexpr double handoff_state_bytes(std::size_t population) {
  return 128.0 + 36.0 * static_cast<double>(population);
}

/// Per-kind send accounting for one simulated campaign.
struct MessageStats {
  struct Entry {
    std::uint64_t count = 0;
    double seconds = 0.0;
  };
  std::array<Entry, kMessageKindCount> by_kind{};
  /// Seconds the master's control plane spent serialized on handling.
  double master_service_seconds = 0.0;

  void record(MessageKind kind, double seconds) {
    Entry& e = by_kind[static_cast<std::size_t>(kind)];
    ++e.count;
    e.seconds += seconds;
  }

  [[nodiscard]] const Entry& of(MessageKind kind) const {
    return by_kind[static_cast<std::size_t>(kind)];
  }

  [[nodiscard]] std::uint64_t total_count() const {
    std::uint64_t n = 0;
    for (const Entry& e : by_kind) n += e.count;
    return n;
  }

  /// Network seconds over all sends (excludes master service, which is
  /// reported separately — it overlaps transfers of other messages).
  [[nodiscard]] double total_seconds() const {
    double s = 0.0;
    for (const Entry& e : by_kind) s += e.seconds;
    return s;
  }
};

}  // namespace metadock::sched
