#include "sched/cluster.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/sync.h"

namespace metadock::sched {

std::string_view policy_name(DistributionPolicy policy) {
  switch (policy) {
    case DistributionPolicy::kStatic: return "static";
    case DistributionPolicy::kStaticProportional: return "static-prop";
    case DistributionPolicy::kDynamic: return "dynamic";
    case DistributionPolicy::kWorkStealing: return "stealing";
  }
  return "unknown";
}

ClusterSim::ClusterSim(std::vector<NodeConfig> nodes, ClusterOptions options)
    : nodes_(std::move(nodes)), options_(std::move(options)) {
  if (nodes_.empty()) throw std::invalid_argument("ClusterSim: need at least one node");
}

ClusterWorkload ClusterSim::workload_for(const meta::DockingProblem& problem,
                                         const std::vector<std::size_t>& ligand_atom_counts,
                                         const meta::MetaheuristicParams& params) const {
  ClusterWorkload w;
  const auto representative_atoms = static_cast<double>(problem.ligand->size());

  // Per-node time for the representative ligand, replayed once per distinct
  // node configuration through the default executor stack, unobserved: the
  // cluster observer must not see N warm-up probes.
  std::map<std::string, double> base_by_name;
  w.node_base_seconds.reserve(nodes_.size());
  for (const NodeConfig& node : nodes_) {
    auto it = base_by_name.find(node.name);
    if (it == base_by_name.end()) {
      NodeExecutor exec(node, ExecutorOptions{});
      it = base_by_name.emplace(node.name, exec.estimate(problem, params).makespan_seconds)
               .first;
    }
    w.node_base_seconds.push_back(it->second);
  }

  w.ligand_cost.reserve(ligand_atom_counts.size());
  for (std::size_t atoms : ligand_atom_counts) {
    w.ligand_cost.push_back(static_cast<double>(atoms) / representative_atoms);
  }
  w.units_per_ligand = static_cast<std::size_t>(std::max(1, params.generations));
  w.receptor_bytes = receptor_payload_bytes(problem.receptor->size());
  w.ligand_bytes = ligand_payload_bytes(problem.ligand->size());
  w.state_bytes = handoff_state_bytes(static_cast<std::size_t>(params.population_per_spot) *
                                      problem.spots.size());
  return w;
}

ClusterReport ClusterSim::screen_estimate(const meta::DockingProblem& problem,
                                          const std::vector<std::size_t>& ligand_atom_counts,
                                          const meta::MetaheuristicParams& params,
                                          DistributionPolicy policy) const {
  return simulate(workload_for(problem, ligand_atom_counts, params), policy);
}

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

enum class Ev : std::uint8_t {
  kLigandDone,
  kResultArrive,
  kPullArrive,
  kDispatchArrive,
  kStealReqArrive,
  kStealForwardArrive,
  kBlockArrive,
  kHandoffCut,
  kHandoffArrive,
  kNodeDeath,
  kDeathDetect,
};

struct Event {
  double t = 0.0;
  std::uint64_t seq = 0;  // deterministic tie-break: insertion order
  Ev kind = Ev::kLigandDone;
  int node = -1;           // acting node (thief/victim/worker, per kind)
  std::uint32_t lig = 0;
  int aux = -1;            // peer node, block index, or remaining units
  std::uint64_t epoch = 0; // run-segment validity stamp
  int aux2 = -1;           // kHandoffCut only: remaining units for the thief
};

/// True when `a` pops before `b`.  `seq` is unique, so this is a strict
/// total order.
bool pops_before(double at, std::uint64_t aseq, double bt, std::uint64_t bseq) {
  return at < bt || (at == bt && aseq < bseq);
}

/// Streams whose send times never decrease get a FIFO lane in EventQueue:
/// result returns (pop time + one result message), node-side control
/// messages (pop time + one control message: pull and steal requests, a
/// victim's or a cancelled handoff's denial) and master-side control
/// messages (master handling time, which never decreases, + one control
/// message: steal forwards and the master's denials).  Everything else
/// goes to the heap.
enum class Stream : std::uint8_t { kResult, kNodeControl, kMasterControl, kHeap };
constexpr std::size_t kLanes = 3;

/// FIFO ring of events; capacity is a power of two and doubles when full.
class Lane {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const Event& front() const { return ring_[head_]; }
  [[nodiscard]] const Event& back() const { return ring_[(head_ + size_ - 1) & mask()]; }
  void push_back(const Event& e) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & mask()] = e;
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask();
    --size_;
  }

 private:
  [[nodiscard]] std::size_t mask() const { return ring_.size() - 1; }
  void grow() {
    std::vector<Event> bigger(std::max<std::size_t>(16, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = ring_[(head_ + i) & mask()];
    ring_.swap(bigger);
    head_ = 0;
  }

  std::vector<Event> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Pending events, popped in strict (t, seq) order: a 4-ary min-heap of
/// 16-byte keys, each naming its payload's slot (freed slots are reused),
/// merged with one FIFO lane per non-decreasing stream.  A lane takes an
/// event only when it is not earlier than the lane's tail, so every lane
/// stays sorted whatever a caller sends, and pop() yields the least key
/// of the heap top and the lane heads: the same sequence a single heap
/// over all events pops (DESIGN.md §15.2).
class EventQueue {
 public:
  [[nodiscard]] bool empty() const {
    if (!heap_.empty()) return false;
    for (const Lane& lane : lanes_) {
      if (!lane.empty()) return false;
    }
    return true;
  }

  void push(Stream stream, const Event& e) {
    if (stream != Stream::kHeap) {
      Lane& lane = lanes_[static_cast<std::size_t>(stream)];
      if (lane.empty() || e.t >= lane.back().t) {
        lane.push_back(e);
        return;
      }
    }
    std::uint32_t slot = 0;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(e);
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = e;
    }
    heap_.push_back(Key{e.t, slot});
    sift_up(heap_.size() - 1);
  }

  /// Removes and returns the least (t, seq) event; the queue must not be
  /// empty.
  Event pop() {
    Lane* best = nullptr;
    double t = 0.0;
    std::uint64_t seq = 0;
    if (!heap_.empty()) {
      t = heap_.front().t;
      seq = slots_[heap_.front().slot].seq;
    }
    for (Lane& lane : lanes_) {
      if (lane.empty()) continue;
      const Event& head = lane.front();
      if ((best == nullptr && heap_.empty()) || pops_before(head.t, head.seq, t, seq)) {
        best = &lane;
        t = head.t;
        seq = head.seq;
      }
    }
    if (best != nullptr) {
      const Event e = best->front();
      best->pop_front();
      return e;
    }
    const std::uint32_t slot = heap_.front().slot;
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    free_.push_back(slot);
    return slots_[slot];
  }

 private:
  struct Key {
    double t;
    std::uint32_t slot;
  };
  static constexpr std::size_t kArity = 4;

  [[nodiscard]] bool before(const Key& a, const Key& b) const {
    return a.t < b.t || (a.t == b.t && slots_[a.slot].seq < slots_[b.slot].seq);
  }
  void sift_up(std::size_t i) {
    const Key k = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }
  /// Re-seats `k` from the root down (the root's old key is gone).
  void sift_down(const Key k) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      std::size_t least = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[least])) least = c;
      }
      if (!before(heap_[least], k)) break;
      heap_[i] = heap_[least];
      i = least;
    }
    heap_[i] = k;
  }

  std::vector<Key> heap_;
  std::vector<Event> slots_;
  std::vector<std::uint32_t> free_;
  std::array<Lane, kLanes> lanes_;
};

/// FIFO over one flat vector: pops advance a head index, and the storage
/// rewinds whenever the queue empties.
template <typename T>
class FlatQueue {
 public:
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }
  [[nodiscard]] const T& front() const { return items_[head_]; }
  [[nodiscard]] const T& back() const { return items_.back(); }
  [[nodiscard]] auto begin() { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  [[nodiscard]] auto end() { return items_.end(); }
  [[nodiscard]] auto begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  [[nodiscard]] auto end() const { return items_.end(); }
  void push_back(const T& v) { items_.push_back(v); }
  void pop_front() {
    if (++head_ == items_.size()) clear();
  }
  void pop_back() {
    items_.pop_back();
    if (head_ == items_.size()) clear();
  }
  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// A node's queued ligands, front to back, with the cached front-to-back
/// fold of their work (`local_backlog_s`'s first term).  `push_back`
/// extends a valid fold by the same addition the fold's loop makes last;
/// every other change leaves a stale fold (or an empty queue's exact 0.0),
/// recomputed by the next query.
class LigandQueue {
 public:
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::uint32_t front() const { return items_.front(); }
  [[nodiscard]] std::uint32_t back() const { return items_.back(); }
  [[nodiscard]] auto begin() const { return items_.begin(); }
  [[nodiscard]] auto end() const { return items_.end(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  void push_back(std::uint32_t lig, double work) {
    items_.push_back(lig);
    if (fold_valid_) fold_ += work;
  }
  void pop_front() {
    items_.pop_front();
    mark_stale();
  }
  void pop_back() {
    items_.pop_back();
    mark_stale();
  }
  template <typename Less>
  void stable_sort(Less less) {
    if (std::is_sorted(items_.begin(), items_.end(), less)) return;
    std::stable_sort(items_.begin(), items_.end(), less);
    mark_stale();
  }
  void clear() {
    items_.clear();
    mark_stale();
  }

  /// The fold, recomputed from `work(lig)` when stale.
  template <typename Work>
  double fold(Work work) {
    if (!fold_valid_) {
      double sum = 0.0;
      for (std::uint32_t lig : items_) sum += work(lig);
      fold_ = sum;
      fold_valid_ = true;
    }
    return fold_;
  }

  /// fold(work) >= threshold.  On a stale fold, true at the first prefix
  /// sum that reaches `threshold`: the rest of the fold only adds work
  /// >= 0, and IEEE rounding is monotone.
  template <typename Work>
  bool fold_reaches(Work work, double threshold) {
    if (!fold_valid_) {
      double sum = 0.0;
      for (std::uint32_t lig : items_) {
        sum += work(lig);
        if (sum >= threshold) return true;
      }
      fold_ = sum;
      fold_valid_ = true;
    }
    return fold_ >= threshold;
  }

 private:
  void mark_stale() {
    fold_ = 0.0;
    fold_valid_ = items_.empty();
  }

  FlatQueue<std::uint32_t> items_;
  double fold_ = 0.0;
  bool fold_valid_ = true;
};

struct NodeState {
  bool alive = true;
  double straggle_after = kNever;
  double straggle_factor = 1.0;
  LigandQueue queue;
  // Current run segment: `seg_units` units of `current` starting at
  // `seg_start` with nominal `unit_work_s` seconds per unit.
  bool busy = false;
  std::uint32_t current = 0;
  double seg_start = 0.0;
  std::size_t seg_units = 0;
  double unit_work_s = 0.0;
  std::uint64_t epoch = 0;
  // An in-flight docking handed over mid-steal lands here when the thief
  // picked up other work in the meantime; it runs before the queue.
  bool has_partial = false;
  std::uint32_t partial_lig = 0;
  std::size_t partial_units = 0;
  bool steal_outstanding = false;
  double busy_seconds = 0.0;
  double last_result_arrival = 0.0;
  std::size_t credited = 0;
  double base = 0.0;   // seconds per cost-1.0 ligand
  double speed = 0.0;  // 1 / base
  double threshold_s = 0.0;
  std::vector<std::uint32_t> staged_lost;  // filled at death, drained at detect
};

/// The whole campaign simulation; one instance per simulate() call.
class CampaignSim {
 public:
  CampaignSim(const std::vector<NodeConfig>& nodes, const ClusterOptions& options,
              const ClusterWorkload& w, DistributionPolicy policy)
      : nodes_(nodes), opt_(options), w_(w), policy_(policy) {}

  ClusterReport run();

 private:
  // --- accounting helpers -------------------------------------------------
  double send(MessageKind kind, double bytes) REQUIRES(serial_) {
    const double s = message_time_s(bytes);
    stats_.record(kind, s);
    return s;
  }
  /// Serializes a control message on the master; returns handling-done time.
  double master_handle(double arrival) REQUIRES(serial_) {
    const double done = std::max(arrival, master_free_at_) + kMasterServiceS;
    master_free_at_ = done;
    stats_.master_service_seconds += kMasterServiceS;
    return done;
  }
  void push(Stream stream, double t, Ev kind, int node, std::uint32_t lig = 0, int aux = -1,
            std::uint64_t epoch = 0, int aux2 = -1) REQUIRES(serial_) {
    events_.push(stream, Event{t, seq_++, kind, node, lig, aux, epoch, aux2});
  }
  double lig_work(int n, std::uint32_t lig) const REQUIRES(serial_) {
    return node_[static_cast<std::size_t>(n)].base * w_.ligand_cost[lig];
  }
  /// Appends `lig` to node n's queue.
  void enqueue(int n, std::uint32_t lig) REQUIRES(serial_) {
    node_[static_cast<std::size_t>(n)].queue.push_back(lig, lig_work(n, lig));
  }
  double lig_bytes(std::uint32_t lig) const { return w_.ligand_bytes * w_.ligand_cost[lig]; }

  /// Elapsed virtual seconds for `work` nominal seconds starting at `t`,
  /// stretched by the node's straggle factor past its onset.
  double run_elapsed(const NodeState& s, double t, double work) const {
    if (work <= 0.0) return 0.0;
    if (t >= s.straggle_after) return work * s.straggle_factor;
    const double head = s.straggle_after - t;
    if (work <= head) return work;
    return head + (work - head) * s.straggle_factor;
  }

  void record_span(int n, std::uint32_t lig, double start, double end, const char* what);

  // --- protocol steps -----------------------------------------------------
  void begin_run(int n, double t, std::uint32_t lig, std::size_t units) REQUIRES(serial_);
  void start_next(int n, double t) REQUIRES(serial_);
  void maybe_steal(int n, double t) REQUIRES(serial_);
  double local_backlog_s(int n, double t) REQUIRES(serial_);
  void return_to_master(const std::vector<std::uint32_t>& ligs, double t, bool redock)
      REQUIRES(serial_);
  void distribute(std::vector<std::uint32_t> ligs, double t) REQUIRES(serial_);
  void serve_waiting_pulls(double t) REQUIRES(serial_);
  /// Steal denial: count it and bounce an empty block back to the thief.
  void deny_steal(int thief, double t) REQUIRES(serial_);

  void on_ligand_done(const Event& e) REQUIRES(serial_);
  void on_result_arrive(const Event& e) REQUIRES(serial_);
  void on_pull_arrive(const Event& e) REQUIRES(serial_);
  void on_dispatch_arrive(const Event& e) REQUIRES(serial_);
  void on_steal_req_arrive(const Event& e) REQUIRES(serial_);
  void on_steal_forward_arrive(const Event& e) REQUIRES(serial_);
  void on_block_arrive(const Event& e) REQUIRES(serial_);
  void on_handoff_cut(const Event& e) REQUIRES(serial_);
  void on_handoff_arrive(const Event& e) REQUIRES(serial_);
  void on_node_death(const Event& e) REQUIRES(serial_);
  void on_death_detect(const Event& e) REQUIRES(serial_);

  void init_nodes() REQUIRES(serial_);
  void initial_distribution() REQUIRES(serial_);
  /// Contiguous split of `ligs` proportional to node speed by per-ligand
  /// cost (the Eq. 1 idea applied across nodes), restricted to nodes with
  /// eligible[n] != 0.
  std::vector<std::vector<std::uint32_t>> proportional_split(
      const std::vector<std::uint32_t>& ligs, const std::vector<char>& eligible) const
      REQUIRES(serial_);

  const std::vector<NodeConfig>& nodes_;
  const ClusterOptions& opt_;
  const ClusterWorkload& w_;
  DistributionPolicy policy_;

  /// Single-owner role (DESIGN.md §16): run() claims it once, every event
  /// handler and protocol step requires it, and the simulation's entire
  /// mutable state below is guarded by it — a handler leaking into a
  /// concurrent context fails the clang thread-safety gate.
  util::Serial serial_;

  std::vector<NodeState> node_ GUARDED_BY(serial_);
  EventQueue events_ GUARDED_BY(serial_);
  std::uint64_t seq_ GUARDED_BY(serial_) = 0;
  MessageStats stats_ GUARDED_BY(serial_);
  double master_free_at_ GUARDED_BY(serial_) = 0.0;
  double bcast_done_ GUARDED_BY(serial_) = 0.0;
  /// Dynamic: undispatched ligands.
  FlatQueue<std::uint32_t> pool_ GUARDED_BY(serial_);
  /// Dynamic: idle nodes the pool starved.
  FlatQueue<int> waiting_pulls_ GUARDED_BY(serial_);
  /// Payloads of block messages.
  std::vector<std::vector<std::uint32_t>> blocks_ GUARDED_BY(serial_);
  std::vector<bool> done_ GUARDED_BY(serial_);
  std::size_t done_count_ GUARDED_BY(serial_) = 0;
  double mean_cost_ GUARDED_BY(serial_) = 1.0;
  ClusterReport report_ GUARDED_BY(serial_);
};

void CampaignSim::record_span(int n, std::uint32_t lig, double start, double end,
                              const char* what) {
  if (obs::Observer* o = opt_.observer) {
    obs::Span span;
    span.name = std::string(what) + " L" + std::to_string(lig);
    span.category = "cluster";
    span.device = cluster_node_track(n);
    span.start_ns = static_cast<std::uint64_t>(start * 1e9);
    span.dur_ns = static_cast<std::uint64_t>(std::max(0.0, end - start) * 1e9);
    o->tracer.record(std::move(span));
  }
}

double CampaignSim::local_backlog_s(int n, double t) {
  NodeState& s = node_[static_cast<std::size_t>(n)];
  double backlog = s.queue.fold([&](std::uint32_t lig) { return lig_work(n, lig); });
  if (s.busy) backlog += s.unit_work_s * static_cast<double>(s.seg_units);
  if (s.has_partial) backlog += s.unit_work_s * static_cast<double>(s.partial_units);
  // The master mirrors each node's backlog from observed service rates, so
  // an active straggle inflates the estimate by the slowdown it is showing.
  if (t >= s.straggle_after) backlog *= s.straggle_factor;
  return backlog;
}

void CampaignSim::begin_run(int n, double t, std::uint32_t lig, std::size_t units) {
  NodeState& s = node_[static_cast<std::size_t>(n)];
  s.busy = true;
  s.current = lig;
  s.seg_start = t;
  s.seg_units = units;
  s.unit_work_s = lig_work(n, lig) / static_cast<double>(w_.units_per_ligand);
  const double work = s.unit_work_s * static_cast<double>(units);
  push(Stream::kHeap, t + run_elapsed(s, t, work), Ev::kLigandDone, n, lig, -1, s.epoch);
}

void CampaignSim::start_next(int n, double t) {
  NodeState& s = node_[static_cast<std::size_t>(n)];
  if (!s.alive || s.busy) return;
  if (s.has_partial) {
    s.has_partial = false;
    begin_run(n, t, s.partial_lig, s.partial_units);
  } else if (!s.queue.empty()) {
    const std::uint32_t lig = s.queue.front();
    s.queue.pop_front();
    begin_run(n, t, lig, w_.units_per_ligand);
  } else if (policy_ == DistributionPolicy::kDynamic) {
    push(Stream::kNodeControl, t + send(MessageKind::kPullRequest, kControlBytes),
         Ev::kPullArrive, n);
    return;
  }
  if (policy_ == DistributionPolicy::kWorkStealing) maybe_steal(n, t);
}

void CampaignSim::maybe_steal(int n, double t) {
  NodeState& s = node_[static_cast<std::size_t>(n)];
  if (!s.alive || s.steal_outstanding) return;
  // The busy and partial terms are >= 0 and the straggle factor is >= 1,
  // so a queue fold that reaches the threshold settles the test.
  if (s.queue.fold_reaches([&](std::uint32_t lig) { return lig_work(n, lig); }, s.threshold_s) ||
      local_backlog_s(n, t) >= s.threshold_s) {
    return;
  }
  s.steal_outstanding = true;
  push(Stream::kNodeControl, t + send(MessageKind::kStealRequest, kControlBytes),
       Ev::kStealReqArrive, n);
}

void CampaignSim::serve_waiting_pulls(double t) {
  while (!waiting_pulls_.empty() && !pool_.empty()) {
    const int n = waiting_pulls_.front();
    waiting_pulls_.pop_front();
    const std::uint32_t lig = pool_.front();
    pool_.pop_front();
    const double done = master_handle(t);
    push(Stream::kHeap, done + send(MessageKind::kDispatch, lig_bytes(lig)), Ev::kDispatchArrive,
         n, lig);
  }
}

void CampaignSim::return_to_master(const std::vector<std::uint32_t>& ligs, double t,
                                   bool redock) {
  if (ligs.empty()) return;
  if (redock) {
    report_.redocked_ligands += ligs.size();
  } else {
    report_.reassigned_ligands += ligs.size();
  }
  distribute(std::vector<std::uint32_t>(ligs.begin(), ligs.end()), t);
}

void CampaignSim::distribute(std::vector<std::uint32_t> ligs, double t) {
  if (ligs.empty()) return;
  bool any_alive = false;
  for (const NodeState& s : node_) any_alive = any_alive || s.alive;
  if (!any_alive) {
    throw std::runtime_error("cluster: every node died with work outstanding");
  }
  if (policy_ == DistributionPolicy::kDynamic) {
    for (std::uint32_t lig : ligs) pool_.push_back(lig);
    serve_waiting_pulls(t);
    return;
  }
  // Backlog-aware reassignment: the master hands a dead node's shard to the
  // survivors that are keeping up, not to one already drowning (a straggler
  // would hoard the block until the end-game steals pried it loose).
  std::vector<char> eligible(node_.size(), 0);
  double backlog_sum = 0.0;
  std::size_t alive = 0;
  for (std::size_t n = 0; n < node_.size(); ++n) {
    if (!node_[n].alive) continue;
    ++alive;
    backlog_sum += local_backlog_s(static_cast<int>(n), t);
  }
  const double backlog_mean = backlog_sum / static_cast<double>(alive);
  for (std::size_t n = 0; n < node_.size(); ++n) {
    eligible[n] = node_[n].alive &&
                  local_backlog_s(static_cast<int>(n), t) <= 1.5 * backlog_mean;
  }
  std::vector<std::vector<std::uint32_t>> shares = proportional_split(ligs, eligible);
  for (std::size_t n = 0; n < shares.size(); ++n) {
    if (shares[n].empty()) continue;
    double bytes = 0.0;
    for (std::uint32_t lig : shares[n]) bytes += lig_bytes(lig);
    const double handled = master_handle(t);
    blocks_.push_back(std::move(shares[n]));
    push(Stream::kHeap, handled + send(MessageKind::kDispatch, bytes), Ev::kBlockArrive,
         static_cast<int>(n), 0, static_cast<int>(blocks_.size() - 1));
  }
}

std::vector<std::vector<std::uint32_t>> CampaignSim::proportional_split(
    const std::vector<std::uint32_t>& ligs, const std::vector<char>& eligible) const {
  const std::size_t n_nodes = node_.size();
  std::vector<std::vector<std::uint32_t>> shares(n_nodes);
  double total_speed = 0.0;
  for (std::size_t n = 0; n < n_nodes; ++n) {
    if (eligible[n]) total_speed += node_[n].speed;
  }
  double total_cost = 0.0;
  for (std::uint32_t lig : ligs) total_cost += w_.ligand_cost[lig];
  // Walk the ligand list once, cutting at cumulative-cost boundaries
  // proportional to each alive node's speed.
  double cum_target = 0.0;
  double cum_cost = 0.0;
  std::size_t i = 0;
  for (std::size_t n = 0; n < n_nodes; ++n) {
    if (!eligible[n]) continue;
    cum_target += total_cost * node_[n].speed / total_speed;
    while (i < ligs.size() &&
           (cum_cost + w_.ligand_cost[ligs[i]] * 0.5 <= cum_target || shares[n].empty())) {
      // A ligand goes to the share whose boundary covers its midpoint; every
      // eligible node with library left gets at least one.
      if (cum_cost >= cum_target && !shares[n].empty()) break;
      cum_cost += w_.ligand_cost[ligs[i]];
      shares[n].push_back(ligs[i]);
      ++i;
    }
  }
  // Rounding leftovers ride with the last eligible node.
  for (std::size_t n = n_nodes; n-- > 0 && i < ligs.size();) {
    if (!eligible[n]) continue;
    while (i < ligs.size()) shares[n].push_back(ligs[i++]);
  }
  return shares;
}

void CampaignSim::on_ligand_done(const Event& e) {
  NodeState& s = node_[static_cast<std::size_t>(e.node)];
  if (!s.alive || e.epoch != s.epoch || !s.busy || s.current != e.lig) return;
  const double compute = e.t - s.seg_start;
  s.busy_seconds += compute;
  report_.ligand_seconds[e.lig] += compute;
  record_span(e.node, e.lig, s.seg_start, e.t, "dock");
  s.busy = false;
  push(Stream::kResult, e.t + send(MessageKind::kResultReturn, kResultBytes), Ev::kResultArrive,
       e.node, e.lig);
  start_next(e.node, e.t);
}

void CampaignSim::on_result_arrive(const Event& e) {
  if (done_[e.lig]) return;
  done_[e.lig] = true;
  ++done_count_;
  NodeState& s = node_[static_cast<std::size_t>(e.node)];
  ++s.credited;
  s.last_result_arrival = e.t;
  report_.docked_on[e.lig] = e.node;
}

void CampaignSim::on_pull_arrive(const Event& e) {
  const double handled = master_handle(e.t);
  if (pool_.empty()) {
    waiting_pulls_.push_back(e.node);
    return;
  }
  const std::uint32_t lig = pool_.front();
  pool_.pop_front();
  push(Stream::kHeap, handled + send(MessageKind::kDispatch, lig_bytes(lig)),
       Ev::kDispatchArrive, e.node, lig);
}

void CampaignSim::on_dispatch_arrive(const Event& e) {
  NodeState& s = node_[static_cast<std::size_t>(e.node)];
  if (!s.alive) {
    // The transport layer bounces a dispatch to a dead node back to the
    // master; the ligand was queued work, not lost progress.
    return_to_master({e.lig}, e.t, /*redock=*/false);
    return;
  }
  enqueue(e.node, e.lig);
  start_next(e.node, e.t);
}

void CampaignSim::on_steal_req_arrive(const Event& e) {
  const int thief = e.node;
  const double handled = master_handle(e.t);
  // Victim selection: the straggler with the largest backlog estimate (the
  // master's bookkeeping mirrors the piggybacked per-result estimates).  A
  // victim must be at least twice as deep as the thief, plus one mean
  // ligand of margin — without that guard, evenly-loaded nodes below
  // threshold ping-pong blocks between each other for the whole end-game.
  // The margin stays at a single ligand (not a threshold fraction) so a
  // near-idle thief can still drain the last few-second backlog off the
  // makespan-critical node.
  const double thief_backlog = local_backlog_s(thief, handled);
  const double floor = 2.0 * thief_backlog +
                       node_[static_cast<std::size_t>(thief)].base * mean_cost_;
  int queued_victim = -1, busy_victim = -1;
  double queued_best = floor, busy_best = floor;
  for (std::size_t n = 0; n < node_.size(); ++n) {
    const bool queued = !node_[n].queue.empty();
    if (static_cast<int>(n) == thief || !node_[n].alive || (!queued && !node_[n].busy)) continue;
    const double backlog = local_backlog_s(static_cast<int>(n), handled);
    if (queued && backlog > queued_best) {
      queued_best = backlog;
      queued_victim = static_cast<int>(n);
    }
    if (node_[n].busy && backlog > busy_best) {
      busy_best = backlog;
      busy_victim = static_cast<int>(n);
    }
  }
  const int victim = queued_victim >= 0 ? queued_victim : busy_victim;
  if (victim < 0) {
    ++report_.failed_steals;
    push(Stream::kMasterControl, handled + send(MessageKind::kStealBlock, kControlBytes),
         Ev::kBlockArrive, thief, 0, -1);
    return;
  }
  push(Stream::kMasterControl, handled + send(MessageKind::kStealForward, kControlBytes),
       Ev::kStealForwardArrive, victim, 0, thief);
}

void CampaignSim::deny_steal(int thief, double t) {
  ++report_.failed_steals;
  push(Stream::kNodeControl, t + send(MessageKind::kStealBlock, kControlBytes), Ev::kBlockArrive,
       thief, 0, -1);
}

void CampaignSim::on_steal_forward_arrive(const Event& e) {
  const int victim = e.node;
  const int thief = e.aux;
  NodeState& v = node_[static_cast<std::size_t>(victim)];
  if (!v.alive) {
    deny_steal(thief, e.t);
    return;
  }
  NodeState& th = node_[static_cast<std::size_t>(thief)];
  if (!v.queue.empty()) {
    // Ship up to half the queued cost off the back of the victim's queue,
    // capped by the thief's own remaining work (the steal request
    // piggybacks that estimate): a thief mid-shard takes a threshold-sized
    // block, a nearly-idle one takes a ligand or two — so a drowning
    // victim's backlog spreads across many thieves (who come back for
    // more) instead of re-creating the straggler on one of them, and the
    // end-game degrades to per-ligand granularity like the dynamic policy.
    double queue_cost = 0.0;
    for (std::uint32_t lig : v.queue) queue_cost += w_.ligand_cost[lig];
    const double cap = std::clamp(local_backlog_s(thief, e.t) / th.base, mean_cost_,
                                  th.threshold_s / th.base);
    const double target = std::min(queue_cost / 2.0, cap);
    std::vector<std::uint32_t> block;
    double moved = 0.0;
    double bytes = 0.0;
    while (!v.queue.empty() && (block.empty() || moved < target)) {
      const std::uint32_t lig = v.queue.back();
      if (!block.empty() && moved + w_.ligand_cost[lig] > target + 1e-12) break;
      v.queue.pop_back();
      moved += w_.ligand_cost[lig];
      bytes += lig_bytes(lig);
      block.push_back(lig);
    }
    std::reverse(block.begin(), block.end());
    ++report_.steals;
    report_.stolen_ligands += block.size();
    blocks_.push_back(std::move(block));
    push(Stream::kHeap, e.t + send(MessageKind::kStealBlock, bytes), Ev::kBlockArrive, thief, 0,
         static_cast<int>(blocks_.size() - 1));
    return;
  }
  if (v.busy && w_.units_per_ligand > 1) {
    // In-flight handoff: find the first generation boundary at or after the
    // forward's arrival, and move the unstarted tail to the thief if the
    // thief would finish it sooner than the victim.
    std::size_t k = 0;
    double boundary = v.seg_start;
    while (k < v.seg_units && boundary < e.t) {
      ++k;
      boundary = v.seg_start +
                 run_elapsed(v, v.seg_start, v.unit_work_s * static_cast<double>(k));
    }
    const std::size_t remaining = v.seg_units - k;
    if (remaining >= 1) {
      const double tail_work =
          lig_work(thief, v.current) / static_cast<double>(w_.units_per_ligand) *
          static_cast<double>(remaining);
      const double state_s = message_time_s(w_.state_bytes);
      const double thief_finish = boundary + state_s + run_elapsed(th, boundary + state_s, tail_work);
      const double victim_finish =
          boundary + run_elapsed(v, boundary, v.unit_work_s * static_cast<double>(remaining));
      if (th.alive && thief_finish < victim_finish) {
        ++v.epoch;  // cancels the scheduled kLigandDone
        push(Stream::kHeap, boundary, Ev::kHandoffCut, victim, v.current, thief, v.epoch,
             static_cast<int>(remaining));
        return;
      }
    }
  }
  deny_steal(thief, e.t);
}

void CampaignSim::on_handoff_cut(const Event& e) {
  const int victim = e.node;
  NodeState& v = node_[static_cast<std::size_t>(victim)];
  const int thief = e.aux;
  if (!v.alive || e.epoch != v.epoch || !v.busy || v.current != e.lig) {
    // The victim died (or was re-cut) before the boundary; the death path
    // owns the ligand now.  Unstick the waiting thief with a denial.
    deny_steal(thief, e.t);
    return;
  }
  const auto remaining = static_cast<std::size_t>(e.aux2);
  const double compute = e.t - v.seg_start;
  v.busy_seconds += compute;
  report_.ligand_seconds[e.lig] += compute;
  record_span(victim, e.lig, v.seg_start, e.t, "dock(head)");
  v.busy = false;
  ++report_.handoffs;
  push(Stream::kHeap, e.t + send(MessageKind::kHandoffState, w_.state_bytes), Ev::kHandoffArrive,
       thief, e.lig, static_cast<int>(remaining));
  start_next(victim, e.t);
}

void CampaignSim::on_handoff_arrive(const Event& e) {
  NodeState& th = node_[static_cast<std::size_t>(e.node)];
  th.steal_outstanding = false;
  if (!th.alive) {
    // Thief died with the state on the wire: all progress is lost and the
    // ligand re-docks from scratch on a survivor.
    return_to_master({e.lig}, e.t, /*redock=*/true);
    return;
  }
  const auto remaining = static_cast<std::size_t>(e.aux);
  if (th.busy) {
    th.has_partial = true;
    th.partial_lig = e.lig;
    th.partial_units = remaining;
    return;
  }
  begin_run(e.node, e.t, e.lig, remaining);
}

void CampaignSim::on_block_arrive(const Event& e) {
  NodeState& th = node_[static_cast<std::size_t>(e.node)];
  th.steal_outstanding = false;
  if (e.aux < 0) return;  // denial: idle until new work or a later trigger
  const std::vector<std::uint32_t>& ligs = blocks_[static_cast<std::size_t>(e.aux)];
  if (!th.alive) {
    return_to_master(ligs, e.t, /*redock=*/false);
    return;
  }
  for (std::uint32_t lig : ligs) enqueue(e.node, lig);
  if (policy_ == DistributionPolicy::kWorkStealing && !th.queue.empty()) {
    // Keep the queue in LPT order so a death-reassigned expensive ligand
    // lands ahead of the cheap end-game tail instead of docking last and
    // stretching the makespan by its full duration.
    th.queue.stable_sort([&](std::uint32_t a, std::uint32_t b) {
      return w_.ligand_cost[a] > w_.ligand_cost[b];
    });
  }
  start_next(e.node, e.t);
  if (policy_ == DistributionPolicy::kWorkStealing) maybe_steal(e.node, e.t);
}

void CampaignSim::on_node_death(const Event& e) {
  NodeState& s = node_[static_cast<std::size_t>(e.node)];
  if (!s.alive) return;
  s.alive = false;
  ++s.epoch;
  ++report_.nodes_lost;
  if (obs::Observer* o = opt_.observer) {
    o->tracer.mark("node death", "fault", cluster_node_track(e.node),
                   static_cast<std::uint64_t>(e.t * 1e9),
                   {{"node", static_cast<double>(e.node)}});
  }
  s.staged_lost.clear();
  if (s.busy) {
    // Un-shipped progress dies with the node: count the burned compute and
    // restart the docking from scratch on a survivor.
    const double compute = std::max(0.0, e.t - s.seg_start);
    s.busy_seconds += compute;
    report_.ligand_seconds[s.current] += compute;
    record_span(e.node, s.current, s.seg_start, e.t, "dock(lost)");
    s.busy = false;
    s.staged_lost.push_back(s.current);
  }
  if (s.has_partial) {
    s.has_partial = false;
    s.staged_lost.push_back(s.partial_lig);
  }
  const std::size_t queued = s.queue.size();
  for (std::uint32_t lig : s.queue) s.staged_lost.push_back(lig);
  s.queue.clear();
  report_.reassigned_ligands += queued;
  report_.redocked_ligands += s.staged_lost.size() - queued;
  stats_.record(MessageKind::kDeathNotice, kNetworkLatencyS);
  push(Stream::kHeap, e.t + kDeathDetectS, Ev::kDeathDetect, e.node);
}

void CampaignSim::on_death_detect(const Event& e) {
  NodeState& s = node_[static_cast<std::size_t>(e.node)];
  const double handled = master_handle(e.t);
  std::vector<std::uint32_t> lost;
  lost.swap(s.staged_lost);
  // Counting happened at death; distribute() must not re-count.
  distribute(std::move(lost), handled);
}

void CampaignSim::init_nodes() {
  node_.assign(nodes_.size(), NodeState{});
  double total_cost = 0.0;
  for (double c : w_.ligand_cost) total_cost += c;
  const double mean_cost =
      w_.ligand_cost.empty() ? 1.0 : total_cost / static_cast<double>(w_.ligand_cost.size());
  mean_cost_ = mean_cost;
  double total_speed = 0.0;
  for (double base : w_.node_base_seconds) total_speed += 1.0 / base;
  // Balanced-parallel phase length: what the campaign takes when every node
  // carries exactly its proportional share.  The auto steal threshold is a
  // slice of this, so thieves solicit work well before running dry and the
  // brokering round trip (plus a straggler's drain) overlaps their own
  // in-flight dockings.
  const double parallel_s = total_cost / total_speed;
  for (std::size_t n = 0; n < node_.size(); ++n) {
    NodeState& s = node_[n];
    s.base = w_.node_base_seconds[n];
    s.speed = 1.0 / s.base;
    s.threshold_s = opt_.steal_threshold_s > 0.0
                        ? opt_.steal_threshold_s
                        : std::max(2.0 * s.base * mean_cost, 0.1 * parallel_s);
    const gpusim::DeviceFaultSpec spec = opt_.node_faults.for_device(static_cast<int>(n));
    s.straggle_after = spec.straggle_after_seconds;
    s.straggle_factor = spec.straggle_factor;
    s.last_result_arrival = bcast_done_;
    if (spec.death_at_seconds != gpusim::kNeverSeconds) {
      push(Stream::kHeap, spec.death_at_seconds, Ev::kNodeDeath, static_cast<int>(n));
    }
    if (obs::Observer* o = opt_.observer) {
      o->tracer.set_track_name(cluster_node_track(static_cast<int>(n)),
                               "node." + std::to_string(n) + " " + nodes_[n].name);
    }
  }
}

void CampaignSim::initial_distribution() {
  const std::size_t n_nodes = node_.size();
  const std::size_t n_ligands = w_.ligand_cost.size();
  std::vector<std::uint32_t> all(n_ligands);
  for (std::size_t i = 0; i < n_ligands; ++i) all[i] = static_cast<std::uint32_t>(i);

  switch (policy_) {
    case DistributionPolicy::kDynamic:
      for (std::uint32_t lig : all) pool_.push_back(lig);
      for (std::size_t n = 0; n < n_nodes; ++n) {
        push(Stream::kNodeControl, bcast_done_ + send(MessageKind::kPullRequest, kControlBytes),
             Ev::kPullArrive, static_cast<int>(n));
      }
      return;
    case DistributionPolicy::kStatic: {
      std::vector<std::vector<std::uint32_t>> shards(n_nodes);
      for (std::uint32_t lig : all) shards[lig % n_nodes].push_back(lig);
      for (std::size_t n = 0; n < n_nodes; ++n) {
        if (shards[n].empty()) continue;
        double bytes = 0.0;
        for (std::uint32_t lig : shards[n]) bytes += lig_bytes(lig);
        const double handled = master_handle(bcast_done_);
        blocks_.push_back(std::move(shards[n]));
        push(Stream::kHeap, handled + send(MessageKind::kShardSend, bytes), Ev::kBlockArrive,
             static_cast<int>(n), 0, static_cast<int>(blocks_.size() - 1));
      }
      return;
    }
    case DistributionPolicy::kStaticProportional:
    case DistributionPolicy::kWorkStealing: {
      std::vector<std::vector<std::uint32_t>> shards =
          proportional_split(all, std::vector<char>(n_nodes, 1));
      if (policy_ == DistributionPolicy::kWorkStealing) {
        // LPT within each shard: dock expensive ligands first so the
        // end-game runs on cheap, fine-grained ones (smaller makespan
        // quantization) and steals — which take from the queue's back —
        // ship the cheapest payloads.  Ties break on ligand index to keep
        // runs bit-reproducible.
        for (auto& shard : shards) {
          std::stable_sort(shard.begin(), shard.end(),
                           [&](std::uint32_t a, std::uint32_t b) {
                             return w_.ligand_cost[a] > w_.ligand_cost[b];
                           });
        }
      }
      for (std::size_t n = 0; n < n_nodes; ++n) {
        if (shards[n].empty()) continue;
        double bytes = 0.0;
        for (std::uint32_t lig : shards[n]) bytes += lig_bytes(lig);
        const double handled = master_handle(bcast_done_);
        blocks_.push_back(std::move(shards[n]));
        push(Stream::kHeap, handled + send(MessageKind::kShardSend, bytes), Ev::kBlockArrive,
             static_cast<int>(n), 0, static_cast<int>(blocks_.size() - 1));
      }
      return;
    }
  }
}

ClusterReport CampaignSim::run() {
  // One instance per simulate() call, driven by exactly this loop: claim
  // the role once and every handler below inherits it.
  const util::ScopedSerial own(serial_);
  const std::size_t n_nodes = nodes_.size();
  const std::size_t n_ligands = w_.ligand_cost.size();

  report_.policy = policy_;
  report_.node_seconds.assign(n_nodes, 0.0);
  report_.ligands_per_node.assign(n_nodes, 0);
  report_.node_busy_seconds.assign(n_nodes, 0.0);
  report_.docked_on.assign(n_ligands, -1);
  report_.ligand_seconds.assign(n_ligands, 0.0);
  done_.assign(n_ligands, false);

  // Receptor broadcast over a tree: the critical path is ~log2(N) hops.
  const double hops = std::max(1.0, std::ceil(std::log2(static_cast<double>(n_nodes) + 1.0)));
  bcast_done_ = message_time_s(w_.receptor_bytes) * hops;
  stats_.record(MessageKind::kBroadcast, bcast_done_);

  init_nodes();
  initial_distribution();

  double makespan = bcast_done_;
  std::uint64_t processed = 0;
  while (done_count_ < n_ligands && !events_.empty()) {
    const Event e = events_.pop();
    if (++processed > (n_ligands + n_nodes + 16) * 1024) {
      throw std::logic_error("cluster: event budget exhausted (protocol livelock?)");
    }
    switch (e.kind) {
      case Ev::kLigandDone: on_ligand_done(e); break;
      case Ev::kResultArrive:
        on_result_arrive(e);
        makespan = std::max(makespan, e.t);
        break;
      case Ev::kPullArrive: on_pull_arrive(e); break;
      case Ev::kDispatchArrive: on_dispatch_arrive(e); break;
      case Ev::kStealReqArrive: on_steal_req_arrive(e); break;
      case Ev::kStealForwardArrive: on_steal_forward_arrive(e); break;
      case Ev::kBlockArrive: on_block_arrive(e); break;
      case Ev::kHandoffCut: on_handoff_cut(e); break;
      case Ev::kHandoffArrive: on_handoff_arrive(e); break;
      case Ev::kNodeDeath: on_node_death(e); break;
      case Ev::kDeathDetect: on_death_detect(e); break;
    }
  }
  if (done_count_ < n_ligands) {
    throw std::logic_error("cluster: simulation stalled with ligands outstanding");
  }

  for (std::size_t n = 0; n < n_nodes; ++n) {
    report_.node_seconds[n] = node_[n].last_result_arrival;
    report_.ligands_per_node[n] = node_[n].credited;
    report_.node_busy_seconds[n] = node_[n].busy_seconds;
  }
  report_.makespan_seconds = makespan;
  report_.messages = stats_;
  report_.comm_seconds = stats_.total_seconds() + stats_.master_service_seconds;

  double busy_sum = 0.0, busy_max = 0.0;
  std::size_t participants = 0;
  for (std::size_t n = 0; n < n_nodes; ++n) {
    if (node_[n].busy_seconds <= 0.0) continue;
    ++participants;
    busy_sum += node_[n].busy_seconds;
    busy_max = std::max(busy_max, node_[n].busy_seconds);
  }
  report_.balance_efficiency =
      participants < 2 ? 1.0 : busy_sum / static_cast<double>(participants) / busy_max;

  if (obs::Observer* o = opt_.observer) {
    obs::MetricsRegistry& m = o->metrics;
    m.counter("sched.cluster.campaigns").add();
    m.counter("sched.cluster.messages").add(static_cast<double>(stats_.total_count()));
    m.counter("sched.cluster.comm_seconds").add(report_.comm_seconds);
    m.counter("sched.cluster.steals").add(static_cast<double>(report_.steals));
    m.counter("sched.cluster.stolen_ligands").add(static_cast<double>(report_.stolen_ligands));
    m.counter("sched.cluster.handoffs").add(static_cast<double>(report_.handoffs));
    m.counter("sched.cluster.failed_steals").add(static_cast<double>(report_.failed_steals));
    m.counter("sched.cluster.node_deaths").add(static_cast<double>(report_.nodes_lost));
    m.counter("sched.cluster.reassigned_ligands")
        .add(static_cast<double>(report_.reassigned_ligands));
    m.counter("sched.cluster.redocked_ligands")
        .add(static_cast<double>(report_.redocked_ligands));
    m.gauge("sched.cluster.makespan_seconds").set(report_.makespan_seconds);
    m.gauge("sched.cluster.balance_efficiency").set(report_.balance_efficiency);
    for (std::size_t n = 0; n < n_nodes; ++n) {
      m.histogram("sched.cluster.node_busy_seconds").record(node_[n].busy_seconds);
    }
  }
  return std::move(report_);
}

}  // namespace

ClusterReport ClusterSim::simulate(const ClusterWorkload& workload,
                                   DistributionPolicy policy) const {
  if (workload.node_base_seconds.size() != nodes_.size()) {
    throw std::invalid_argument("ClusterSim::simulate: node_base_seconds size mismatch");
  }
  for (double b : workload.node_base_seconds) {
    if (!(b > 0.0)) throw std::invalid_argument("ClusterSim::simulate: non-positive node base");
  }
  for (double c : workload.ligand_cost) {
    if (!(c > 0.0)) throw std::invalid_argument("ClusterSim::simulate: non-positive ligand cost");
  }
  if (workload.units_per_ligand < 1) {
    throw std::invalid_argument("ClusterSim::simulate: units_per_ligand must be >= 1");
  }
  CampaignSim sim(nodes_, options_, workload, policy);
  return sim.run();
}

}  // namespace metadock::sched
