// Golden files that pin the science and the paper reproduction, so a
// refactor of the host scoring or dispatch paths can prove it changed
// nothing:
//
//   * tables_6_9.golden — every virtual-time cell of Tables 6-9
//     (vs::run_jupiter_table / vs::run_hertz_table on 2BSM and 2BXG) as
//     %.17g, compared with ==, and per cell a digest of its whole
//     ExecutionReport (every field as %a).  Virtual time comes from the
//     cost models alone, so one set of values holds on every host and
//     build.
//   * dispatch.golden — the virtual timeline of every dispatch path the
//     tables do not cover: NodeExecutor::run and ::estimate per node x
//     strategy, and MultiGpuBatchScorer on a transfer-bound fragment per
//     call x split mode, each under seven fault scenarios.  Makespan,
//     warm-up, energy, per-device work and busy time, the CPU tail, every
//     FaultReport field and the sched.* counters, all %.17g and ==.  Those
//     runs are observed, so every batch takes the per-op dispatch path; a
//     second test reruns them unobserved, where settled batches replay,
//     and requires the same bits.
//   * cluster.golden — ClusterSim::simulate reports on a fixed synthetic
//     campaign per distribution policy x {fault-free, node death,
//     straggler}, plus one ClusterSim::workload_for row priced by the
//     default per-node executor.  Virtual time again: %.17g and ==.  A
//     `random` part pins a digest of every report field for 200 seeded
//     random campaigns whose deaths are aimed at the protocol's rare
//     windows (a handoff on the wire or held, a steal forward in flight).
//   * hits.golden — a 64-bit FNV-1a digest of a small seeded screen's hits
//     (ligand index, spot, best-energy bits, pose bits; never the timing
//     fields, which differ by strategy by design) per metaheuristic M1-M4,
//     SA and TS, keyed by build and SIMD level.  Scalar and AVX2 sums differ in the
//     last bits, and so do builds: the compiler, optimization level and
//     sanitizer decide how the -ffast-math scoring loops vectorize, so the
//     build key (METADOCK_GOLDEN_BUILD, set by tests/CMakeLists.txt) names
//     all three.  Every strategy x overlap variant, a device death and a
//     CPU tail share must reproduce the key: they change where and when
//     poses are scored, never what they score.  A build with no digests in
//     the file still runs that variant check, then skips the pin and
//     prints its values.  The file also pins a digest of the torsional
//     conformer ensembles mol::generate_conformers builds, keyed the same
//     way.
//   * kernel_avx2.golden — the AVX2 kernel's energies (%a) for ligands
//     of 1-9 atoms on a receptor whose runs end in tails of every length
//     0-7, keyed by build like hits.golden.  The test calls
//     detail::score_block_tile_avx2 on grid coordinates, so no -ffast-math
//     TU feeds it and it pins the kernel's own FP sequence, which the
//     tolerance-based SimdParity tests do not.  Skips on hosts without
//     AVX2.
//
// A mismatch prints the actual values in the file's format.  There is no
// regeneration switch and no tolerance: a changed value is a changed
// result, and the change that makes it owes the reason.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "meta/params.h"
#include "mol/conformers.h"
#include "mol/library.h"
#include "mol/synth.h"
#include "obs/observer.h"
#include "scoring/batch_engine.h"
#include "sched/cluster.h"
#include "sched/executor.h"
#include "sched/multi_gpu.h"
#include "sched/node_config.h"
#include "testing/fixtures.h"
#include "util/rng.h"
#include "vs/experiment.h"
#include "vs/screening.h"

namespace metadock {
namespace {

/// Non-comment lines of a golden file, as "key value" pairs (the key is
/// every field but the last).
std::map<std::string, std::string> read_golden(const std::string& name) {
  std::ifstream in(std::string(METADOCK_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open golden file " << name;
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t cut = line.rfind(' ');
    out[line.substr(0, cut)] = line.substr(cut + 1);
  }
  return out;
}

/// Actual values in the golden file's line format.
std::string golden_lines(const std::vector<std::string>& keys,
                         const std::vector<std::string>& values) {
  std::string out;
  for (std::size_t i = 0; i < keys.size(); ++i) out += keys[i] + " " + values[i] + "\n";
  return out;
}

/// Fails with every actual line printed when any key is missing or differs.
void expect_golden(const std::string& name, const std::map<std::string, std::string>& golden,
                   const std::vector<std::string>& keys, const std::vector<std::string>& values) {
  std::string diff;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto it = golden.find(keys[i]);
    if (it == golden.end()) {
      diff += "  missing: " + keys[i] + "\n";
    } else if (it->second != values[i]) {
      diff += "  " + keys[i] + ": golden " + it->second + ", actual " + values[i] + "\n";
    }
  }
  EXPECT_TRUE(diff.empty()) << name << " mismatch:\n"
                            << diff << "actual values:\n"
                            << golden_lines(keys, values);
}

/// True when a build-keyed golden file pins any row for this build.
bool pins_build(const std::map<std::string, std::string>& golden) {
  return std::any_of(golden.begin(), golden.end(), [](const auto& entry) {
    return entry.first.rfind(std::string(METADOCK_GOLDEN_BUILD) + " ", 0) == 0;
  });
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a over the text of every ExecutionReport field, doubles as %a: the
/// node, warm-up, energy, balance, CPU-tail poses, every FaultReport field
/// and each device's name, poses, share, percent, busy and scoring seconds,
/// busy ratio, energy, kernels and bytes.  RunResult is empty for estimate().
std::string report_digest(const sched::ExecutionReport& r) {
  std::string text = r.node + "|" + std::string(sched::strategy_name(r.strategy));
  const auto real = [&text](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "|%a", v);
    text += buf;
  };
  const auto count = [&text](std::uint64_t v) { text += "|" + std::to_string(v); };
  real(r.makespan_seconds);
  real(r.warmup_seconds);
  real(r.energy_joules);
  real(r.imbalance_ratio);
  real(r.balance_efficiency);
  count(r.cpu_tail_conformations);
  for (const sched::DeviceReport& d : r.devices) {
    text += "|" + d.name;
    count(d.conformations);
    real(d.share);
    real(d.percent);
    real(d.busy_seconds);
    real(d.scoring_seconds);
    real(d.busy_ratio);
    real(d.energy_joules);
    count(d.kernels);
    real(d.bytes_transferred);
  }
  const sched::FaultReport& f = r.faults;
  for (const std::uint64_t v : {f.transient_faults, f.retries, f.devices_lost, f.resplits,
                                f.rebalances, f.cpu_fallback_conformations,
                                std::uint64_t{f.degraded_to_cpu}}) {
    count(v);
  }
  real(f.time_lost_seconds);
  for (const int d : f.lost_devices) count(static_cast<std::uint64_t>(d));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) h = fnv1a(h, static_cast<unsigned char>(c), 1);
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, h);
  return buf;
}

TEST(Golden, Tables6To9AreUnchanged) {
  struct Table {
    const char* id;
    mol::Dataset dataset;
    bool jupiter;
    vs::ExperimentTable rows;
  };
  const Table tables[] = {
      {"table6", mol::kDataset2BSM, true, vs::run_jupiter_table(mol::kDataset2BSM)},
      {"table7", mol::kDataset2BXG, true, vs::run_jupiter_table(mol::kDataset2BXG)},
      {"table8", mol::kDataset2BSM, false, vs::run_hertz_table(mol::kDataset2BSM)},
      {"table9", mol::kDataset2BXG, false, vs::run_hertz_table(mol::kDataset2BXG)}};
  std::vector<std::string> keys, values;
  for (const Table& t : tables) {
    for (const vs::ExperimentRow& r : t.rows.rows) {
      const std::string prefix = std::string(t.id) + " " + r.metaheuristic + " ";
      for (const auto& [column, value] :
           {std::pair{"openmp_s", r.openmp_s}, std::pair{"hom_system_s", r.hom_system_s},
            std::pair{"het_hom_s", r.het_hom_s}, std::pair{"het_het_s", r.het_het_s}}) {
        keys.push_back(prefix + column);
        values.push_back(exact(value));
      }
    }
  }

  // The makespan alone would let a wrong kernel count or byte multiple in
  // a long replayed run pass, so each cell also pins a digest of its whole
  // report, re-estimated with vs::run_table's configuration.
  for (const Table& t : tables) {
    const mol::Molecule receptor = mol::make_dataset_receptor(t.dataset);
    const mol::Molecule ligand = mol::make_dataset_ligand(t.dataset);
    const meta::DockingProblem problem = meta::make_problem(receptor, ligand);
    const sched::NodeConfig node = t.jupiter ? sched::jupiter() : sched::hertz();
    struct Cell {
      const char* column;
      sched::NodeConfig node;
      sched::Strategy strategy;
    };
    std::vector<Cell> cells = {{"openmp_s", node, sched::Strategy::kCpu}};
    if (t.jupiter) {
      cells.push_back(
          {"hom_system_s", sched::jupiter_homogeneous(), sched::Strategy::kHomogeneous});
    }
    cells.push_back({"het_hom_s", node, sched::Strategy::kHomogeneous});
    cells.push_back({"het_het_s", node, sched::Strategy::kHeterogeneous});
    for (const meta::MetaheuristicParams& params : meta::table4_presets()) {
      for (const Cell& cell : cells) {
        sched::ExecutorOptions o;
        o.strategy = cell.strategy;
        sched::NodeExecutor exec(cell.node, o);
        keys.push_back(std::string(t.id) + " " + params.name + " " + cell.column + " digest");
        values.push_back(report_digest(exec.estimate(problem, params)));
      }
    }
  }
  expect_golden("tables_6_9.golden", read_golden("tables_6_9.golden"), keys, values);
}

// ---------------------------------------------------------------------------
// Dispatch timelines

/// Golden keys and values in file order.
struct Lines {
  std::vector<std::string> keys;
  std::vector<std::string> values;

  void add(std::string key, std::string value) {
    keys.push_back(std::move(key));
    values.push_back(std::move(value));
  }
};

/// Comma-joined `name=value` fields: one golden value.
class Fields {
 public:
  Fields& add(const char* name, double v) { return put(name, exact(v)); }
  Fields& add(const char* name, std::uint64_t v) { return put(name, std::to_string(v)); }
  Fields& put(const std::string& name, const std::string& v) {
    if (!out_.empty()) out_ += ',';
    out_ += name + "=" + v;
    return *this;
  }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  std::string out_;
};

/// Everything one dispatch row pins (`pin` writes the golden subset),
/// plus each device's kernels and bytes for the observed/unobserved
/// comparison.
struct Timeline {
  struct Device {
    std::uint64_t conformations = 0;
    double busy_s = 0.0;
    std::uint64_t kernels = 0;
    double bytes = 0.0;
  };
  double makespan_s = 0.0;
  double warmup_s = 0.0;
  double energy_j = 0.0;
  std::uint64_t cpu_tail = 0;
  std::vector<Device> devices;
  sched::FaultReport faults;
};

std::string fault_fields(const sched::FaultReport& f) {
  std::string lost;
  for (const int d : f.lost_devices) lost += (lost.empty() ? "" : ";") + std::to_string(d);
  return Fields()
      .add("transient", f.transient_faults)
      .add("retries", f.retries)
      .add("lost", f.devices_lost)
      .add("resplits", f.resplits)
      .add("rebalances", f.rebalances)
      .add("cpu_fallback", f.cpu_fallback_conformations)
      .add("time_lost", f.time_lost_seconds)
      .add("degraded", std::uint64_t{f.degraded_to_cpu})
      .put("lost_devices", lost.empty() ? "-" : lost)
      .str();
}

void pin(Lines& out, const std::string& row, const Timeline& t, obs::MetricsRegistry& m) {
  out.add(row + " time", Fields()
                             .add("makespan", t.makespan_s)
                             .add("warmup", t.warmup_s)
                             .add("energy", t.energy_j)
                             .add("cpu_tail", t.cpu_tail)
                             .str());
  Fields devices;
  for (std::size_t d = 0; d < t.devices.size(); ++d) {
    devices.put("d" + std::to_string(d),
                std::to_string(t.devices[d].conformations) + ":" + exact(t.devices[d].busy_s));
  }
  out.add(row + " devices", devices.str());
  out.add(row + " faults", fault_fields(t.faults));
  Fields counters;
  for (const char* name : {"batches", "retries", "quarantines", "resplits", "rebalances",
                           "cpu_fallback_poses", "cpu_tail_poses", "overlap.saved_seconds"}) {
    counters.add(name, m.counter(std::string("sched.") + name).value());
  }
  obs::Histogram& barrier = m.histogram("sched.batch_barrier_seconds");
  counters.add("barrier.count", std::uint64_t{barrier.count()}).add("barrier.sum", barrier.sum());
  out.add(row + " sched", counters.str());
}

/// Every field of a timeline, doubles as %.17g: equal strings mean equal
/// bits.
std::string describe(const Timeline& t) {
  Fields f;
  f.add("makespan", t.makespan_s)
      .add("warmup", t.warmup_s)
      .add("energy", t.energy_j)
      .add("cpu_tail", t.cpu_tail);
  for (std::size_t d = 0; d < t.devices.size(); ++d) {
    const Timeline::Device& dev = t.devices[d];
    f.put("d" + std::to_string(d),
          std::to_string(dev.conformations) + ":" + exact(dev.busy_s) + ":" +
              std::to_string(dev.kernels) + ":" + exact(dev.bytes));
  }
  return f.put("faults", fault_fields(t.faults)).str();
}

/// The fault-free scenario with a rebalance every two batches, which the
/// observed/unobserved comparison adds to the golden ones.
const testing::FaultCase kRebalanceCase{"none+rebalance-2", {}, 2};

/// The metaheuristic of dispatch.golden's executor rows: M1 at population 8
/// over 2 generations, one batch size per run.
meta::MetaheuristicParams golden_m1() {
  meta::MetaheuristicParams params = meta::m1_genetic();
  params.population_per_spot = 8;
  params.generations = 2;
  return params;
}

/// The fault cases executor_scenarios runs on every node x mode:
/// dispatch.golden's seven, those plus kRebalanceCase, or only the two in
/// which batches settle and replay (fault-free, and kRebalanceCase).
enum class Cases { kGolden, kGoldenAndRebalance, kSettling };

/// Runs the executor scenarios of dispatch.golden with `params` under
/// `which` fault cases, with an observer when `observed`, and calls
/// `visit(row, timeline, metrics)` for each in file order.  A non-empty
/// `tag` ends every row name.
template <typename Visit>
void executor_scenarios(bool observed, Cases which, const meta::MetaheuristicParams& params,
                        const std::string& tag, Visit&& visit) {
  struct Mode {
    const char* name;
    sched::Strategy strategy;
    bool overlap;
    double cpu_tail_share;
  };
  const Mode modes[] = {{"hom+overlap", sched::Strategy::kHomogeneous, true, 0.0},
                        {"hom", sched::Strategy::kHomogeneous, false, 0.0},
                        {"het+overlap", sched::Strategy::kHeterogeneous, true, 0.0},
                        {"het", sched::Strategy::kHeterogeneous, false, 0.0},
                        {"coop", sched::Strategy::kCooperative, true, 0.0},
                        {"het+overlap+cpu-tail", sched::Strategy::kHeterogeneous, true, 0.25}};
  for (const sched::NodeConfig& node : {sched::hertz(), sched::jupiter()}) {
    for (const Mode& mode : modes) {
      for (const bool replay : {false, true}) {
        const auto execute = [&](const testing::FaultCase& c, obs::Observer& observer) {
          sched::ExecutorOptions o;
          o.strategy = mode.strategy;
          o.overlap = mode.overlap;
          o.cpu_tail_share = mode.cpu_tail_share;
          o.fault_plan = c.plan;
          o.fault_policy.rebalance_batches = c.rebalance_batches;
          o.observer = observed ? &observer : nullptr;
          sched::NodeExecutor exec(node, o);
          return replay ? exec.estimate(testing::tiny_problem(), params)
                        : exec.run(testing::tiny_problem(), params);
        };
        obs::Observer clean_observer;
        const sched::ExecutionReport clean = execute({"none", {}}, clean_observer);
        const auto mid_s = [&clean](int d) {
          return 0.5 * (clean.warmup_seconds +
                        clean.devices[static_cast<std::size_t>(d)].busy_seconds);
        };
        std::vector<testing::FaultCase> cases =
            which == Cases::kSettling
                ? std::vector<testing::FaultCase>{{"none", {}}}
                : testing::dispatch_fault_cases(node.gpu_count(), mid_s);
        if (which != Cases::kGolden) cases.push_back(kRebalanceCase);
        for (const testing::FaultCase& c : cases) {
          obs::Observer observer;
          const bool fault_free = std::string(c.name) == "none";
          const sched::ExecutionReport r = fault_free ? clean : execute(c, observer);
          Timeline t;
          t.makespan_s = r.makespan_seconds;
          t.warmup_s = r.warmup_seconds;
          t.energy_j = r.energy_joules;
          t.cpu_tail = r.cpu_tail_conformations;
          for (const sched::DeviceReport& d : r.devices) {
            t.devices.push_back({d.conformations, d.busy_seconds, d.kernels, d.bytes_transferred});
          }
          t.faults = r.faults;
          visit(std::string("exec ") + node.name + " " + mode.name + " " +
                    (replay ? "estimate" : "run") + " " + c.name + (tag.empty() ? "" : " ") +
                    tag,
                t, (fault_free ? clean_observer : observer).metrics);
        }
      }
    }
  }
}

/// The transfer-bound fragment (32 x 11 atoms) where the double buffer
/// really splits each slice, with 4,096 random poses.
struct Fragment {
  Fragment()
      : receptor(mol::make_receptor(receptor_params())),
        ligand(mol::make_ligand(ligand_params())),
        scorer(receptor, ligand),
        poses(4096),
        scores(poses.size()) {
    util::Xoshiro256 rng(5);
    for (scoring::Pose& p : poses) {
      p.position = {static_cast<float>(rng.uniform(-10, 10)),
                    static_cast<float>(rng.uniform(-10, 10)),
                    static_cast<float>(rng.uniform(-10, 10))};
      p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
    }
  }
  static mol::ReceptorParams receptor_params() {
    mol::ReceptorParams rp;
    rp.atom_count = 32;
    return rp;
  }
  static mol::LigandParams ligand_params() {
    mol::LigandParams lp;
    lp.atom_count = 11;
    return lp;
  }

  mol::Molecule receptor;
  mol::Molecule ligand;
  scoring::LennardJonesScorer scorer;
  std::vector<scoring::Pose> poses;
  std::vector<double> scores;
};

struct ScorerMode {
  const char* name;
  bool dynamic;
  bool overlap;
};

/// One MultiGpuBatchScorer run on the fragment: a batch of each size in
/// `batches`, cost-only or scoring the first poses of the fragment, split
/// by `shares` (empty: equal) in static modes.  An unobserved cost-only run
/// hands the whole list to the schedule entry point.
Timeline run_fragment(Fragment& f, const ScorerMode& mode, const testing::FaultCase& c,
                      const std::vector<std::size_t>& batches, bool cost_only,
                      obs::Observer* observer, const std::vector<double>& shares = {}) {
  gpusim::Runtime rt = testing::mixed_node_runtime(c.plan);
  sched::MultiGpuOptions o;
  o.dynamic = mode.dynamic;
  o.overlap = mode.overlap;
  o.shares = shares;
  o.cpu_fallback = sched::hertz().cpu;
  o.faults.rebalance_batches = c.rebalance_batches;
  o.observer = observer;
  sched::MultiGpuBatchScorer mgs(rt, f.scorer, o);
  if (cost_only && observer == nullptr) {
    // The whole schedule in one call, as NodeExecutor::estimate sends it.
    mgs.evaluate_cost_only(batches, 1);
  } else {
    for (const std::size_t n : batches) {
      if (cost_only) {
        mgs.evaluate_cost_only(n);
      } else {
        mgs.evaluate(std::span(f.poses).first(n), std::span(f.scores).first(n));
      }
    }
  }
  Timeline t;
  t.makespan_s = mgs.node_seconds();
  t.energy_j = rt.total_energy_joules() + mgs.cpu_energy_joules();
  t.cpu_tail = mgs.cpu_tail_conformations();
  for (int d = 0; d < rt.device_count(); ++d) {
    const gpusim::Device& dev = rt.device(d);
    t.devices.push_back({mgs.device_conformations()[static_cast<std::size_t>(d)],
                         dev.busy_seconds(), dev.kernels_launched(), dev.bytes_transferred()});
  }
  t.faults = mgs.fault_report();
  return t;
}

const ScorerMode kScorerModes[] = {{"static+overlap", false, true},
                                   {"static", false, false},
                                   {"coop+overlap", true, true},
                                   {"coop", true, false}};

/// Runs every scorer scenario of dispatch.golden (four batches per run),
/// with an observer when `observed`, and calls `visit(row, timeline,
/// metrics)` for each in file order.
template <typename Visit>
void scorer_scenarios(Fragment& f, bool observed, Visit&& visit) {
  for (const ScorerMode& mode : kScorerModes) {
    for (const bool cost_only : {true, false}) {
      const std::vector<std::size_t> batches(4, cost_only ? 65536 : f.poses.size());
      const auto execute = [&](const testing::FaultCase& c, obs::Observer& observer) {
        return run_fragment(f, mode, c, batches, cost_only, observed ? &observer : nullptr);
      };
      obs::Observer clean_observer;
      const Timeline clean = execute({"none", {}}, clean_observer);
      const auto mid_s = [&clean](int d) {
        return 0.5 * clean.devices[static_cast<std::size_t>(d)].busy_s;
      };
      for (const testing::FaultCase& c : testing::dispatch_fault_cases(2, mid_s)) {
        obs::Observer observer;
        const bool fault_free = std::string(c.name) == "none";
        const Timeline t = fault_free ? clean : execute(c, observer);
        visit(std::string("scorer fragment ") + mode.name + " " +
                  (cost_only ? "cost-only-65536" : "evaluate-4096") + " " + c.name,
              t, (fault_free ? clean_observer : observer).metrics);
      }
    }
  }
}

TEST(Golden, DispatchTimelinesAreUnchanged) {
  Lines lines;
  const auto pin_row = [&lines](const std::string& row, const Timeline& t,
                                obs::MetricsRegistry& m) { pin(lines, row, t, m); };
  executor_scenarios(/*observed=*/true, Cases::kGolden, golden_m1(), "", pin_row);
  Fragment fragment;
  scorer_scenarios(fragment, /*observed=*/true, pin_row);
  expect_golden("dispatch.golden", read_golden("dispatch.golden"), lines.keys, lines.values);
}

TEST(Golden, UnobservedDispatchMatchesObservedBitForBit) {
  // An observer keeps every batch on the per-op path; without one, a
  // fault-free overlapped static batch replays the device timeline its
  // size recorded (DESIGN.md §13.2).  So beside tables_6_9.golden, this is
  // the proof that replay is exact: every dispatch.golden scenario, a
  // fault-free run that rebalances every two batches, M3's two alternating
  // batch sizes and a reduced M4's one long run through the executor, and
  // fragment schedules that replace table slots, end a run at a rebalance
  // and give one device nothing.
  std::map<std::string, std::string> observed;
  std::vector<std::pair<std::string, std::string>> unobserved;
  const auto into_map = [&observed](const std::string& row, const Timeline& t,
                                    obs::MetricsRegistry&) { observed[row] = describe(t); };
  const auto into_list = [&unobserved](const std::string& row, const Timeline& t,
                                       obs::MetricsRegistry&) {
    unobserved.emplace_back(row, describe(t));
  };
  executor_scenarios(/*observed=*/true, Cases::kGoldenAndRebalance, golden_m1(), "", into_map);
  executor_scenarios(/*observed=*/false, Cases::kGoldenAndRebalance, golden_m1(), "", into_list);
  // M3 alternates combine batches of 64 poses per spot with improve
  // batches of 13; a reduced M4 sends one run of 25 equal batches.  Under
  // the other fault cases no batch settles, so they add nothing here.
  meta::MetaheuristicParams m3 = meta::m3_scatter_light();
  m3.generations = 2;
  m3.improve_steps = 2;
  meta::MetaheuristicParams m4 = meta::m4_local_search();
  m4.population_per_spot = 8;
  m4.improve_steps = 24;
  for (const meta::MetaheuristicParams& params : {m3, m4}) {
    executor_scenarios(/*observed=*/true, Cases::kSettling, params, params.name, into_map);
    executor_scenarios(/*observed=*/false, Cases::kSettling, params, params.name, into_list);
  }
  Fragment fragment;
  scorer_scenarios(fragment, /*observed=*/true, into_map);
  scorer_scenarios(fragment, /*observed=*/false, into_list);

  const testing::FaultCase none{"none", {}};
  struct Schedule {
    const char* name;
    std::vector<std::size_t> batches;
    std::vector<testing::FaultCase> cases;
    std::vector<double> shares;
  };
  const Schedule schedules[] = {
      // More distinct sizes than the replay table holds: slots are
      // replaced and sizes re-recorded.
      {"evicting",
       {4096, 1300, 1300, 4096, 1300, 700, 900, 1100, 1500, 4096, 1300, 700, 700, 2100, 4096},
       {none, kRebalanceCase},
       {}},
      // Three sizes in turn: runs replay across both slots, and the third
      // size evicts a slot mid-schedule.
      {"three-sizes",
       {1300, 700, 1300, 700, 1300, 2100, 1300, 2100, 700, 700, 1300, 700, 2100},
       {none, kRebalanceCase},
       {}},
      // A rebalance every three of twelve equal batches ends a run inside
      // it.
      {"equal-12",
       std::vector<std::size_t>(12, 1300),
       {none, testing::FaultCase{"none+rebalance-3", {}, 3}},
       {}},
      // Device 1 has share 0, so the split gives it nothing in any batch.
      {"share-0", {1300, 1300, 700, 1300, 700, 700, 1300}, {none, kRebalanceCase}, {1.0, 0.0}},
  };
  for (const Schedule& schedule : schedules) {
    for (const ScorerMode& mode : kScorerModes) {
      for (const bool cost_only : {true, false}) {
        for (const testing::FaultCase& c : schedule.cases) {
          const std::string row = std::string("scorer fragment ") + mode.name + " " +
                                  (cost_only ? "cost-only" : "evaluate") + " " + schedule.name +
                                  " " + c.name;
          obs::Observer observer;
          observed[row] = describe(run_fragment(fragment, mode, c, schedule.batches, cost_only,
                                                &observer, schedule.shares));
          unobserved.emplace_back(row, describe(run_fragment(fragment, mode, c, schedule.batches,
                                                             cost_only, nullptr, schedule.shares)));
        }
      }
    }
  }

  ASSERT_EQ(observed.size(), unobserved.size());
  for (const auto& [row, unobserved_row] : unobserved) {
    const auto it = observed.find(row);
    ASSERT_NE(it, observed.end()) << row;
    EXPECT_EQ(unobserved_row, it->second) << row;
  }
}

// ---------------------------------------------------------------------------
// Cluster campaigns

/// The fixed campaign of cluster.golden: five nodes of unequal speed, 48
/// ligands of uneven cost, six generations per docking (so a steal can
/// hand off an in-flight docking), default message payloads.
sched::ClusterWorkload cluster_workload() {
  sched::ClusterWorkload w;
  w.node_base_seconds = {1.0, 0.5, 0.25, 0.8, 1.3};
  for (std::size_t i = 0; i < 48; ++i) {
    w.ligand_cost.push_back(0.5 + static_cast<double>(i * 7 % 11) / 10.0);
  }
  w.units_per_ligand = 6;
  return w;
}

/// `;`-joined %.17g values: one field of a golden value.
std::string exact_list(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) out += (out.empty() ? "" : ";") + exact(v);
  return out;
}

void pin_cluster(Lines& out, const std::string& row, const sched::ClusterReport& r) {
  out.add(row + " report", Fields()
                               .add("makespan", r.makespan_seconds)
                               .add("comm", r.comm_seconds)
                               .add("master", r.messages.master_service_seconds)
                               .add("balance", r.balance_efficiency)
                               .add("messages", r.messages.total_count())
                               .add("steals", r.steals)
                               .add("stolen", r.stolen_ligands)
                               .add("handoffs", r.handoffs)
                               .add("failed_steals", r.failed_steals)
                               .add("lost", r.nodes_lost)
                               .add("reassigned", r.reassigned_ligands)
                               .add("redocked", r.redocked_ligands)
                               .str());
  Fields nodes;
  for (std::size_t n = 0; n < r.node_seconds.size(); ++n) {
    nodes.put("n" + std::to_string(n), std::to_string(r.ligands_per_node[n]) + ":" +
                                           exact(r.node_seconds[n]) + ":" +
                                           exact(r.node_busy_seconds[n]));
  }
  out.add(row + " nodes", nodes.str());
}

/// FNV-1a over every ClusterReport field, in declaration order.
std::uint64_t cluster_digest(const sched::ClusterReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto count = [&h](std::uint64_t v) { h = fnv1a(h, v, 8); };
  const auto real = [&h](double v) { h = fnv1a(h, std::bit_cast<std::uint64_t>(v), 8); };
  count(static_cast<std::uint64_t>(r.policy));
  real(r.makespan_seconds);
  real(r.comm_seconds);
  for (const double v : r.node_seconds) real(v);
  for (const std::size_t v : r.ligands_per_node) count(v);
  for (const double v : r.node_busy_seconds) real(v);
  for (const int v : r.docked_on) count(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  for (const double v : r.ligand_seconds) real(v);
  real(r.balance_efficiency);
  for (const sched::MessageStats::Entry& e : r.messages.by_kind) {
    count(e.count);
    real(e.seconds);
  }
  real(r.messages.master_service_seconds);
  for (const std::size_t v : {r.steals, r.stolen_ligands, r.handoffs, r.failed_steals,
                              r.nodes_lost, r.reassigned_ligands, r.redocked_ligands}) {
    count(v);
  }
  return h;
}

/// A handoff of an observed campaign: `victim` cut `lig`'s docking at
/// `cut_s` and `thief` resumed it at `resume_s`.  `asked_s` is the
/// thief's last docking boundary before the cut, where it sent the steal
/// request the handoff answered.
struct Handoff {
  int victim = 0;
  int thief = 0;
  std::uint32_t lig = 0;
  double cut_s = 0.0;
  double resume_s = 0.0;
  double asked_s = 0.0;
};

/// The handoffs in a campaign's docking spans ("dock(head) L<lig>" on the
/// victim's track, then the ligand's next span on another node's track).
std::vector<Handoff> traced_handoffs(const std::vector<obs::Span>& spans) {
  const auto lig_of = [](const obs::Span& s) {
    return static_cast<std::uint32_t>(std::stoul(s.name.substr(s.name.rfind(" L") + 2)));
  };
  std::vector<Handoff> out;
  for (const obs::Span& head : spans) {
    if (head.name.rfind("dock(head) ", 0) != 0) continue;
    Handoff h;
    h.victim = head.device - sched::kClusterTrackBase;
    h.lig = lig_of(head);
    const std::uint64_t cut_ns = head.start_ns + head.dur_ns;
    h.cut_s = static_cast<double>(cut_ns) * 1e-9;
    std::uint64_t resume_ns = UINT64_MAX;
    for (const obs::Span& next : spans) {
      if (next.device == head.device || next.start_ns < cut_ns || next.start_ns >= resume_ns ||
          lig_of(next) != h.lig) {
        continue;
      }
      resume_ns = next.start_ns;
      h.thief = next.device - sched::kClusterTrackBase;
    }
    if (resume_ns == UINT64_MAX) continue;
    h.resume_s = static_cast<double>(resume_ns) * 1e-9;
    std::uint64_t asked_ns = 0;
    for (const obs::Span& own : spans) {
      if (own.device != h.thief + sched::kClusterTrackBase) continue;
      for (const std::uint64_t t : {own.start_ns, own.start_ns + own.dur_ns}) {
        if (t <= cut_ns) asked_ns = std::max(asked_ns, t);
      }
    }
    h.asked_s = static_cast<double>(asked_ns) * 1e-9;
    out.push_back(h);
  }
  return out;
}

/// One seeded random campaign of cluster.golden's `random` part: 1-24
/// nodes of 0.1-10 ms per cost-1 ligand (so 50-us messages overlap
/// dockings and a death catches messages in flight), 1-300 ligands of
/// cost 0.2-3, 1-6 units each, under the default or an explicit steal
/// threshold, and no fault, 1-3 deaths (one at t = 0), a straggler, or
/// deaths plus a straggler.  The threshold, the straggler and the
/// unaimed deaths are drawn against the fault-free makespan.  Deaths
/// after t = 0 are mostly aimed at a handoff of the campaign run with the
/// other faults: the thief while the state is on the wire or while it
/// holds the state behind its own docking, or the victim in the
/// generation before its cut, when the steal forward may still be in
/// flight.  One campaign in eight ends on a ligand of cost 1e-18, too
/// cheap to move a rounded cost sum, which proportional_split hands out as
/// a rounding leftover.  The value is the report's digest, or the error
/// simulate() throws with its spaces as '_'.
std::string random_campaign(std::uint64_t seed, sched::DistributionPolicy policy) {
  util::Xoshiro256 rng(seed);
  sched::ClusterWorkload w;
  const std::size_t n_nodes = 1 + rng.below(24);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    w.node_base_seconds.push_back(1e-4 * std::pow(100.0, rng.uniform()));
  }
  const std::size_t n_ligands = 1 + rng.below(300);
  for (std::size_t i = 0; i < n_ligands; ++i) w.ligand_cost.push_back(rng.uniform(0.2, 3.0));
  if (rng.below(8) == 0) w.ligand_cost.back() = 1e-18;
  w.units_per_ligand = 1 + rng.below(6);

  const std::vector<sched::NodeConfig> nodes(n_nodes, sched::hertz());
  const double clean_s = sched::ClusterSim(nodes).simulate(w, policy).makespan_seconds;
  const auto node = [&] { return static_cast<int>(rng.below(n_nodes)); };
  sched::ClusterOptions options;
  if (rng.below(2) == 1) options.steal_threshold_s = clean_s * rng.uniform(0.01, 1.0);
  const std::uint64_t faults = rng.below(4);  // none, deaths, straggler, both
  if (faults >= 2) {
    options.node_faults.straggle(node(), rng.uniform(0.0, clean_s), rng.uniform(1.0, 8.0));
  }
  if (faults == 1 || faults == 3) {
    options.node_faults.kill(node(), 0.0);
    std::vector<Handoff> handoffs;
    try {
      obs::Observer observer;
      sched::ClusterOptions traced = options;
      traced.observer = &observer;
      (void)sched::ClusterSim(nodes, traced).simulate(w, policy);
      handoffs = traced_handoffs(observer.tracer.spans());
    } catch (const std::exception&) {
      // Every node died: the campaign below throws the same error.
    }
    const double state_s = sched::message_time_s(w.state_bytes);
    const auto held = std::find_if(handoffs.begin(), handoffs.end(), [&](const Handoff& h) {
      return h.resume_s > h.cut_s + 2.0 * state_s;
    });
    for (std::uint64_t k = rng.below(3); k > 0; --k) {
      if (handoffs.empty() || rng.below(4) == 0) {
        options.node_faults.kill(node(), rng.uniform(0.0, clean_s));
        continue;
      }
      const Handoff& h = handoffs[rng.below(handoffs.size())];
      const std::uint64_t aim = rng.below(3);
      if (held != handoffs.end() && (aim == 0 || k == 1)) {
        options.node_faults.kill(held->thief,
                                 rng.uniform(held->cut_s + 2.0 * state_s, held->resume_s));
      } else if (aim == 1) {
        options.node_faults.kill(h.thief, h.cut_s + rng.uniform(0.0, state_s));
      } else {
        // The request reaches the master one message after asked_s and
        // the forward leaves it a service time later.
        options.node_faults.kill(h.victim, h.asked_s + rng.uniform(60e-6, 190e-6));
      }
    }
  }

  try {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64,
                  cluster_digest(sched::ClusterSim(nodes, options).simulate(w, policy)));
    return buf;
  } catch (const std::exception& e) {
    std::string what = std::string("throws:") + e.what();
    std::replace(what.begin(), what.end(), ' ', '_');
    return what;
  }
}

TEST(Golden, ClusterReportsAreUnchanged) {
  Lines lines;
  const sched::ClusterWorkload w = cluster_workload();
  const std::vector<sched::NodeConfig> nodes(w.node_base_seconds.size(), sched::hertz());
  for (const sched::DistributionPolicy policy :
       {sched::DistributionPolicy::kStatic, sched::DistributionPolicy::kStaticProportional,
        sched::DistributionPolicy::kDynamic, sched::DistributionPolicy::kWorkStealing}) {
    const std::string row = std::string("cluster ") + std::string(sched::policy_name(policy));
    const sched::ClusterReport clean = sched::ClusterSim(nodes).simulate(w, policy);
    pin_cluster(lines, row + " none", clean);
    // Node 1 dies halfway through the fault-free campaign; node 2, the
    // fastest, slows six-fold after a quarter of it.
    sched::ClusterOptions death;
    death.node_faults.kill(1, 0.5 * clean.makespan_seconds);
    pin_cluster(lines, row + " death", sched::ClusterSim(nodes, death).simulate(w, policy));
    sched::ClusterOptions straggler;
    straggler.node_faults.straggle(2, 0.25 * clean.makespan_seconds, 6.0);
    pin_cluster(lines, row + " straggler",
                sched::ClusterSim(nodes, straggler).simulate(w, policy));
  }

  meta::MetaheuristicParams params = meta::m1_genetic();
  params.population_per_spot = 8;
  params.generations = 2;
  const sched::ClusterSim sim({sched::hertz(), sched::jupiter(), sched::hertz()});
  const sched::ClusterWorkload priced =
      sim.workload_for(testing::tiny_problem(), {10, 20, 5}, params);
  lines.add("workload Hertz+Jupiter+Hertz tiny-m1",
            Fields()
                .put("base", exact_list(priced.node_base_seconds))
                .put("cost", exact_list(priced.ligand_cost))
                .add("units", priced.units_per_ligand)
                .add("receptor_bytes", priced.receptor_bytes)
                .add("ligand_bytes", priced.ligand_bytes)
                .add("state_bytes", priced.state_bytes)
                .str());

  constexpr sched::DistributionPolicy kPolicies[] = {
      sched::DistributionPolicy::kStatic, sched::DistributionPolicy::kStaticProportional,
      sched::DistributionPolicy::kDynamic, sched::DistributionPolicy::kWorkStealing};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const sched::DistributionPolicy policy = kPolicies[seed % 4];
    lines.add("random " + std::to_string(seed) + " " + std::string(sched::policy_name(policy)),
              random_campaign(seed, policy));
  }
  expect_golden("cluster.golden", read_golden("cluster.golden"), lines.keys, lines.values);
}

// ---------------------------------------------------------------------------
// Science digests

std::uint64_t hits_digest(const std::vector<vs::LigandHit>& hits) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const vs::LigandHit& hit : hits) {
    h = fnv1a(h, hit.ligand_index, 8);
    h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(hit.best_spot_id)), 8);
    h = fnv1a(h, std::bit_cast<std::uint64_t>(hit.best_score), 8);
    const scoring::Pose& p = hit.best_pose;
    for (const float v : {p.position.x, p.position.y, p.position.z, p.orientation.w,
                          p.orientation.x, p.orientation.y, p.orientation.z}) {
      h = fnv1a(h, std::bit_cast<std::uint32_t>(v), 4);
    }
  }
  return h;
}

struct Variant {
  std::string name;
  sched::Strategy strategy = sched::Strategy::kHeterogeneous;
  bool overlap = true;
  bool death = false;
  double cpu_tail_share = 0.0;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  const std::pair<const char*, sched::Strategy> strategies[] = {
      {"het", sched::Strategy::kHeterogeneous},
      {"hom", sched::Strategy::kHomogeneous},
      {"coop", sched::Strategy::kCooperative},
      {"cpu", sched::Strategy::kCpu}};
  for (const auto& [name, strategy] : strategies) {
    for (const bool overlap : {true, false}) {
      out.push_back({std::string(name) + (overlap ? "+overlap" : ""), strategy, overlap});
    }
  }
  out.push_back({"het+overlap+death", sched::Strategy::kHeterogeneous, true, true});
  out.push_back({"het+overlap+cpu-tail", sched::Strategy::kHeterogeneous, true, false, 0.25});
  return out;
}

TEST(Golden, HitsDigestIsTheSameForEveryVariant) {
  mol::ReceptorParams rp;
  rp.atom_count = 300;
  rp.seed = 31;
  const mol::Molecule receptor = mol::make_receptor(rp);
  mol::LibraryParams lp;
  lp.count = 3;
  lp.min_atoms = 8;
  lp.max_atoms = 14;
  const std::vector<mol::Molecule> library = mol::make_ligand_library(lp);

  std::vector<scoring::SimdLevel> levels = {scoring::SimdLevel::kScalar};
  if (scoring::simd_kernel_supported()) levels.push_back(scoring::SimdLevel::kAvx2);
  const std::vector<Variant> all = variants();

  std::vector<meta::MetaheuristicParams> presets = meta::table4_presets();
  presets.push_back(meta::sa_annealing());
  presets.push_back(meta::tabu_search());

  std::vector<std::string> keys, values;
  for (const scoring::SimdLevel level : levels) {
    for (meta::MetaheuristicParams params : presets) {
      params.population_per_spot = 8;
      std::string digest;
      for (const Variant& v : all) {
        vs::ScreeningOptions o;
        o.params = params;
        o.scale = 0.005;
        o.exec.strategy = v.strategy;
        o.exec.overlap = v.overlap;
        o.exec.cpu_tail_share = v.cpu_tail_share;
        o.exec.kernel.simd_level = level;
        // A short warm-up puts the seeded death inside the scoring phase of
        // every dock (warm-up ends by 0.15 ms, scoring runs past 0.38 ms).
        o.exec.warmup_iterations = 2;
        o.exec.warmup_batch = 256;
        if (v.death) o.exec.fault_plan.kill(1, 0.0002);
        vs::VirtualScreeningEngine engine(receptor, sched::hertz(), o);
        const std::vector<vs::LigandHit> hits = engine.screen(library);
        if (v.death) {
          for (const vs::LigandHit& hit : hits) EXPECT_EQ(hit.faults.devices_lost, 1u) << v.name;
        }
        char buf[24];
        std::snprintf(buf, sizeof buf, "0x%016" PRIx64, hits_digest(hits));
        if (digest.empty()) digest = buf;
        EXPECT_EQ(buf, digest) << params.name << " " << scoring::simd_level_name(level) << " "
                               << v.name << " differs from " << all.front().name;
      }
      keys.push_back(std::string(METADOCK_GOLDEN_BUILD) + " " +
                     std::string(scoring::simd_level_name(level)) + " " + params.name);
      values.push_back(digest);
    }
  }
  const std::map<std::string, std::string> golden = read_golden("hits.golden");
  if (!pins_build(golden)) {
    GTEST_SKIP() << "hits.golden pins no digests for build " << METADOCK_GOLDEN_BUILD
                 << "; actual values:\n"
                 << golden_lines(keys, values);
  }
  expect_golden("hits.golden", golden, keys, values);
}

TEST(Golden, ConformerEnsemblesAreUnchanged) {
  std::vector<std::string> keys, values;
  for (const std::size_t atoms : {12, 30, 45}) {
    mol::LigandParams lp;
    lp.atom_count = atoms;
    lp.seed = 5;
    const mol::Molecule ligand = mol::make_ligand(lp);
    for (const std::uint64_t seed : {13, 99}) {
      mol::ConformerParams cp;
      cp.seed = seed;
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const mol::Molecule& conformer : mol::generate_conformers(ligand, cp)) {
        for (std::size_t i = 0; i < conformer.size(); ++i) {
          h = fnv1a(h, static_cast<std::uint64_t>(conformer.element(i)), 1);
          const geom::Vec3 p = conformer.position(i);
          for (const float v : {p.x, p.y, p.z}) h = fnv1a(h, std::bit_cast<std::uint32_t>(v), 4);
        }
      }
      char buf[24];
      std::snprintf(buf, sizeof buf, "0x%016" PRIx64, h);
      keys.push_back(std::string(METADOCK_GOLDEN_BUILD) + " conformers atoms=" +
                     std::to_string(atoms) + ",seed=" + std::to_string(seed));
      values.push_back(buf);
    }
  }
  const std::map<std::string, std::string> golden = read_golden("hits.golden");
  if (!pins_build(golden)) {
    GTEST_SKIP() << "hits.golden pins no conformer digests for build " << METADOCK_GOLDEN_BUILD
                 << "; actual values:\n"
                 << golden_lines(keys, values);
  }
  expect_golden("hits.golden", golden, keys, values);
}

// ---------------------------------------------------------------------------
// AVX2 kernel energies

/// Coordinate on a 1/256 A grid in [-10, 10): exact in every build, so the
/// kernel sees the same inputs whatever the optimization level.
float grid_coord(util::Xoshiro256& rng) {
  return static_cast<float>(static_cast<int>(rng() % 5120) - 2560) / 256.0f;
}

/// Skips one draw per atom.  The stream behind kernel_avx2.golden
/// interleaves a charge draw with each atom's coordinates; no kernel reads
/// charges, but dropping the draw would move every pinned coordinate.
void skip_charge(util::Xoshiro256& rng) { (void)rng(); }

/// Receptor atom counts per element in each tile.  Tile 0's runs end in
/// tails of 0-7 atoms after one 8-atom step; tile 1's runs are tails alone
/// (1-7 atoms), two full steps, and two steps plus a tail of 4.
scoring::PartitionedReceptor kernel_receptor() {
  constexpr std::size_t kCounts[2][mol::kElementCount] = {
      {8, 9, 10, 11, 12, 13, 14, 15, 0, 0}, {1, 2, 3, 4, 5, 6, 7, 0, 16, 20}};
  util::Xoshiro256 rng(61);
  scoring::ReceptorAtoms receptor;
  for (const auto& tile : kCounts) {
    // Element-interleaved, so the partition really reorders each tile.
    std::size_t left[mol::kElementCount];
    std::copy(std::begin(tile), std::end(tile), left);
    for (bool any = true; any;) {
      any = false;
      for (int e = 0; e < mol::kElementCount; ++e) {
        if (left[e] == 0) continue;
        --left[e];
        any = true;
        receptor.x.push_back(grid_coord(rng));
        receptor.y.push_back(grid_coord(rng));
        receptor.z.push_back(grid_coord(rng));
        receptor.type.push_back(static_cast<std::uint8_t>(e));
        skip_charge(rng);
      }
    }
  }
  std::size_t tile0 = 0;
  for (const std::size_t c : kCounts[0]) tile0 += c;
  return scoring::PartitionedReceptor::build(receptor, tile0);
}

std::string hex_float(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

TEST(Golden, Avx2KernelEnergiesAreUnchanged) {
  if (!scoring::simd_kernel_supported()) GTEST_SKIP() << "AVX2 kernel unavailable on this host";
  const scoring::PartitionedReceptor receptor = kernel_receptor();
  bool tails[8] = {};
  for (const scoring::TypeRun& run : receptor.runs) tails[run.count % 8] = true;
  for (int t = 0; t < 8; ++t) EXPECT_TRUE(tails[t]) << "no run ends in a tail of " << t;

  constexpr std::size_t kPoses = 3;
  std::vector<std::string> keys, values;
  for (std::size_t lig_n = 1; lig_n <= 9; ++lig_n) {
    util::Xoshiro256 rng(700 + lig_n);
    std::vector<float> lx, ly, lz;
    std::vector<std::uint8_t> ltype;
    for (std::size_t j = 0; j < lig_n; ++j) {
      ltype.push_back(static_cast<std::uint8_t>((3 * j + 1) % mol::kElementCount));
      skip_charge(rng);
    }
    for (std::size_t k = 0; k < kPoses * lig_n; ++k) {
      lx.push_back(grid_coord(rng));
      ly.push_back(grid_coord(rng));
      lz.push_back(grid_coord(rng));
    }
    // Pose 0 sits inside the receptor box, where a few close contacts
    // dominate its energy.  Pose 1 sits above it, so far pairs count too.
    // Pose 2 puts its first atom on a receptor atom: r^2 = 0 takes the
    // kMinR2 clamp.
    for (std::size_t j = lig_n; j < 2 * lig_n; ++j) lz[j] += 14.0f;
    const std::size_t clash = (kPoses - 1) * lig_n;
    lx[clash] = receptor.x[lig_n];
    ly[clash] = receptor.y[lig_n];
    lz[clash] = receptor.z[lig_n];

    std::vector<double> energy(kPoses, 0.0);
    scoring::detail::BlockKernelArgs args;
    args.rx = receptor.x.data();
    args.ry = receptor.y.data();
    args.rz = receptor.z.data();
    args.lx = lx.data();
    args.ly = ly.data();
    args.lz = lz.data();
    args.ltype = ltype.data();
    args.lig_n = lig_n;
    args.n_poses = kPoses;
    args.energy = energy.data();
    for (std::size_t t = 0; t < receptor.tiles(); ++t) {
      args.runs = receptor.runs.data() + receptor.tile_runs[t];
      args.n_runs = receptor.tile_runs[t + 1] - receptor.tile_runs[t];
      scoring::detail::score_block_tile_avx2(args);
    }

    std::string value;
    for (const double e : energy) value += (value.empty() ? "" : ",") + hex_float(e);
    keys.push_back(std::string(METADOCK_GOLDEN_BUILD) + " lj lig=" + std::to_string(lig_n));
    values.push_back(value);
  }
  const std::map<std::string, std::string> golden = read_golden("kernel_avx2.golden");
  if (!pins_build(golden)) {
    GTEST_SKIP() << "kernel_avx2.golden pins no energies for build " << METADOCK_GOLDEN_BUILD
                 << "; actual values:\n"
                 << golden_lines(keys, values);
  }
  expect_golden("kernel_avx2.golden", golden, keys, values);
}

}  // namespace
}  // namespace metadock
