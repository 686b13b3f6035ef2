// Golden files that pin the science and the paper reproduction, so a
// refactor of the host scoring or dispatch paths can prove it changed
// nothing:
//
//   * tables_6_9.golden — every virtual-time cell of Tables 6-9
//     (vs::run_jupiter_table / vs::run_hertz_table on 2BSM and 2BXG) as
//     %.17g, compared with ==.  Virtual time comes from the cost models
//     alone, so one set of values holds on every host and build.
//   * dispatch.golden — the virtual timeline of every dispatch path the
//     tables do not cover: NodeExecutor::run and ::estimate per node x
//     strategy, and MultiGpuBatchScorer on a transfer-bound fragment per
//     call x split mode, each under six fault scenarios.  Makespan,
//     warm-up, energy, per-device work and busy time, the CPU tail, every
//     FaultReport field and the sched.* counters, all %.17g and ==.
//   * hits.golden — a 64-bit FNV-1a digest of a small seeded screen's hits
//     (ligand index, spot, best-energy bits, pose bits; never the timing
//     fields, which differ by strategy by design) per metaheuristic M1-M4,
//     keyed by build and SIMD level.  Scalar and AVX2 sums differ in the
//     last bits, and so do builds: the compiler, optimization level and
//     sanitizer decide how the -ffast-math scoring loops vectorize, so the
//     build key (METADOCK_GOLDEN_BUILD, set by tests/CMakeLists.txt) names
//     all three.  Every strategy x overlap variant, a device death and a
//     CPU tail share must reproduce the key: they change where and when
//     poses are scored, never what they score.  A build with no digests in
//     the file still runs that variant check, then skips the pin and
//     prints its values.
//   * kernel_avx2.golden — the AVX2 kernel's energies (%a) in each
//     Coulomb x cutoff instantiation, for ligands of 1-9 atoms on a
//     receptor whose runs end in tails of every length 0-7, keyed by build
//     like hits.golden.  The test calls detail::score_block_tile_avx2 on
//     grid coordinates, so no -ffast-math TU feeds it and it pins the
//     kernel's own FP sequence, which hits.golden (plain LJ only) and the
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
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "meta/params.h"
#include "mol/library.h"
#include "mol/synth.h"
#include "obs/observer.h"
#include "scoring/batch_engine.h"
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

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(Golden, Tables6To9AreUnchanged) {
  struct Table {
    const char* id;
    vs::ExperimentTable rows;
  };
  const Table tables[] = {{"table6", vs::run_jupiter_table(mol::kDataset2BSM)},
                          {"table7", vs::run_jupiter_table(mol::kDataset2BXG)},
                          {"table8", vs::run_hertz_table(mol::kDataset2BSM)},
                          {"table9", vs::run_hertz_table(mol::kDataset2BXG)}};
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

/// Everything one dispatch row pins.
struct Timeline {
  double makespan_s = 0.0;
  double warmup_s = 0.0;
  double energy_j = 0.0;
  std::uint64_t cpu_tail = 0;
  std::vector<std::pair<std::uint64_t, double>> devices;  // conformations, busy seconds
  sched::FaultReport faults;
};

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
                std::to_string(t.devices[d].first) + ":" + exact(t.devices[d].second));
  }
  out.add(row + " devices", devices.str());
  const sched::FaultReport& f = t.faults;
  std::string lost;
  for (const int d : f.lost_devices) lost += (lost.empty() ? "" : ";") + std::to_string(d);
  out.add(row + " faults", Fields()
                               .add("transient", f.transient_faults)
                               .add("retries", f.retries)
                               .add("lost", f.devices_lost)
                               .add("resplits", f.resplits)
                               .add("rebalances", f.rebalances)
                               .add("cpu_fallback", f.cpu_fallback_conformations)
                               .add("time_lost", f.time_lost_seconds)
                               .add("degraded", std::uint64_t{f.degraded_to_cpu})
                               .put("lost_devices", lost.empty() ? "-" : lost)
                               .str());
  Fields counters;
  for (const char* name : {"batches", "retries", "quarantines", "resplits", "rebalances",
                           "cpu_fallback_poses", "cpu_tail_poses", "overlap.saved_seconds"}) {
    counters.add(name, m.counter(std::string("sched.") + name).value());
  }
  obs::Histogram& barrier = m.histogram("sched.batch_barrier_seconds");
  counters.add("barrier.count", std::uint64_t{barrier.count()}).add("barrier.sum", barrier.sum());
  out.add(row + " sched", counters.str());
}

/// One fault scenario of the matrix.  Deaths land mid-scoring: `mid_s(d)`
/// is an instant inside device d's scoring phase in the row's fault-free
/// twin.
struct FaultCase {
  const char* name;
  gpusim::FaultPlan plan;
  std::size_t rebalance_batches = 0;
};

template <typename MidS>
std::vector<FaultCase> fault_cases(int n_dev, MidS&& mid_s) {
  gpusim::FaultPlan transient;
  transient.set_seed(2).transient(1, 0.2);
  gpusim::FaultPlan death;
  death.kill(1, mid_s(1));
  gpusim::FaultPlan all_dead;
  for (int d = 0; d < n_dev; ++d) all_dead.kill(d, 0.0);
  gpusim::FaultPlan straggler;
  straggler.straggle(0, 0.0, 4.0);
  gpusim::FaultPlan transient_death;
  transient_death.set_seed(1).transient(0, 0.5).kill(0, mid_s(0));
  return {{"none", {}},
          {"transient", transient},
          {"death", death},
          {"all-dead", all_dead},
          {"straggler", straggler, 2},
          {"transient+death", transient_death}};
}

void executor_rows(Lines& out) {
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
  meta::MetaheuristicParams params = meta::m1_genetic();
  params.population_per_spot = 8;
  params.generations = 2;
  for (const sched::NodeConfig& node : {sched::hertz(), sched::jupiter()}) {
    for (const Mode& mode : modes) {
      for (const bool replay : {false, true}) {
        const auto execute = [&](const FaultCase& c, obs::Observer& observer) {
          sched::ExecutorOptions o;
          o.strategy = mode.strategy;
          o.overlap = mode.overlap;
          o.cpu_tail_share = mode.cpu_tail_share;
          o.fault_plan = c.plan;
          o.fault_policy.rebalance_batches = c.rebalance_batches;
          o.observer = &observer;
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
        for (const FaultCase& c : fault_cases(node.gpu_count(), mid_s)) {
          obs::Observer observer;
          const bool fault_free = std::string(c.name) == "none";
          const sched::ExecutionReport r = fault_free ? clean : execute(c, observer);
          Timeline t;
          t.makespan_s = r.makespan_seconds;
          t.warmup_s = r.warmup_seconds;
          t.energy_j = r.energy_joules;
          obs::MetricsRegistry& m = (fault_free ? clean_observer : observer).metrics;
          t.cpu_tail = static_cast<std::uint64_t>(m.counter("sched.cpu_tail_poses").value());
          for (const sched::DeviceReport& d : r.devices) {
            t.devices.emplace_back(d.conformations, d.busy_seconds);
          }
          t.faults = r.faults;
          pin(out,
              std::string("exec ") + node.name + " " + mode.name + " " +
                  (replay ? "estimate" : "run") + " " + c.name,
              t, m);
        }
      }
    }
  }
}

void scorer_rows(Lines& out) {
  // The transfer-bound fragment (32 x 11 atoms) where the double buffer
  // really splits each slice.
  mol::ReceptorParams rp;
  rp.atom_count = 32;
  const mol::Molecule receptor = mol::make_receptor(rp);
  mol::LigandParams lp;
  lp.atom_count = 11;
  const mol::Molecule ligand = mol::make_ligand(lp);
  const scoring::LennardJonesScorer scorer(receptor, ligand);
  util::Xoshiro256 rng(5);
  std::vector<scoring::Pose> poses(4096);
  for (scoring::Pose& p : poses) {
    p.position = {static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10))};
    p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  }
  std::vector<double> scores(poses.size());

  struct Mode {
    const char* name;
    bool dynamic;
    bool overlap;
  };
  const Mode modes[] = {{"static+overlap", false, true},
                        {"static", false, false},
                        {"coop+overlap", true, true},
                        {"coop", true, false}};
  for (const Mode& mode : modes) {
    for (const bool cost_only : {true, false}) {
      const auto execute = [&](const FaultCase& c, obs::Observer& observer) {
        gpusim::Runtime rt = testing::mixed_node_runtime(c.plan);
        sched::MultiGpuOptions o;
        o.dynamic = mode.dynamic;
        o.overlap = mode.overlap;
        o.cpu_fallback = sched::hertz().cpu;
        o.faults.rebalance_batches = c.rebalance_batches;
        o.observer = &observer;
        sched::MultiGpuBatchScorer mgs(rt, scorer, o);
        for (int batch = 0; batch < 4; ++batch) {
          if (cost_only) {
            mgs.evaluate_cost_only(65536);
          } else {
            mgs.evaluate(poses, scores);
          }
        }
        Timeline t;
        t.makespan_s = mgs.node_seconds();
        t.energy_j = rt.total_energy_joules() + mgs.cpu_energy_joules();
        t.cpu_tail = mgs.cpu_tail_conformations();
        for (int d = 0; d < rt.device_count(); ++d) {
          t.devices.emplace_back(mgs.device_conformations()[static_cast<std::size_t>(d)],
                                 rt.device(d).busy_seconds());
        }
        t.faults = mgs.fault_report();
        return t;
      };
      obs::Observer clean_observer;
      const Timeline clean = execute({"none", {}}, clean_observer);
      const auto mid_s = [&clean](int d) {
        return 0.5 * clean.devices[static_cast<std::size_t>(d)].second;
      };
      for (const FaultCase& c : fault_cases(2, mid_s)) {
        obs::Observer observer;
        const bool fault_free = std::string(c.name) == "none";
        const Timeline t = fault_free ? clean : execute(c, observer);
        pin(out,
            std::string("scorer fragment ") + mode.name + " " +
                (cost_only ? "cost-only-65536" : "evaluate-4096") + " " + c.name,
            t, (fault_free ? clean_observer : observer).metrics);
      }
    }
  }
}

TEST(Golden, DispatchTimelinesAreUnchanged) {
  Lines lines;
  executor_rows(lines);
  scorer_rows(lines);
  expect_golden("dispatch.golden", read_golden("dispatch.golden"), lines.keys, lines.values);
}

// ---------------------------------------------------------------------------
// Science digests

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

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

  std::vector<std::string> keys, values;
  for (const scoring::SimdLevel level : levels) {
    for (meta::MetaheuristicParams params : meta::table4_presets()) {
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
  const bool pinned = std::any_of(golden.begin(), golden.end(), [](const auto& entry) {
    return entry.first.rfind(std::string(METADOCK_GOLDEN_BUILD) + " ", 0) == 0;
  });
  if (!pinned) {
    GTEST_SKIP() << "hits.golden pins no digests for build " << METADOCK_GOLDEN_BUILD
                 << "; actual values:\n"
                 << golden_lines(keys, values);
  }
  expect_golden("hits.golden", golden, keys, values);
}

// ---------------------------------------------------------------------------
// AVX2 kernel energies

/// Coordinate on a 1/256 A grid in [-10, 10) and charge on a 1/128 e grid
/// in [-0.5, 0.5]: exact in every build, so the kernel sees the same inputs
/// whatever the optimization level.
float grid_coord(util::Xoshiro256& rng) {
  return static_cast<float>(static_cast<int>(rng() % 5120) - 2560) / 256.0f;
}
float grid_charge(util::Xoshiro256& rng) {
  return static_cast<float>(static_cast<int>(rng() % 129) - 64) / 128.0f;
}

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
        receptor.charge.push_back(grid_charge(rng));
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

  struct Mode {
    const char* name;
    bool coulomb;
    float cutoff;
  };
  const Mode modes[] = {{"lj", false, 0.0f},
                        {"lj+cutoff", false, 6.5f},
                        {"coulomb", true, 0.0f},
                        {"coulomb+cutoff", true, 6.5f}};
  constexpr std::size_t kPoses = 3;
  std::vector<std::string> keys, values;
  for (const Mode& mode : modes) {
    for (std::size_t lig_n = 1; lig_n <= 9; ++lig_n) {
      util::Xoshiro256 rng(700 + lig_n);
      std::vector<float> lx, ly, lz, lcharge;
      std::vector<std::uint8_t> ltype;
      for (std::size_t j = 0; j < lig_n; ++j) {
        ltype.push_back(static_cast<std::uint8_t>((3 * j + 1) % mol::kElementCount));
        lcharge.push_back(grid_charge(rng));
      }
      for (std::size_t k = 0; k < kPoses * lig_n; ++k) {
        lx.push_back(grid_coord(rng));
        ly.push_back(grid_coord(rng));
        lz.push_back(grid_coord(rng));
      }
      // Pose 0 sits inside the receptor box, where a few close contacts
      // dominate its energy.  Pose 1 sits above it, so far pairs count
      // too.  Pose 2 puts its first atom on a receptor atom: r^2 = 0 takes
      // the kMinR2 clamp.
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
      args.rcharge = receptor.charge.data();
      args.lx = lx.data();
      args.ly = ly.data();
      args.lz = lz.data();
      args.ltype = ltype.data();
      args.lcharge = lcharge.data();
      args.lig_n = lig_n;
      args.n_poses = kPoses;
      args.coulomb = mode.coulomb;
      args.cutoff2 = mode.cutoff * mode.cutoff;
      args.energy = energy.data();
      for (std::size_t t = 0; t < receptor.tiles(); ++t) {
        args.runs = receptor.runs.data() + receptor.tile_runs[t];
        args.n_runs = receptor.tile_runs[t + 1] - receptor.tile_runs[t];
        scoring::detail::score_block_tile_avx2(args);
      }

      std::string value;
      for (const double e : energy) value += (value.empty() ? "" : ",") + hex_float(e);
      keys.push_back(std::string(METADOCK_GOLDEN_BUILD) + " " + mode.name +
                     " lig=" + std::to_string(lig_n));
      values.push_back(value);
    }
  }
  const std::map<std::string, std::string> golden = read_golden("kernel_avx2.golden");
  const bool pinned = std::any_of(golden.begin(), golden.end(), [](const auto& entry) {
    return entry.first.rfind(std::string(METADOCK_GOLDEN_BUILD) + " ", 0) == 0;
  });
  if (!pinned) {
    GTEST_SKIP() << "kernel_avx2.golden pins no energies for build " << METADOCK_GOLDEN_BUILD
                 << "; actual values:\n"
                 << golden_lines(keys, values);
  }
  expect_golden("kernel_avx2.golden", golden, keys, values);
}

}  // namespace
}  // namespace metadock
