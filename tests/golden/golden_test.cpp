// Golden files that pin the science and the paper reproduction, so a
// refactor of the host scoring or dispatch paths can prove it changed
// nothing:
//
//   * tables_6_9.golden — every virtual-time cell of Tables 6-9
//     (vs::run_jupiter_table / vs::run_hertz_table on 2BSM and 2BXG) as
//     %.17g, compared with ==.  Virtual time comes from the cost models
//     alone, so one set of values holds on every host and build.
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
#include "scoring/batch_engine.h"
#include "sched/node_config.h"
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

}  // namespace
}  // namespace metadock
