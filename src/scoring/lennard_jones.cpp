#include "scoring/lennard_jones.h"

#include <algorithm>
#include <stdexcept>

namespace metadock::scoring {

namespace {

template <typename Mol>
void fill_soa(const Mol& m, std::vector<float>& x, std::vector<float>& y, std::vector<float>& z,
              std::vector<std::uint8_t>& type) {
  const std::size_t n = m.size();
  x.resize(n);
  y.resize(n);
  z.resize(n);
  type.resize(n);
  std::copy(m.xs().begin(), m.xs().end(), x.begin());
  std::copy(m.ys().begin(), m.ys().end(), y.begin());
  std::copy(m.zs().begin(), m.zs().end(), z.begin());
  for (std::size_t i = 0; i < n; ++i) type[i] = static_cast<std::uint8_t>(m.element(i));
}

}  // namespace

LigandAtoms LigandAtoms::from(const mol::Molecule& ligand) {
  LigandAtoms out;
  fill_soa(ligand, out.x, out.y, out.z, out.type);
  return out;
}

ReceptorAtoms ReceptorAtoms::from(const mol::Molecule& receptor) {
  ReceptorAtoms out;
  fill_soa(receptor, out.x, out.y, out.z, out.type);
  return out;
}

AtomCounts AtomCounts::of(const mol::Molecule& receptor, const mol::Molecule& ligand) {
  if (receptor.empty() || ligand.empty()) {
    throw std::invalid_argument("AtomCounts: receptor and ligand must be non-empty");
  }
  return {receptor.size(), ligand.size()};
}

LennardJonesScorer::LennardJonesScorer(const mol::Molecule& receptor, const mol::Molecule& ligand)
    : receptor_(ReceptorAtoms::from(receptor)), ligand_(LigandAtoms::from(ligand)) {
  if (receptor.empty() || ligand.empty()) {
    throw std::invalid_argument("LennardJonesScorer: receptor and ligand must be non-empty");
  }
}

namespace detail {

void transform_ligand(const LigandAtoms& lig, const Pose& pose, float* tx, float* ty, float* tz) {
  const std::size_t n = lig.size();
  for (std::size_t j = 0; j < n; ++j) {
    const geom::Vec3 p = pose.apply({lig.x[j], lig.y[j], lig.z[j]});
    tx[j] = p.x;
    ty[j] = p.y;
    tz[j] = p.z;
  }
}

}  // namespace detail

double LennardJonesScorer::score(const Pose& pose) const {
  thread_local std::vector<float> tx, ty, tz;
  tx.resize(ligand_.size());
  ty.resize(ligand_.size());
  tz.resize(ligand_.size());
  detail::transform_ligand(ligand_, pose, tx.data(), ty.data(), tz.data());
  const PairTable& table = PairTable::instance();
  const float* rx = receptor_.x.data();
  const float* ry = receptor_.y.data();
  const float* rz = receptor_.z.data();
  const std::uint8_t* rtype = receptor_.type.data();
  double energy = 0.0;
  for (std::size_t j = 0; j < ligand_.size(); ++j) {
    const float px = tx[j], py = ty[j], pz = tz[j];
    const PairCoeff* row = table.row(static_cast<mol::Element>(ligand_.type[j]));
    double e = 0.0;
    for (std::size_t i = 0; i < receptor_.size(); ++i) {
      const float dx = rx[i] - px;
      const float dy = ry[i] - py;
      const float dz = rz[i] - pz;
      const float r2 = std::max(dx * dx + dy * dy + dz * dz, detail::kMinR2);
      const float inv2 = 1.0f / r2;
      const float inv6 = inv2 * inv2 * inv2;
      const PairCoeff& c = row[rtype[i]];
      const float pair = (c.a * inv6 - c.b) * inv6;
      e += pair;
    }
    energy += e;
  }
  return energy;
}

}  // namespace metadock::scoring
