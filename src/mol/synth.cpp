#include "mol/synth.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string_view>

#include "geom/cell_grid.h"
#include "util/rng.h"

namespace metadock::mol {

namespace {

using geom::Vec3;
using util::Xoshiro256;

/// Protein element frequencies, hydrogens included (order matches the
/// cumulative sampling below).
struct ElementMix {
  Element element;
  double fraction;
};

constexpr ElementMix kProteinMix[] = {
    {Element::kH, 0.50}, {Element::kC, 0.32}, {Element::kN, 0.085},
    {Element::kO, 0.085}, {Element::kS, 0.01},
};

Element sample_protein_element(Xoshiro256& rng) {
  double u = rng.uniform();
  for (const auto& m : kProteinMix) {
    if (u < m.fraction) return m.element;
    u -= m.fraction;
  }
  return Element::kC;
}

/// Typical partial charge magnitude per element (very rough).  No scoring
/// term reads charges; the draws stay because they share the RNG stream
/// that places the atoms, so dropping them would move every structure.
float sample_charge(Element e, Xoshiro256& rng) {
  switch (e) {
    case Element::kO:
      return static_cast<float>(rng.uniform(-0.65, -0.35));
    case Element::kN:
      return static_cast<float>(rng.uniform(-0.55, -0.25));
    case Element::kH:
      return static_cast<float>(rng.uniform(0.05, 0.35));
    case Element::kS:
      return static_cast<float>(rng.uniform(-0.25, 0.05));
    default:
      return static_cast<float>(rng.uniform(-0.15, 0.15));
  }
}

Vec3 random_in_unit_sphere(Xoshiro256& rng) {
  for (;;) {
    const Vec3 p{static_cast<float>(rng.uniform(-1.0, 1.0)),
                 static_cast<float>(rng.uniform(-1.0, 1.0)),
                 static_cast<float>(rng.uniform(-1.0, 1.0))};
    if (p.norm2() <= 1.0f) return p;
  }
}

Vec3 random_unit_vector(Xoshiro256& rng) {
  for (;;) {
    const Vec3 p = random_in_unit_sphere(rng);
    if (p.norm2() > 1e-4f) return p.normalized();
  }
}

std::uint64_t seed_from_id(std::string_view id, std::uint64_t salt) {
  std::uint64_t h = salt;
  for (char c : id) h = util::hash_combine(h, static_cast<std::uint64_t>(c));
  return h;
}

}  // namespace

Molecule make_receptor(const ReceptorParams& params) {
  if (params.atom_count == 0) return Molecule{"receptor"};
  if (params.density <= 0.0 || params.min_spacing <= 0.0) {
    throw std::invalid_argument("make_receptor: density and min_spacing must be positive");
  }
  Xoshiro256 rng = util::stream(params.seed, 0xECE97u);

  // Sphere radius from target density: N = density * (4/3) pi r^3.
  const double r = std::cbrt(3.0 * static_cast<double>(params.atom_count) /
                             (4.0 * std::numbers::pi * params.density));
  const auto radius = static_cast<float>(r);

  geom::Aabb box;
  box.extend({-radius, -radius, -radius});
  box.extend({radius, radius, radius});
  geom::CellGrid grid(box, static_cast<float>(params.min_spacing));

  Molecule mol("receptor");
  mol.reserve(params.atom_count);

  // Rejection-sample positions at min spacing.  At protein density this
  // accepts most draws; cap attempts so a pathological parameter set fails
  // loudly instead of spinning.
  const std::size_t max_attempts = params.atom_count * 4000;
  std::size_t attempts = 0;
  while (mol.size() < params.atom_count) {
    if (++attempts > max_attempts) {
      throw std::runtime_error("make_receptor: cannot pack atoms at requested density/spacing");
    }
    const Vec3 p = random_in_unit_sphere(rng) * radius;
    if (grid.has_point_closer_than(p, static_cast<float>(params.min_spacing))) continue;
    grid.insert(p, static_cast<std::uint32_t>(mol.size()));
    const Element e = sample_protein_element(rng);
    mol.add_atom(e, p, sample_charge(e, rng));
  }
  mol.center_at_origin();
  return mol;
}

Molecule make_ligand(const LigandParams& params) {
  if (params.atom_count == 0) return Molecule{"ligand"};
  Xoshiro256 rng = util::stream(params.seed, 0x116A4Du);

  // Drug-like: roughly half the atoms are heavy (C/N/O), grown as a
  // self-avoiding chain with occasional branches at bond-length spacing;
  // the rest are hydrogens decorating the skeleton.
  const std::size_t heavy_count = std::max<std::size_t>(1, (params.atom_count + 1) / 2);
  const std::size_t h_count = params.atom_count - heavy_count;
  constexpr float kBond = 1.5f;
  constexpr float kMinSep = 1.2f;

  std::vector<Vec3> heavy;
  heavy.reserve(heavy_count);
  heavy.push_back({0.0f, 0.0f, 0.0f});
  std::size_t guard = 0;
  while (heavy.size() < heavy_count) {
    if (++guard > heavy_count * 10000) {
      throw std::runtime_error("make_ligand: self-avoiding growth stalled");
    }
    // Grow from the tail usually, sometimes branch from a random atom.
    const std::size_t from =
        rng.bernoulli(0.8) ? heavy.size() - 1 : static_cast<std::size_t>(rng.below(heavy.size()));
    const Vec3 cand = heavy[from] + random_unit_vector(rng) * kBond;
    bool clash = false;
    for (std::size_t i = 0; i < heavy.size() && !clash; ++i) {
      if (i != from && cand.distance2(heavy[i]) < kMinSep * kMinSep) clash = true;
    }
    if (!clash) heavy.push_back(cand);
  }

  Molecule mol("ligand");
  mol.reserve(params.atom_count);
  for (const Vec3& p : heavy) {
    // Heavy-atom mix for small molecules: mostly carbon.
    const double u = rng.uniform();
    const Element e = u < 0.70 ? Element::kC : (u < 0.85 ? Element::kN : Element::kO);
    mol.add_atom(e, p, sample_charge(e, rng));
  }
  for (std::size_t i = 0; i < h_count; ++i) {
    const Vec3& host = heavy[rng.below(heavy.size())];
    mol.add_atom(Element::kH, host + random_unit_vector(rng) * 1.05f,
                 sample_charge(Element::kH, rng));
  }
  mol.center_at_origin();
  return mol;
}

Molecule make_dataset_receptor(const Dataset& ds) {
  ReceptorParams p;
  p.atom_count = ds.receptor_atoms;
  p.seed = seed_from_id(ds.pdb_id, 0xA11CEu);
  Molecule m = make_receptor(p);
  m.set_name(std::string(ds.pdb_id) + "-receptor");
  return m;
}

Molecule make_dataset_ligand(const Dataset& ds) {
  LigandParams p;
  p.atom_count = ds.ligand_atoms;
  p.seed = seed_from_id(ds.pdb_id, 0xB0B5u);
  Molecule m = make_ligand(p);
  m.set_name(std::string(ds.pdb_id) + "-ligand");
  return m;
}

}  // namespace metadock::mol
