// Equivalence gate for the docking kernel. models::interaction_energy and
// DockingEngine::dock must reproduce, bit for bit and at every SIMD level
// the host supports, the all-pairs scalar loop and Monte Carlo driver they
// replaced. Both are kept below verbatim as the reference: energies,
// modes, work_units and iterations are answers and modeled clocks, and
// work_units depends on which moves the energies accept.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/simd.h"
#include "datagen/lifesci.h"
#include "models/docking.h"
#include "models/molecule.h"
#include "models/structure.h"

namespace ids::models {
namespace {

// ---- Reference: the all-pairs loop and its driver, verbatim -------------

double reference_energy(const Molecule& receptor, const Molecule& ligand) {
  double energy = 0.0;
  for (const auto& ra : receptor.atoms) {
    LjParams rl = lj_params(ra.element);
    for (const auto& la : ligand.atoms) {
      double dx = ra.x - la.x;
      double dy = ra.y - la.y;
      double dz = ra.z - la.z;
      double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 > 64.0) continue;  // 8 A cutoff
      r2 = std::max(r2, 0.25);  // clamp to avoid singularities
      double r = std::sqrt(r2);

      LjParams ll = lj_params(la.element);
      double sigma = (rl.radius + ll.radius) * 0.5 * 1.78;
      double eps = std::sqrt(static_cast<double>(rl.well_depth) *
                             static_cast<double>(ll.well_depth));
      double sr2 = (sigma * sigma) / r2;
      double sr6 = sr2 * sr2 * sr2;
      double lj = 4.0 * eps * (sr6 * sr6 - sr6);
      energy += std::min(lj, 10.0);

      energy += 332.0 * ra.charge * la.charge / (4.0 * r2);

      bool ra_polar = ra.element == Element::N || ra.element == Element::O;
      bool la_polar = la.element == Element::N || la.element == Element::O;
      if (ra_polar && la_polar && r > 2.4 && r < 3.6) {
        double center = 3.0;
        double w = 1.0 - std::abs(r - center) / 0.6;
        if (w > 0.0) energy -= 1.6 * w;
      }

      if (ra.element == Element::C && la.element == Element::C && r > 3.2 &&
          r < 5.0) {
        energy -= 0.45 * (1.0 - (r - 3.2) / 1.8);
      }
    }
  }
  return energy;
}

DockingResult reference_dock(const Molecule& receptor,
                             const DockingParams& params,
                             const Molecule& ligand, std::uint64_t seed) {
  DockingResult result;
  if (ligand.atoms.empty() || receptor.atoms.empty()) return result;

  const std::uint64_t pair_work =
      static_cast<std::uint64_t>(ligand.atoms.size()) *
      static_cast<std::uint64_t>(receptor.atoms.size());
  const int steps =
      static_cast<int>(params.steps_per_run *
                       std::max(1.0, static_cast<double>(ligand.atoms.size()) /
                                         10.0));

  Rng base_rng(hash_combine(fnv1a64(ligand.name), seed));

  std::vector<double> mode_energies;
  for (int run = 0; run < params.exhaustiveness; ++run) {
    Rng rng = base_rng.fork(static_cast<std::uint64_t>(run));

    Molecule pose = ligand;
    pose.translate(rng.uniform(-params.box_radius, params.box_radius),
                   rng.uniform(-params.box_radius, params.box_radius),
                   rng.uniform(-params.box_radius, params.box_radius));
    pose.rotate(rng.uniform(0.0, 6.2831853), rng.uniform(0.0, 6.2831853),
                rng.uniform(0.0, 6.2831853));

    double current = reference_energy(receptor, pose);
    double best = current;
    result.work_units += pair_work;

    for (int step = 0; step < steps; ++step) {
      double frac = static_cast<double>(step) / static_cast<double>(steps);
      double temp = params.temp_start *
                    std::pow(params.temp_end / params.temp_start, frac);
      double move_scale = 0.3 + 1.2 * (1.0 - frac);

      Molecule trial = pose;
      if (rng.bernoulli(0.5)) {
        trial.translate(rng.normal(0.0, move_scale),
                        rng.normal(0.0, move_scale),
                        rng.normal(0.0, move_scale));
      } else {
        trial.rotate(rng.normal(0.0, 0.35 * move_scale),
                     rng.normal(0.0, 0.35 * move_scale),
                     rng.normal(0.0, 0.35 * move_scale));
      }
      Vec3 c = trial.centroid();
      if (std::abs(c.x) > params.box_radius ||
          std::abs(c.y) > params.box_radius ||
          std::abs(c.z) > params.box_radius) {
        continue;
      }

      double e = reference_energy(receptor, trial);
      result.work_units += pair_work;
      ++result.iterations;

      if (e < current || rng.bernoulli(std::exp(-(e - current) / temp))) {
        pose = std::move(trial);
        current = e;
        best = std::min(best, e);
      }
    }
    mode_energies.push_back(best);
  }

  std::sort(mode_energies.begin(), mode_energies.end());
  if (mode_energies.size() > static_cast<std::size_t>(params.num_modes)) {
    mode_energies.resize(static_cast<std::size_t>(params.num_modes));
  }
  result.mode_energies = std::move(mode_energies);
  result.best_energy = result.mode_energies.front();
  return result;
}

// ---- Helpers --------------------------------------------------------------

/// Restores the pre-test dispatch level even when an assertion fails.
class ScopedLevel {
 public:
  ScopedLevel() : saved_(simd::active_level()) {}
  ~ScopedLevel() { simd::set_level(saved_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  simd::Level saved_;
};

/// Every level this host can actually run, scalar first.
std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out{simd::Level::kScalar};
  if (simd::detected_level() >= simd::Level::kAvx2) {
    out.push_back(simd::Level::kAvx2);
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A ligand of n atoms over all seven elements: a 1.5 Å random walk with
/// random partial charges, centred on the origin.
Molecule random_ligand(Rng& rng, std::size_t n) {
  Molecule m;
  m.name = "lig" + std::to_string(n);
  double x = 0.0, y = 0.0, z = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Atom a;
    a.element = static_cast<Element>(
        rng.next_below(static_cast<std::uint64_t>(Element::kCount)));
    a.charge = static_cast<float>(rng.uniform(-0.6, 0.6));
    a.x = static_cast<float>(x);
    a.y = static_cast<float>(y);
    a.z = static_cast<float>(z);
    m.atoms.push_back(a);
    x += rng.normal(0.0, 0.87);
    y += rng.normal(0.0, 0.87);
    z += rng.normal(0.0, 0.87);
  }
  Vec3 c = m.centroid();
  m.translate(-c.x, -c.y, -c.z);
  return m;
}

/// A ligand embedded from a SMILES-like string of n heavy atoms.
Molecule smiles_ligand(Rng& rng, std::size_t n) {
  static const char kAtoms[] = "CCCCCNNOOSPF";
  std::string smiles;
  for (std::size_t i = 0; i < n; ++i) {
    smiles += kAtoms[rng.next_below(sizeof(kAtoms) - 1)];
  }
  return ligand_from_smiles(smiles, rng.next_u64());
}

std::vector<Molecule> receptors() {
  std::vector<Molecule> out;
  for (std::uint64_t seed : {5u, 11u}) {
    Rng rng(seed);
    out.push_back(receptor_from_structure(
        predict_structure(datagen::random_protein_sequence(rng, 250))));
  }
  // A pocket of all seven elements, so every element pair is scored.
  Rng rng(97);
  Molecule all = random_ligand(rng, 48);
  all.name = "receptor";
  out.push_back(all);
  return out;
}

bool polar(Element e) { return e == Element::N || e == Element::O; }

/// Moves `lig` so that its atom j sits at distance d from receptor atom
/// ra, in a random direction.
void place_pair(Rng& rng, const Atom& ra, Molecule& lig, std::size_t j,
                double d) {
  double ux = rng.normal(0.0, 1.0);
  double uy = rng.normal(0.0, 1.0);
  double uz = rng.normal(0.0, 1.0);
  const double norm = std::sqrt(ux * ux + uy * uy + uz * uz);
  ux /= norm;
  uy /= norm;
  uz /= norm;
  const Atom& la = lig.atoms[j];
  lig.translate(ra.x + d * ux - la.x, ra.y + d * uy - la.y,
                ra.z + d * uz - la.z);
}

/// Poses that put one pair on each edge the kernel decides: within
/// ±0.01 Å of the 8 Å cutoff, inside the 0.5 Å clamp radius, on the N/O
/// 2.4/3.6 Å and C–C 3.2/5.0 Å windows (within a few float ulps), plus
/// random placements in the search box.
std::vector<Molecule> edge_poses(Rng& rng, const Molecule& receptor,
                                 const Molecule& lig) {
  std::vector<Molecule> out;
  const std::size_t nr = receptor.atoms.size();
  auto pick = [&](bool (*want)(Element), std::size_t* i, std::size_t* j) {
    for (int tries = 0; tries < 64; ++tries) {
      *i = rng.next_below(nr);
      *j = rng.next_below(lig.atoms.size());
      if (want(receptor.atoms[*i].element) && want(lig.atoms[*j].element)) {
        return;
      }
    }
  };
  auto any = [](Element) { return true; };
  auto carbon = [](Element e) { return e == Element::C; };
  struct Edge {
    bool (*want)(Element);
    double d;
    double spread;
  };
  const Edge edges[] = {
      {any, 8.0, 0.01},    {any, 0.25, 0.25},  {polar, 2.4, 2e-6},
      {polar, 3.6, 2e-6},  {polar, 3.0, 0.6},  {carbon, 3.2, 2e-6},
      {carbon, 5.0, 2e-6}, {carbon, 4.1, 0.9},
  };
  for (const Edge& edge : edges) {
    for (int rep = 0; rep < 3; ++rep) {
      std::size_t i = 0;
      std::size_t j = 0;
      pick(edge.want, &i, &j);
      Molecule pose = lig;
      place_pair(rng, receptor.atoms[i], pose, j,
                 edge.d + rng.uniform(-edge.spread, edge.spread));
      out.push_back(std::move(pose));
    }
  }
  for (int rep = 0; rep < 6; ++rep) {
    Molecule pose = lig;
    pose.translate(rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0),
                   rng.uniform(-12.0, 12.0));
    pose.rotate(rng.uniform(0.0, 6.3), rng.uniform(0.0, 6.3),
                rng.uniform(0.0, 6.3));
    out.push_back(std::move(pose));
  }
  return out;
}

// ---- Tests ------------------------------------------------------------------

TEST(DockingKernel, SinglePosesBitIdenticalAtEveryLevel) {
  ScopedLevel guard;
  const std::vector<Molecule> recs = receptors();
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 9; ++n) sizes.push_back(n);  // lane tails
  for (std::size_t n = 20; n <= 68; n += 6) sizes.push_back(n);
  Rng rng(2025);
  std::size_t poses = 0;
  for (std::size_t r = 0; r < recs.size(); ++r) {
    for (std::size_t n : sizes) {
      const Molecule lig =
          n % 2 == 0 ? smiles_ligand(rng, n) : random_ligand(rng, n);
      for (const Molecule& pose : edge_poses(rng, recs[r], lig)) {
        const double want = reference_energy(recs[r], pose);
        for (simd::Level lv : supported_levels()) {
          simd::set_level(lv);
          const double got = interaction_energy(recs[r], pose);
          ASSERT_EQ(bits(got), bits(want))
              << "receptor " << r << ", " << n << " atoms, level "
              << simd::level_name(lv) << ": " << got << " vs " << want;
        }
        ++poses;
      }
    }
  }
  EXPECT_GT(poses, 1000u);
}

TEST(DockingKernel, ExactEdgeDistancesMatchReference) {
  // Float offsets whose r is exactly the double the kernel compares with:
  // the cutoff (r² = 64), the clamp (r² = 0.25), the H-bond centre and
  // window edges and the hydrophobic window edges. The pair sits in each
  // lane of a full vector and in the tail; the other atoms are far away.
  struct Offset {
    float dx, dy, dz;
  };
  const Offset offsets[] = {
      {8.0f, 0.0f, 0.0f},
      {std::bit_cast<float>(0x3f85103bu), std::bit_cast<float>(0x40fdd456u),
       std::bit_cast<float>(0x382a1c62u)},  // r = 8
      {0.5f, 0.0f, 0.0f},
      {3.0f, 0.0f, 0.0f},
      {3.0f, 4.0f, 0.0f},
      {std::bit_cast<float>(0x3fa4f988u), std::bit_cast<float>(0x409a97c7u),
       std::bit_cast<float>(0x379a09f1u)},  // r = 5
      {std::bit_cast<float>(0x3f541afeu), std::bit_cast<float>(0x40102820u),
       std::bit_cast<float>(0x36b9e30fu)},  // r = 2.4
      {std::bit_cast<float>(0x3fdd02fcu), std::bit_cast<float>(0x404a2b77u),
       std::bit_cast<float>(0x38156ef3u)},  // r = 3.6
      {std::bit_cast<float>(0x40091bfeu), std::bit_cast<float>(0x401821bau),
       std::bit_cast<float>(0x38212ec0u)},  // r = 3.2
  };
  const std::pair<Element, Element> kinds[] = {
      {Element::C, Element::C}, {Element::N, Element::O},
      {Element::O, Element::N}, {Element::O, Element::O},
      {Element::C, Element::N}, {Element::S, Element::H},
  };
  ScopedLevel guard;
  for (const Offset& o : offsets) {
    for (const auto& [re, le] : kinds) {
      Molecule rec;
      rec.atoms.push_back({re, 0.0f, 0.0f, 0.0f, typical_charge(re)});
      for (std::size_t lane = 0; lane < 5; ++lane) {
        Molecule lig;
        for (std::size_t j = 0; j < 5; ++j) {
          Atom a{le, 30.0f + static_cast<float>(j), 0.0f, 0.0f,
                 typical_charge(le)};
          if (j == lane) {
            a.x = -o.dx;
            a.y = -o.dy;
            a.z = -o.dz;
          }
          lig.atoms.push_back(a);
        }
        const double want = reference_energy(rec, lig);
        for (simd::Level lv : supported_levels()) {
          simd::set_level(lv);
          EXPECT_EQ(bits(interaction_energy(rec, lig)), bits(want))
              << "offset (" << o.dx << ", " << o.dy << ", " << o.dz
              << "), lane " << lane << ", level " << simd::level_name(lv);
        }
      }
    }
  }
}

TEST(DockingKernel, NonFiniteCoordinatesScoreEveryPair) {
  // A NaN difference passes the r² > 64 test, so the box prune must not
  // drop the atom it comes from.
  ScopedLevel guard;
  Rng rng(3);
  const Molecule lig = random_ligand(rng, 12);
  const Molecule rec = receptors()[2];
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();

  std::vector<std::pair<Molecule, Molecule>> cases;
  Molecule far = rec;
  far.atoms[0].x = 1000.0f;
  far.atoms[0].y = kNan;
  cases.emplace_back(far, lig);
  Molecule nan_lig = lig;
  nan_lig.atoms[5].z = kNan;
  cases.emplace_back(rec, nan_lig);
  Molecule inf_rec = rec;
  inf_rec.atoms[3].x = kInf;
  inf_rec.atoms[3].y = 1000.0f;
  Molecule inf_lig = lig;
  inf_lig.atoms[7].x = kInf;
  cases.emplace_back(inf_rec, inf_lig);

  for (const auto& [r, l] : cases) {
    const double want = reference_energy(r, l);
    ASSERT_TRUE(std::isnan(want));
    for (simd::Level lv : supported_levels()) {
      simd::set_level(lv);
      EXPECT_TRUE(std::isnan(interaction_energy(r, l)))
          << simd::level_name(lv);
    }
  }
}

TEST(DockingKernel, FullDocksMatchReferenceAtEveryLevel) {
  ScopedLevel guard;
  const std::vector<Molecule> recs = receptors();
  struct Case {
    std::size_t atoms;
    int exhaustiveness;
  };
  const Case cases[] = {{36, 2}, {52, 2}, {68, 2}, {9, 8}, {22, 8}};
  Rng rng(77);
  for (std::size_t r = 0; r < 2; ++r) {
    for (const Case& c : cases) {
      DockingParams params;
      params.exhaustiveness = c.exhaustiveness;
      const Molecule lig = smiles_ligand(rng, c.atoms);
      const std::uint64_t seed = rng.next_below(16);
      const DockingResult want = reference_dock(recs[r], params, lig, seed);
      ASSERT_EQ(want.work_units,
                (static_cast<std::uint64_t>(c.exhaustiveness) +
                 want.iterations) *
                    lig.atoms.size() * recs[r].atoms.size());
      const DockingEngine engine(recs[r], params);
      for (simd::Level lv : supported_levels()) {
        simd::set_level(lv);
        const DockingResult got = engine.dock(lig, seed);
        EXPECT_EQ(got, want) << "receptor " << r << ", " << c.atoms
                             << " atoms, exhaustiveness " << c.exhaustiveness
                             << ", level " << simd::level_name(lv);
        EXPECT_EQ(std::memcmp(&got.best_energy, &want.best_energy,
                              sizeof(double)),
                  0);
        EXPECT_EQ(got.work_units,
                  (static_cast<std::uint64_t>(c.exhaustiveness) +
                   got.iterations) *
                      lig.atoms.size() * recs[r].atoms.size());
      }
    }
  }
}

TEST(DockingKernel, EmptyLigandGivesDefaultResult) {
  ScopedLevel guard;
  const Molecule rec = receptors()[0];
  for (simd::Level lv : supported_levels()) {
    simd::set_level(lv);
    EXPECT_EQ(DockingEngine(rec).dock(Molecule{}, 1), DockingResult{});
    EXPECT_EQ(bits(interaction_energy(rec, Molecule{})), bits(0.0));
  }
}

}  // namespace
}  // namespace ids::models
