#include "models/docking.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/hash.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/strings.h"

namespace ids::models {

namespace {

constexpr std::size_t kElements = static_cast<std::size_t>(Element::kCount);

bool polar(Element e) { return e == Element::N || e == Element::O; }

// One dock's scratch, in its frame so that one engine serves every thread:
// the pose (SoA) and each element's σ², 4ε and bonus kind per ligand atom,
// zero-padded to 4 lanes; a kernel row per receptor atom; term buffers.
class PoseScorer {
 public:
  PoseScorer(const std::vector<Atom>& receptor,
             const std::vector<Atom>& ligand)
      : n_(ligand.size()),
        stride_((n_ + 3) / 4 * 4),
        pose_(4 * stride_),  // x, y, z, charge
        constants_(kElements * 3 * stride_),
        kept_(receptor.size()) {
    float* charge = pose_.data() + 3 * stride_;
    for (std::size_t j = 0; j < n_; ++j) charge[j] = ligand[j].charge;
    for (std::size_t e = 0; e < kElements; ++e) {
      const auto re = static_cast<Element>(e);
      const LjParams rl = lj_params(re);
      double* c = constants_.data() + 3 * e * stride_;
      for (std::size_t j = 0; j < n_; ++j) {
        const Element le = ligand[j].element;
        const LjParams ll = lj_params(le);
        const double sigma = (rl.radius + ll.radius) * 0.5 * 1.78;
        c[j] = sigma * sigma;
        c[stride_ + j] = 4.0 * std::sqrt(static_cast<double>(rl.well_depth) *
                                         static_cast<double>(ll.well_depth));
        c[2 * stride_ + j] = polar(re) && polar(le) ? simd::kDockHbond
                             : re == Element::C && le == Element::C
                                 ? simd::kDockHydro
                                 : 0.0;
      }
    }
    for (const Atom& a : receptor) {
      const double* c = constants_.data() +
                        3 * static_cast<std::size_t>(a.element) * stride_;
      rows_.push_back({a.x, a.y, a.z, 332.0 * a.charge, c, c + stride_,
                       c + 2 * stride_});
    }
  }

  // The energy of `pose`. Receptor atoms farther than the cutoff from its
  // bounding box are skipped (exact: DESIGN.md §11); the terms are summed
  // serially, receptor-major and in ligand order, as the all-pairs loop did.
  double energy(const std::vector<Atom>& pose) {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    float lo[3] = {kInf, kInf, kInf};
    float hi[3] = {-kInf, -kInf, -kInf};
    bool finite = true;
    for (std::size_t j = 0; j < n_; ++j) {
      const float c[3] = {pose[j].x, pose[j].y, pose[j].z};
      for (std::size_t d = 0; d < 3; ++d) {
        pose_[d * stride_ + j] = c[d];
        lo[d] = std::min(lo[d], c[d]);
        hi[d] = std::max(hi[d], c[d]);
        finite &= std::isfinite(c[d]);
      }
    }
    if (n_ == 0 || !finite) {  // skip nothing
      std::fill(lo, lo + 3, -kInf);
      std::fill(hi, hi + 3, kInf);
    }
    // Every index is written and only a kept one counted, as a branch on
    // the test would often mispredict. A NaN gap keeps its atom.
    std::size_t num_kept = 0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const simd::DockRow& r = rows_[i];
      const double gx = r.x - std::clamp(r.x, lo[0], hi[0]);
      const double gy = r.y - std::clamp(r.y, lo[1], hi[1]);
      const double gz = r.z - std::clamp(r.z, lo[2], hi[2]);
      kept_[num_kept] = i;
      num_kept += !(gx * gx + gy * gy + gz * gz > simd::kDockCutoff2);
    }

    const float* p = pose_.data();
    const simd::DockLigand lig{p, p + stride_, p + 2 * stride_, p + 3 * stride_,
                               n_};
    for (auto* v : {&lj_, &coulomb_, &bonus_}) {
      v->resize(std::max(v->size(), num_kept * n_ + 3));
    }
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < num_kept; ++i) {
      pairs = simd::dock_pair_terms(rows_[kept_[i]], lig, lj_.data(),
                                    coulomb_.data(), bonus_.data(), pairs);
    }
    double e = 0.0;
    for (std::size_t k = 0; k < pairs; ++k) {
      e += lj_[k];
      e += coulomb_[k];
      // The loop subtracted the hydrogen-bond and the hydrophobic bonus,
      // at most one nonzero; subtracting +0.0 changes no double.
      if (bonus_[k] != 0.0) e -= bonus_[k];
    }
    return e;
  }

 private:
  std::size_t n_;
  std::size_t stride_;  // n_ padded to 4 lanes
  std::vector<float> pose_;
  std::vector<double> constants_;  // per element: sigma2, four_eps, bonus
  std::vector<double> lj_, coulomb_, bonus_;
  std::vector<simd::DockRow> rows_;
  std::vector<std::size_t> kept_;
};

}  // namespace

double interaction_energy(const Molecule& receptor, const Molecule& ligand) {
  return PoseScorer(receptor.atoms, ligand.atoms).energy(ligand.atoms);
}

DockingEngine::DockingEngine(Molecule receptor, DockingParams params)
    : receptor_(std::move(receptor)), params_(params) {}

DockingResult DockingEngine::dock(const Molecule& ligand,
                                  std::uint64_t seed) const {
  DockingResult result;
  if (ligand.atoms.empty() || receptor_.atoms.empty()) return result;

  const std::uint64_t pair_work =
      static_cast<std::uint64_t>(ligand.atoms.size()) *
      static_cast<std::uint64_t>(receptor_.atoms.size());

  // Larger ligands have a larger pose space and need proportionally more
  // Monte Carlo steps to converge (Vina's search effort likewise grows
  // with ligand size/torsions). This is what makes docking cost strongly
  // ligand-dependent — and the uncached Table 2 sweep superlinear once
  // diverse, bigger compounds enter the candidate set.
  const int steps =
      static_cast<int>(params_.steps_per_run *
                       std::max(1.0, static_cast<double>(ligand.atoms.size()) /
                                         10.0));

  Rng base_rng(hash_combine(fnv1a64(ligand.name), seed));
  PoseScorer scorer(receptor_.atoms, ligand.atoms);
  Molecule pose, trial;  // reused each step; an accepted move swaps them

  std::vector<double> mode_energies;
  for (int run = 0; run < params_.exhaustiveness; ++run) {
    Rng rng = base_rng.fork(static_cast<std::uint64_t>(run));

    // Random initial placement inside the box.
    pose.atoms = ligand.atoms;
    pose.translate(rng.uniform(-params_.box_radius, params_.box_radius),
                   rng.uniform(-params_.box_radius, params_.box_radius),
                   rng.uniform(-params_.box_radius, params_.box_radius));
    pose.rotate(rng.uniform(0.0, 6.2831853), rng.uniform(0.0, 6.2831853),
                rng.uniform(0.0, 6.2831853));

    double current = scorer.energy(pose.atoms);
    double best = current;
    result.work_units += pair_work;

    for (int step = 0; step < steps; ++step) {
      double frac = static_cast<double>(step) / static_cast<double>(steps);
      double temp = params_.temp_start *
                    std::pow(params_.temp_end / params_.temp_start, frac);
      double move_scale = 0.3 + 1.2 * (1.0 - frac);  // shrink moves as we cool

      trial.atoms = pose.atoms;
      if (rng.bernoulli(0.5)) {
        trial.translate(rng.normal(0.0, move_scale),
                        rng.normal(0.0, move_scale),
                        rng.normal(0.0, move_scale));
      } else {
        trial.rotate(rng.normal(0.0, 0.35 * move_scale),
                     rng.normal(0.0, 0.35 * move_scale),
                     rng.normal(0.0, 0.35 * move_scale));
      }
      // Keep the pose inside the search box.
      Vec3 c = trial.centroid();
      if (std::abs(c.x) > params_.box_radius ||
          std::abs(c.y) > params_.box_radius ||
          std::abs(c.z) > params_.box_radius) {
        continue;
      }

      double e = scorer.energy(trial.atoms);
      result.work_units += pair_work;
      ++result.iterations;

      if (e < current || rng.bernoulli(std::exp(-(e - current) / temp))) {
        pose.atoms.swap(trial.atoms);
        current = e;
        best = std::min(best, e);
      }
    }
    mode_energies.push_back(best);
  }

  std::sort(mode_energies.begin(), mode_energies.end());
  if (mode_energies.size() > static_cast<std::size_t>(params_.num_modes)) {
    mode_energies.resize(static_cast<std::size_t>(params_.num_modes));
  }
  result.mode_energies = std::move(mode_energies);
  result.best_energy = result.mode_energies.front();
  return result;
}

DockingResult DockingEngine::dock_smiles(std::string_view smiles,
                                         std::uint64_t seed) const {
  return dock(ligand_from_smiles(smiles), seed);
}

std::string serialize(const DockingResult& r) {
  std::string out;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", r.best_energy);
  out += buf;
  out += ';';
  for (std::size_t i = 0; i < r.mode_energies.size(); ++i) {
    if (i) out += ',';
    std::snprintf(buf, sizeof(buf), "%.17g", r.mode_energies[i]);
    out += buf;
  }
  out += ';';
  out += std::to_string(r.work_units);
  out += ';';
  out += std::to_string(r.iterations);
  return out;
}

bool deserialize(std::string_view text, DockingResult* out) {
  auto parts = split(text, ';');
  if (parts.size() != 4) return false;
  // Every field is one whole number: no whitespace, no '+', and no sign
  // on a count; false if out of range.
  auto whole = [](const std::string& tok, auto* v) {
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, *v);
    return ec == std::errc() && ptr == end;
  };
  DockingResult r;
  if (!whole(parts[0], &r.best_energy)) return false;
  if (!parts[1].empty()) {
    for (const auto& tok : split(parts[1], ',')) {
      if (!whole(tok, &r.mode_energies.emplace_back())) return false;
    }
  }
  if (!whole(parts[2], &r.work_units) || !whole(parts[3], &r.iterations)) {
    return false;
  }
  *out = r;
  return true;
}

}  // namespace ids::models
