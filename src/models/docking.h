#pragma once

// Synthetic molecular docking engine (the AutoDock Vina stand-in).
//
// Substitution note (DESIGN.md): Vina's role in the paper's evaluation is
// an *expensive, variable-cost, deterministic-per-input, cacheable*
// simulation dominating the query critical path (31-44 s per ligand on
// their testbed). This engine reproduces that role with real computation:
// a pairwise Lennard-Jones + Coulomb + hydrogen-bond-flavoured scoring
// function over receptor/ligand atoms and a multi-restart simulated-
// annealing pose search (Vina's Monte Carlo + local-optimization scheme,
// minus torsional flexibility). Cost genuinely varies with ligand size and
// exhaustiveness; identical (receptor, ligand, seed) inputs produce
// bit-identical results, which is what makes docking outputs cacheable.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "models/molecule.h"

namespace ids::models {

struct DockingParams {
  int exhaustiveness = 8;      // independent annealing restarts (Vina's knob)
  int steps_per_run = 160;     // Monte Carlo steps per restart
  int num_modes = 9;           // binding modes reported
  double box_radius = 12.0;    // search box half-extent around the pocket
  double temp_start = 2.0;     // annealing temperature schedule (kcal/mol)
  double temp_end = 0.1;
};

struct DockingResult {
  double best_energy = 0.0;            // kcal/mol, lower is better
  std::vector<double> mode_energies;   // best per restart, sorted ascending
  std::uint64_t work_units = 0;        // ligand × receptor atoms per pose
  std::uint32_t iterations = 0;        // Monte Carlo steps scored (in-box)

  friend bool operator==(const DockingResult&, const DockingResult&) = default;
};

/// Pairwise interaction energy (kcal/mol-ish) between receptor and ligand
/// in their current coordinates, by the docking kernel. Exposed for tests.
double interaction_energy(const Molecule& receptor, const Molecule& ligand);

class DockingEngine {
 public:
  DockingEngine(Molecule receptor, DockingParams params = {});

  const Molecule& receptor() const { return receptor_; }
  const DockingParams& params() const { return params_; }

  /// Docks a ligand. Deterministic in (receptor, ligand, seed).
  DockingResult dock(const Molecule& ligand, std::uint64_t seed) const;

  /// Convenience: embed a SMILES string and dock it.
  DockingResult dock_smiles(std::string_view smiles,
                            std::uint64_t seed = 0) const;

 private:
  Molecule receptor_;
  DockingParams params_;
};

/// Compact text serialization for cache storage. Round-trips exactly
/// (energies are serialized with full precision).
std::string serialize(const DockingResult& r);
/// Parses a serialized result. Returns false on malformed input.
bool deserialize(std::string_view text, DockingResult* out);

}  // namespace ids::models
