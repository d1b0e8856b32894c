#pragma once

// Calibrated cost model for UDF kernels (the simulation's time base).
//
// Every kernel in src/models reports its *work units* (DP cells, atom-pair
// evaluations, multiply-adds). This profile converts work units into
// modeled time on the virtual clock, calibrated against the per-call
// magnitudes the paper states in §4/§5.1:
//
//   Smith-Waterman   < 1 ms per comparison        (≈350x350-residue DP)
//   pIC50            1e-5 s per call
//   DTBA             tenths of a second, with a variance tail
//                    ("most ≈ 1 s, some longer" in Fig 5's discussion)
//   Docking          31-44 s per ligand on the paper's nodes
//   Structure        minutes per protein (AlphaFold-class)
//   Python import    seconds ("loading Python modules can be
//                    time-consuming", §2.3)
//
// Changing these constants rescales the benchmark tables without touching
// any algorithm; EXPERIMENTS.md records the calibration used for the
// reported runs.

#include <cstdint>

#include "common/hash.h"
#include "sim/time.h"

namespace ids::models {

struct CostProfile {
  // Seconds per unit of work for each kernel.
  double sw_seconds_per_cell = 6.0e-9;        // ~0.7 ms per 350x350 DP
  double pic50_seconds = 1.0e-5;
  double dtba_base_seconds = 0.12;
  double dtba_seconds_per_unit = 2.0e-6;      // feature+MLP multiply-adds
  double dtba_tail_fraction = 0.08;           // calls hit by the slow tail
  double dtba_tail_multiplier = 7.0;          // Fig 5: "some longer"
  double docking_seconds_per_unit = 1.24e-5;  // atom-pair evaluations
  double structure_seconds_per_unit = 1.3e-3; // residue-pair units
  double vector_scan_seconds_per_unit = 1.0e-9;
  double module_load_seconds = 2.0;

  // Graph-engine operator costs (per element touched).
  double triple_scan_seconds_per_triple = 5.0e-9;
  double join_seconds_per_row = 2.0e-8;

  /// Fixed per-operator cost charged to every rank at each scan/join/
  /// filter stage: operator launch, straggler skew, and global
  /// synchronization that do not shrink with more ranks. This is what
  /// makes scan/join/merge plateau beyond ~128 nodes in Fig 4(b) ("ranks
  /// exhaust useful work"). Zero by default; the scaling benches calibrate
  /// it against the paper's plateau.
  double operator_overhead_seconds = 0.0;

  static const CostProfile& paper() {
    static const CostProfile p{};
    return p;
  }

  sim::Nanos sw_cost(std::uint64_t cells) const {
    return sim::from_seconds(sw_seconds_per_cell * static_cast<double>(cells));
  }
  sim::Nanos pic50_cost() const { return sim::from_seconds(pic50_seconds); }

  /// DTBA cost with the deterministic slow tail: `call_hash` (e.g. a hash
  /// of the inputs) selects which calls are slow, so reruns of the same
  /// query see the same variance pattern.
  sim::Nanos dtba_cost(std::uint64_t work_units, std::uint64_t call_hash) const {
    double s = dtba_base_seconds +
               dtba_seconds_per_unit * static_cast<double>(work_units);
    double u = static_cast<double>(mix64(call_hash) >> 11) * 0x1.0p-53;
    if (u < dtba_tail_fraction) s *= dtba_tail_multiplier;
    return sim::from_seconds(s);
  }

  sim::Nanos docking_cost(std::uint64_t work_units) const {
    return sim::from_seconds(docking_seconds_per_unit *
                             static_cast<double>(work_units));
  }
  sim::Nanos vector_scan_cost(std::uint64_t work_units) const {
    return sim::from_seconds(vector_scan_seconds_per_unit *
                             static_cast<double>(work_units));
  }
  sim::Nanos module_load_cost() const {
    return sim::from_seconds(module_load_seconds);
  }
  sim::Nanos triple_scan_cost(std::uint64_t triples) const {
    return sim::from_seconds(triple_scan_seconds_per_triple *
                             static_cast<double>(triples));
  }
  sim::Nanos join_cost(std::uint64_t rows) const {
    return sim::from_seconds(join_seconds_per_row *
                             static_cast<double>(rows));
  }
};

}  // namespace ids::models
