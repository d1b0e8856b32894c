// Tests for the chemistry stack: molecules, structure prediction, docking
// (determinism, serialization, energetics), DTBA, pIC50, and the molecule
// generator.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "datagen/lifesci.h"
#include "models/cost_profile.h"
#include "models/docking.h"
#include "models/dtba.h"
#include "models/molecule.h"
#include "models/molgen.h"
#include "models/pic50.h"
#include "models/structure.h"

namespace ids::models {
namespace {

TEST(Molecule, ElementsFromSmiles) {
  auto e = elements_from_smiles("CC(=O)Nc1ccc1");
  // C,C,O,N,c,c,c,c -> 8 atoms.
  EXPECT_EQ(e.size(), 8u);
  EXPECT_EQ(e[2], Element::O);
  EXPECT_EQ(e[3], Element::N);
}

TEST(Molecule, LigandEmbeddingIsDeterministic) {
  Molecule a = ligand_from_smiles("CCNOC", 5);
  Molecule b = ligand_from_smiles("CCNOC", 5);
  ASSERT_EQ(a.atoms.size(), b.atoms.size());
  for (std::size_t i = 0; i < a.atoms.size(); ++i) {
    EXPECT_FLOAT_EQ(a.atoms[i].x, b.atoms[i].x);
    EXPECT_FLOAT_EQ(a.atoms[i].y, b.atoms[i].y);
    EXPECT_FLOAT_EQ(a.atoms[i].z, b.atoms[i].z);
  }
  // Different seed -> different conformer.
  Molecule c = ligand_from_smiles("CCNOC", 6);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.atoms.size(); ++i) {
    if (a.atoms[i].x != c.atoms[i].x) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Molecule, LigandCenteredAtOrigin) {
  Molecule m = ligand_from_smiles("CCCCCCCCCC", 0);
  Vec3 c = m.centroid();
  EXPECT_NEAR(c.x, 0.0, 1e-4);
  EXPECT_NEAR(c.y, 0.0, 1e-4);
  EXPECT_NEAR(c.z, 0.0, 1e-4);
}

TEST(Molecule, BondLengthsArePlausible) {
  Molecule m = ligand_from_smiles("CCCCCC", 1);
  for (std::size_t i = 1; i < m.atoms.size(); ++i) {
    double dx = m.atoms[i].x - m.atoms[i - 1].x;
    double dy = m.atoms[i].y - m.atoms[i - 1].y;
    double dz = m.atoms[i].z - m.atoms[i - 1].z;
    EXPECT_NEAR(std::sqrt(dx * dx + dy * dy + dz * dz), 1.5, 1e-3);
  }
}

TEST(Molecule, RotationPreservesShape) {
  Molecule m = ligand_from_smiles("CCNCCOCC", 2);
  double d01_before = std::hypot(m.atoms[0].x - m.atoms[1].x,
                                 m.atoms[0].y - m.atoms[1].y,
                                 m.atoms[0].z - m.atoms[1].z);
  m.rotate(0.7, -0.3, 1.9);
  double d01_after = std::hypot(m.atoms[0].x - m.atoms[1].x,
                                m.atoms[0].y - m.atoms[1].y,
                                m.atoms[0].z - m.atoms[1].z);
  EXPECT_NEAR(d01_before, d01_after, 1e-4);
}

TEST(Molecule, MolecularWeightCounts) {
  // C2: 2 * 12.011.
  EXPECT_NEAR(molecular_weight("CC"), 24.022, 1e-3);
  EXPECT_GT(molecular_weight("CCS"), molecular_weight("CCC"));
}

TEST(Structure, DeterministicAndCompleteTrace) {
  Rng rng(3);
  std::string seq = datagen::random_protein_sequence(rng, 150);
  PredictedStructure a = predict_structure(seq);
  PredictedStructure b = predict_structure(seq);
  ASSERT_EQ(a.ca_trace.size(), seq.size());
  for (std::size_t i = 0; i < a.ca_trace.size(); ++i) {
    EXPECT_FLOAT_EQ(a.ca_trace[i].x, b.ca_trace[i].x);
  }
  EXPECT_GT(a.mean_confidence, 40.0);
  EXPECT_LE(a.mean_confidence, 100.0);
  EXPECT_EQ(a.work_units, 150u * 150u);
}

TEST(Structure, PropensityClasses) {
  EXPECT_EQ(residue_propensity('A'), SecondaryStructure::kHelix);
  EXPECT_EQ(residue_propensity('V'), SecondaryStructure::kSheet);
  EXPECT_EQ(residue_propensity('G'), SecondaryStructure::kCoil);
}

TEST(Structure, ReceptorPocketIsCompactAndCentered) {
  Rng rng(5);
  std::string seq = datagen::random_protein_sequence(rng, 300);
  PredictedStructure s = predict_structure(seq);
  Molecule rec = receptor_from_structure(s, 48);
  ASSERT_EQ(rec.atoms.size(), 48u);
  // The anchor residue sits at the origin; some pocket atoms must be in
  // docking range of it.
  int close = 0;
  for (const auto& a : rec.atoms) {
    if (std::sqrt(a.x * a.x + a.y * a.y + a.z * a.z) < 15.0) ++close;
  }
  EXPECT_GT(close, 8);
}

TEST(Docking, DeterministicForSameInputs) {
  Rng rng(7);
  std::string seq = datagen::random_protein_sequence(rng, 200);
  DockingEngine eng(receptor_from_structure(predict_structure(seq)));
  DockingResult a = eng.dock_smiles("CCNC(=O)c1ccc1", 3);
  DockingResult b = eng.dock_smiles("CCNC(=O)c1ccc1", 3);
  EXPECT_EQ(a, b);
  DockingResult c = eng.dock_smiles("CCNC(=O)c1ccc1", 4);
  EXPECT_NE(a.best_energy, c.best_energy);  // seed matters
}

TEST(Docking, FindsNegativeEnergyPoses) {
  Rng rng(11);
  std::string seq = datagen::random_protein_sequence(rng, 250);
  DockingEngine eng(receptor_from_structure(predict_structure(seq)));
  Rng gen(13);
  int negative = 0;
  for (int i = 0; i < 5; ++i) {
    DockingResult r = eng.dock_smiles(generate_smiles(gen), 0);
    if (r.best_energy < -0.5) ++negative;
  }
  EXPECT_GE(negative, 3);  // most drug-like ligands find a binding pose
}

TEST(Docking, ModeEnergiesSortedBestFirst) {
  Rng rng(17);
  std::string seq = datagen::random_protein_sequence(rng, 200);
  DockingEngine eng(receptor_from_structure(predict_structure(seq)));
  DockingResult r = eng.dock_smiles("CCCNCCOC1CCCC1", 0);
  ASSERT_FALSE(r.mode_energies.empty());
  EXPECT_DOUBLE_EQ(r.best_energy, r.mode_energies.front());
  for (std::size_t i = 1; i < r.mode_energies.size(); ++i) {
    EXPECT_LE(r.mode_energies[i - 1], r.mode_energies[i]);
  }
}

TEST(Docking, WorkScalesWithLigandSizeAndExhaustiveness) {
  Rng rng(19);
  std::string seq = datagen::random_protein_sequence(rng, 200);
  Molecule rec = receptor_from_structure(predict_structure(seq));

  DockingEngine eng8(rec, DockingParams{});
  DockingParams p16;
  p16.exhaustiveness = 16;
  DockingEngine eng16(rec, p16);

  DockingResult small = eng8.dock_smiles("CCCC", 0);
  DockingResult large = eng8.dock_smiles("CCCCCCCCCCCCCCCCCCCCCCCC", 0);
  EXPECT_GT(large.work_units, small.work_units);

  DockingResult deep = eng16.dock_smiles("CCCC", 0);
  EXPECT_GT(deep.work_units, small.work_units);
}

TEST(Docking, ModeledCostInPaperEnvelope) {
  // Typical drug-like ligands must cost tens of seconds (the paper reports
  // 31-44 s per compound; we accept a slightly wider band for the size
  // spread of the synthetic library).
  Rng rng(23);
  std::string seq = datagen::random_protein_sequence(rng, 250);
  DockingEngine eng(receptor_from_structure(predict_structure(seq)));
  CostProfile costs;
  Rng gen(29);
  for (int i = 0; i < 5; ++i) {
    DockingResult r = eng.dock_smiles(generate_smiles(gen), 0);
    double secs = sim::to_seconds(costs.docking_cost(r.work_units));
    EXPECT_GT(secs, 10.0);
    EXPECT_LT(secs, 80.0);
  }
}

TEST(Docking, SerializeRoundTrips) {
  DockingResult r;
  r.best_energy = -7.25;
  r.mode_energies = {-7.25, -6.5, -3.125};
  r.work_units = 123456789;
  r.iterations = 1280;
  DockingResult back;
  ASSERT_TRUE(deserialize(serialize(r), &back));
  EXPECT_EQ(r, back);
}

TEST(Docking, DeserializeRejectsGarbage) {
  DockingResult r;
  EXPECT_FALSE(deserialize("", &r));
  EXPECT_FALSE(deserialize("not;enough", &r));
  EXPECT_FALSE(deserialize("x;1,2;3;4", &r));
  // Every field must parse whole.
  EXPECT_FALSE(deserialize("1.5;abc;3;4", &r));
  EXPECT_FALSE(deserialize("1.5;;x;y", &r));
  EXPECT_FALSE(deserialize("1.5junk;2;3;4", &r));
  EXPECT_FALSE(deserialize("1.5;2,;3;4", &r));
  EXPECT_FALSE(deserialize(" 1.5;2;3;4", &r));
  // The counts are unsigned decimals in range.
  EXPECT_FALSE(deserialize("1.5;2;-3;4", &r));
  EXPECT_FALSE(deserialize("1.5;2;+3;4", &r));
  EXPECT_FALSE(deserialize("1.5;2;3;4.0", &r));
  EXPECT_FALSE(deserialize("1.5;2;18446744073709551616;4", &r));
  EXPECT_FALSE(deserialize("1.5;2;3;4294967296", &r));
  ASSERT_TRUE(deserialize("1.5;2;18446744073709551615;4294967295", &r));
  EXPECT_EQ(r.work_units, 18446744073709551615u);
  EXPECT_EQ(r.iterations, 4294967295u);
  // An empty ligand's result stays valid.
  ASSERT_TRUE(deserialize("0;;0;0", &r));
  EXPECT_EQ(r, DockingResult{});
  EXPECT_EQ(serialize(DockingResult{}), "0;;0;0");
}

TEST(Docking, InteractionEnergyFarApartIsZero) {
  Molecule a = ligand_from_smiles("CCC", 0);
  Molecule b = ligand_from_smiles("CCC", 1);
  b.translate(100, 0, 0);
  EXPECT_DOUBLE_EQ(interaction_energy(a, b), 0.0);
}

TEST(Dtba, DeterministicPretrainedWeights) {
  DtbaModel a;
  DtbaModel b;
  auto pa = a.predict("ACDEFGHIKLMNPQRSTVWY", "CCNC");
  auto pb = b.predict("ACDEFGHIKLMNPQRSTVWY", "CCNC");
  EXPECT_DOUBLE_EQ(pa.affinity, pb.affinity);
}

TEST(Dtba, AffinityInPkdRange) {
  DtbaModel m;
  Rng rng(31);
  for (int i = 0; i < 20; ++i) {
    std::string seq = datagen::random_protein_sequence(rng, 150);
    Rng gen(static_cast<std::uint64_t>(i));
    auto p = m.predict(seq, generate_smiles(gen));
    EXPECT_GE(p.affinity, 4.0);
    EXPECT_LE(p.affinity, 11.0);
    EXPECT_GT(p.work_units, 0u);
  }
}

TEST(Dtba, InputsChangePrediction) {
  DtbaModel m;
  auto a = m.predict("AAAAAAAAAAAAAAAA", "CCCC");
  auto b = m.predict("WWWWWWWWWWWWWWWW", "CCCC");
  auto c = m.predict("AAAAAAAAAAAAAAAA", "NNNN");
  EXPECT_NE(a.affinity, b.affinity);
  EXPECT_NE(a.affinity, c.affinity);
}

TEST(Dtba, FeaturesAreL2Normalized) {
  auto f = DtbaModel::protein_features("ACDEFGHIKLMNPQRSTVWYACDEF");
  double norm = 0;
  for (float x : f) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-4);
}

TEST(Dtba, CostTailIsDeterministic) {
  CostProfile costs;
  sim::Nanos a = costs.dtba_cost(10000, 12345);
  sim::Nanos b = costs.dtba_cost(10000, 12345);
  EXPECT_EQ(a, b);
  // Over many call hashes, roughly tail_fraction of calls are slow.
  int slow = 0;
  for (std::uint64_t h = 0; h < 2000; ++h) {
    if (costs.dtba_cost(10000, h) > sim::from_seconds(0.5)) ++slow;
  }
  EXPECT_GT(slow, 100);
  EXPECT_LT(slow, 260);
}

TEST(Pic50, KnownConversions) {
  EXPECT_DOUBLE_EQ(*pic50_from_ic50_nm(1.0), 9.0);    // 1 nM
  EXPECT_DOUBLE_EQ(*pic50_from_ic50_nm(1000.0), 6.0); // 1 uM
  EXPECT_FALSE(pic50_from_ic50_nm(0.0).has_value());
  EXPECT_FALSE(pic50_from_ic50_nm(-5.0).has_value());
}

TEST(Pic50, PotencyThreshold) {
  EXPECT_TRUE(is_potent(1.0, 8.0));     // 1 nM is potent
  EXPECT_FALSE(is_potent(100000.0, 5.0));  // 100 uM is not
}

TEST(MolGen, LibraryIsDistinctAndDeterministic) {
  auto a = generate_library(50, 7);
  auto b = generate_library(50, 7);
  EXPECT_EQ(a, b);
  std::set<std::string> uniq(a.begin(), a.end());
  EXPECT_EQ(uniq.size(), a.size());
}

TEST(MolGen, RespectsAtomBounds) {
  MolGenParams p;
  p.min_atoms = 10;
  p.max_atoms = 20;
  Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    auto smi = generate_smiles(rng, p);
    auto n = elements_from_smiles(smi).size();
    EXPECT_GE(n, 10u);
    EXPECT_LE(n, 20u);
  }
}

TEST(MolGen, WeightConditioningSteers) {
  MolGenParams p;
  p.target_weight = 250.0;
  Rng rng(11);
  double err_sum = 0;
  for (int i = 0; i < 20; ++i) {
    err_sum += std::abs(molecular_weight(generate_smiles(rng, p)) - 250.0);
  }
  MolGenParams q;  // unconditioned
  Rng rng2(11);
  double base_err = 0;
  for (int i = 0; i < 20; ++i) {
    base_err += std::abs(molecular_weight(generate_smiles(rng2, q)) - 250.0);
  }
  EXPECT_LT(err_sum, base_err);
}

}  // namespace
}  // namespace ids::models
