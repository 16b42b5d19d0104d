#include <gtest/gtest.h>

#include "src/fragments/fragments.h"

namespace seqdl {
namespace {

FeatureSet F(const std::string& letters) {
  Result<FeatureSet> f = FeatureSet::FromLetters(letters);
  EXPECT_TRUE(f.ok());
  return *f;
}

// --- Theorem 6.1 conditions, spot checks from the paper's results ------------

TEST(SubsumptionTest, ReflexiveAndEmptyBottom) {
  for (FeatureSet f : AllFragments()) {
    EXPECT_TRUE(Subsumes(f, f)) << f.ToString();
    EXPECT_TRUE(Subsumes(FeatureSet(), f)) << f.ToString();
  }
}

TEST(SubsumptionTest, Transitive) {
  std::vector<FeatureSet> all = AllFragments();
  for (FeatureSet a : all) {
    for (FeatureSet b : all) {
      if (!Subsumes(a, b)) continue;
      for (FeatureSet c : all) {
        if (Subsumes(b, c)) {
          EXPECT_TRUE(Subsumes(a, c))
              << a.ToString() << " <= " << b.ToString() << " <= "
              << c.ToString();
        }
      }
    }
  }
}

TEST(SubsumptionTest, ArityAndPackingAreRedundant) {
  // Theorems 4.2 and 4.15: adding or removing A and P never changes the
  // expressive power.
  for (FeatureSet f : AllFragments()) {
    EXPECT_TRUE(Equivalent(f, f.With(Feature::kArity)));
    EXPECT_TRUE(Equivalent(f, f.With(Feature::kPacking)));
    EXPECT_TRUE(Equivalent(f, f.Without(Feature::kArity)));
    EXPECT_TRUE(Equivalent(f, f.Without(Feature::kPacking)));
  }
}

TEST(SubsumptionTest, NegationIsPrimitive) {
  // Condition 1: {N} is not subsumed by the full negation-free fragment.
  EXPECT_FALSE(Subsumes(F("N"), F("AEIPR")));
  EXPECT_TRUE(Subsumes(F("N"), F("N")));
}

TEST(SubsumptionTest, RecursionIsPrimitive) {
  // Theorem 5.3.
  EXPECT_FALSE(Subsumes(F("R"), F("AEINP")));
}

TEST(SubsumptionTest, EquationsRedundantGivenIntermediate) {
  // Theorem 4.7: E <= {I}; more generally E can be replaced by I.
  EXPECT_TRUE(Subsumes(F("E"), F("I")));
  EXPECT_TRUE(Subsumes(F("EIN"), F("IN")));
  EXPECT_TRUE(Subsumes(F("EINR"), F("INR")));
}

TEST(SubsumptionTest, EquationsPrimitiveWithoutIntermediate) {
  // Theorem 5.7: E is primitive in the absence of I.
  EXPECT_FALSE(Subsumes(F("E"), F("ANPR")));
}

TEST(SubsumptionTest, IntermediateRedundantGivenEquationsNoNR) {
  // Theorem 4.16: I <= E in the absence of N and R.
  EXPECT_TRUE(Subsumes(F("I"), F("E")));
  EXPECT_TRUE(Equivalent(F("I"), F("E")));
  EXPECT_TRUE(Equivalent(F("EI"), F("E")));
}

TEST(SubsumptionTest, IntermediatePrimitiveWithNegation) {
  // Theorem 5.5: {I,N} is not subsumed by anything lacking I.
  EXPECT_FALSE(Subsumes(F("IN"), F("AENPR")));
}

TEST(SubsumptionTest, IntermediatePrimitiveWithRecursion) {
  // Theorem 5.6.
  EXPECT_FALSE(Subsumes(F("IR"), F("AENPR")));
}

TEST(SubsumptionTest, PaperEquivalences) {
  // The merged classes of Figure 1.
  EXPECT_TRUE(Equivalent(F("INR"), F("EINR")));
  EXPECT_TRUE(Equivalent(F("IN"), F("EIN")));
  EXPECT_TRUE(Equivalent(F("IR"), F("EIR")));
  EXPECT_TRUE(Equivalent(F("E"), F("I")));
  EXPECT_TRUE(Equivalent(F("E"), F("EI")));
}

TEST(SubsumptionTest, PaperNonSubsumptions) {
  // A sample of absent paths in Figure 1.
  EXPECT_FALSE(Subsumes(F("EN"), F("ENR").Without(Feature::kNegation)));
  EXPECT_FALSE(Subsumes(F("EN"), F("IR")));   // N not in {I,R}
  EXPECT_FALSE(Subsumes(F("NR"), F("EN")));   // R missing
  EXPECT_FALSE(Subsumes(F("ER"), F("NR")));   // E needs E or I
  EXPECT_FALSE(Subsumes(F("IN"), F("ENR")));  // condition 5
  EXPECT_FALSE(Subsumes(F("IR"), F("ENR")));  // condition 5
  EXPECT_FALSE(Subsumes(F("N"), F("ER")));
  EXPECT_FALSE(Subsumes(F("R"), F("EN")));
}

TEST(SubsumptionTest, ChainsOfFigure1) {
  // An ascending path in Figure 1 bottom-to-top.
  EXPECT_TRUE(Subsumes(F(""), F("E")));
  EXPECT_TRUE(Subsumes(F("E"), F("EN")));
  EXPECT_TRUE(Subsumes(F("EN"), F("IN")));
  EXPECT_TRUE(Subsumes(F("IN"), F("INR")));
  EXPECT_TRUE(Subsumes(F(""), F("R")));
  EXPECT_TRUE(Subsumes(F("R"), F("ER")));
  EXPECT_TRUE(Subsumes(F("ER"), F("IR")));
  EXPECT_TRUE(Subsumes(F("IR"), F("INR")));
  EXPECT_TRUE(Subsumes(F("N"), F("EN")));
  EXPECT_TRUE(Subsumes(F("NR"), F("ENR")));
  EXPECT_TRUE(Subsumes(F("ENR"), F("INR")));
}

// --- Figure 1: the equivalence classes and Hasse diagram ------------------------

TEST(Figure1Test, ElevenEquivalenceClasses) {
  std::vector<FragmentClass> classes = CoreEquivalenceClasses();
  EXPECT_EQ(classes.size(), 11u);
}

TEST(Figure1Test, ClassesMatchThePaper) {
  std::vector<FragmentClass> classes = CoreEquivalenceClasses();
  std::set<std::string> labels;
  for (const FragmentClass& c : classes) labels.insert(c.Label());
  // The four merged classes.
  EXPECT_TRUE(labels.count("{E} = {I} = {E,I}")) << [&] {
    std::string all;
    for (const std::string& l : labels) all += l + "\n";
    return all;
  }();
  EXPECT_TRUE(labels.count("{I,N} = {E,I,N}"));
  EXPECT_TRUE(labels.count("{I,R} = {E,I,R}"));
  EXPECT_TRUE(labels.count("{I,N,R} = {E,I,N,R}"));
  // The seven singleton classes.
  for (const char* single :
       {"{}", "{E,N}", "{N,R}", "{E,R}", "{N}", "{R}", "{E,N,R}"}) {
    EXPECT_TRUE(labels.count(single)) << single;
  }
}

TEST(Figure1Test, HasseDiagramStructure) {
  HasseDiagram d = BuildHasseDiagram();
  EXPECT_EQ(d.classes.size(), 11u);
  // Figure 1 has exactly these cover edges (lower < upper), as drawn:
  //   {} < {N}, {} < {E}={I}, {} < {R}
  //   {N} < {E,N}, {N} < {N,R}
  //   {E} < {E,N}, {E} < {E,R}, {E} < {I,R}(via?) ...
  // We verify the edge COUNT and a handful of specific covers.
  auto has_edge = [&](const std::string& lo, const std::string& hi) {
    for (const auto& [a, b] : d.edges) {
      if (d.classes[a].Label() == lo && d.classes[b].Label() == hi) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_edge("{}", "{N}"));
  EXPECT_TRUE(has_edge("{}", "{R}"));
  EXPECT_TRUE(has_edge("{}", "{E} = {I} = {E,I}"));
  EXPECT_TRUE(has_edge("{N}", "{E,N}"));
  EXPECT_TRUE(has_edge("{N}", "{N,R}"));
  EXPECT_TRUE(has_edge("{E} = {I} = {E,I}", "{E,N}"));
  EXPECT_TRUE(has_edge("{E} = {I} = {E,I}", "{E,R}"));
  EXPECT_TRUE(has_edge("{R}", "{E,R}"));
  EXPECT_TRUE(has_edge("{R}", "{N,R}"));
  EXPECT_TRUE(has_edge("{E,N}", "{I,N} = {E,I,N}"));
  EXPECT_TRUE(has_edge("{E,N}", "{E,N,R}"));
  EXPECT_TRUE(has_edge("{N,R}", "{E,N,R}"));
  EXPECT_TRUE(has_edge("{E,R}", "{E,N,R}"));
  EXPECT_TRUE(has_edge("{E,R}", "{I,R} = {E,I,R}"));
  EXPECT_TRUE(has_edge("{I,N} = {E,I,N}", "{I,N,R} = {E,I,N,R}"));
  EXPECT_TRUE(has_edge("{I,R} = {E,I,R}", "{I,N,R} = {E,I,N,R}"));
  EXPECT_TRUE(has_edge("{E,N,R}", "{I,N,R} = {E,I,N,R}"));
  // No edge that contradicts the figure.
  EXPECT_FALSE(has_edge("{N}", "{E,R}"));
  EXPECT_FALSE(has_edge("{E,N}", "{I,R} = {E,I,R}"));
}

TEST(Figure1Test, TopAndBottomAreUnique) {
  HasseDiagram d = BuildHasseDiagram();
  size_t sources = 0, sinks = 0;
  for (size_t i = 0; i < d.classes.size(); ++i) {
    bool has_lower = false, has_upper = false;
    for (const auto& [lo, hi] : d.edges) {
      has_lower |= hi == i;
      has_upper |= lo == i;
    }
    if (!has_lower) ++sources;
    if (!has_upper) ++sinks;
  }
  EXPECT_EQ(sources, 1u);  // {}
  EXPECT_EQ(sinks, 1u);    // {I,N,R} = {E,I,N,R}
}

TEST(Figure1Test, RenderingsMentionAllClasses) {
  HasseDiagram d = BuildHasseDiagram();
  std::string text = RenderHasse(d);
  std::string dot = HasseToDot(d);
  for (const FragmentClass& c : d.classes) {
    EXPECT_NE(text.find(c.Label()), std::string::npos) << c.Label();
    EXPECT_NE(dot.find(c.Label()), std::string::npos) << c.Label();
  }
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(Figure1Test, CoreClassLabelNamesTheClassOfEachFragment) {
  // For all 64 fragments: the label of the one core class that holds the
  // fragment without A and P.
  std::vector<FragmentClass> core = CoreEquivalenceClasses();
  for (FeatureSet f : AllFragments()) {
    FeatureSet stripped =
        f.Without(Feature::kArity).Without(Feature::kPacking);
    std::vector<std::string> holding;
    for (const FragmentClass& c : core) {
      for (FeatureSet m : c.members) {
        if (m == stripped) holding.push_back(c.Label());
      }
    }
    ASSERT_EQ(holding.size(), 1u) << f.ToString();
    EXPECT_EQ(CoreClassLabel(f), holding[0]) << f.ToString();
  }
}

TEST(Figure1Test, SixtyFourFragmentsCollapseToEleven) {
  // Including A and P, all 64 fragments still fall into the same 11
  // classes.
  std::vector<FragmentClass> core = CoreEquivalenceClasses();
  size_t matched = 0;
  for (FeatureSet f : AllFragments()) {
    for (const FragmentClass& c : core) {
      if (Equivalent(f, c.Rep())) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_EQ(matched, 64u);
}

}  // namespace
}  // namespace seqdl
