//===- tests/workloads_test.cpp - application model tests -------------------===//

#include "workloads/AppModel.h"

#include "TestOracles.h"

#include <gtest/gtest.h>

#include <set>

using namespace offchip;

TEST(Workloads, ThirteenApplications) {
  EXPECT_EQ(appNames().size(), 13u);
  std::set<std::string> Unique(appNames().begin(), appNames().end());
  EXPECT_EQ(Unique.size(), 13u);
  // The paper's suite: SPEC OMP minus equake plus three Mantevo apps.
  EXPECT_EQ(Unique.count("equake"), 0u);
  for (const char *Name : {"wupwise", "fma3d", "hpccg", "minighost",
                           "minimd", "gafort"})
    EXPECT_EQ(Unique.count(Name), 1u) << Name;
}

TEST(Workloads, AppNamesInThePapersOrder) {
  EXPECT_EQ(appNames(),
            (std::vector<std::string>{"wupwise", "swim", "mgrid", "applu",
                                      "galgel", "apsi", "gafort", "fma3d",
                                      "art", "ammp", "hpccg", "minighost",
                                      "minimd"}));
}

TEST(Workloads, EveryAppBuildsConsistently) {
  for (const std::string &Name : appNames()) {
    AppModel App = buildApp(Name, 0.25);
    EXPECT_EQ(App.Program.name(), Name);
    EXPECT_GT(App.Program.numArrays(), 0u) << Name;
    EXPECT_FALSE(App.Program.nests().empty()) << Name;
    EXPECT_GT(App.MemDemandPerCore, 0.0) << Name;
    EXPECT_GT(App.ComputeGapCycles, 0u) << Name;
    EXPECT_FALSE(App.Summary.empty()) << Name;
    // All references must be in bounds over their whole iteration space
    // (checked on the corners, which bound affine forms).
    for (const LoopNest &Nest : App.Program.nests()) {
      const IterationSpace &S = Nest.space();
      for (const AffineRef &Ref : Nest.refs()) {
        IntVector Lo(S.depth()), Hi(S.depth());
        for (unsigned D = 0; D < S.depth(); ++D) {
          Lo[D] = S.lower(D);
          Hi[D] = S.upper(D) - 1;
        }
        // Evaluate on all corners of the iteration box.
        for (unsigned Mask = 0; Mask < (1u << S.depth()); ++Mask) {
          IntVector Corner(S.depth());
          for (unsigned D = 0; D < S.depth(); ++D)
            Corner[D] = (Mask >> D) & 1 ? Hi[D] : Lo[D];
          IntVector Data = oracle::evaluate(Ref, Corner);
          EXPECT_TRUE(App.Program.array(Ref.arrayId()).contains(Data))
              << Name << "/" << Nest.name() << " ref to array "
              << App.Program.array(Ref.arrayId()).Name;
        }
      }
    }
  }
}

TEST(Workloads, IndexArraysHaveValidContents) {
  for (const std::string &Name : appNames()) {
    AppModel App = buildApp(Name, 0.25);
    for (const LoopNest &Nest : App.Program.nests()) {
      for (const IndexedRef &Ref : Nest.indexedRefs()) {
        const IndexValues *Values =
            App.Program.indexArrayValues(Ref.IndexArray);
        ASSERT_NE(Values, nullptr) << Name;
        EXPECT_EQ(Values->size(),
                  App.Program.array(Ref.IndexArray).numElements())
            << Name;
        std::int64_t Extent = App.Program.array(Ref.DataArray).Dims[0];
        for (std::uint64_t N = 0; N < Values->size(); ++N) {
          std::int64_t V = Values->at(N);
          ASSERT_GE(V, 0) << Name;
          ASSERT_LT(V, Extent) << Name;
        }
      }
    }
  }
}

TEST(Workloads, DemandOutliersAreTheMemoryBoundApps) {
  double MaxOther = 0.0;
  double Fma3d = 0.0, Minighost = 0.0;
  for (const std::string &Name : appNames()) {
    AppModel App = buildApp(Name, 0.25);
    if (Name == "fma3d")
      Fma3d = App.MemDemandPerCore;
    else if (Name == "minighost")
      Minighost = App.MemDemandPerCore;
    else
      MaxOther = std::max(MaxOther, App.MemDemandPerCore);
  }
  EXPECT_GT(Fma3d, MaxOther);
  EXPECT_GT(Minighost, MaxOther);
}

TEST(Workloads, ScaleShrinksArrays) {
  AppModel Big = buildApp("swim", 1.0);
  AppModel Small = buildApp("swim", 0.25);
  std::uint64_t BigElems = 0, SmallElems = 0;
  for (ArrayId Id = 0; Id < Big.Program.numArrays(); ++Id)
    BigElems += Big.Program.array(Id).numElements();
  for (ArrayId Id = 0; Id < Small.Program.numArrays(); ++Id)
    SmallElems += Small.Program.array(Id).numElements();
  EXPECT_LT(SmallElems, BigElems);
}

TEST(Workloads, UnknownNameAborts) {
  EXPECT_DEATH(buildApp("quake3"), "unknown application");
}

TEST(Workloads, MixesReferenceRealApps) {
  std::set<std::string> Known(appNames().begin(), appNames().end());
  ASSERT_FALSE(multiprogramMixes().empty());
  for (const std::vector<std::string> &Mix : multiprogramMixes()) {
    EXPECT_GE(Mix.size(), 2u);
    EXPECT_EQ(64 % Mix.size(), 0u) << "mix must divide the 64-core machine";
    for (const std::string &Name : Mix)
      EXPECT_EQ(Known.count(Name), 1u) << Name;
  }
}

TEST(Workloads, HelperGenerators) {
  IndexValues Near = IndexValues::nearby(1000, 500, 10, 42);
  ASSERT_EQ(Near.size(), 1000u);
  for (std::uint64_t S = 0; S < Near.size(); ++S) {
    EXPECT_GE(Near.at(S), 0);
    EXPECT_LT(Near.at(S), 500);
    std::int64_t Ramp = static_cast<std::int64_t>(S * 500 / 1000);
    EXPECT_LE(std::llabs(Near.at(S) - Ramp), 10 + 1);
  }
  IndexValues Rand = IndexValues::random(1000, 500, 42);
  ASSERT_EQ(Rand.size(), 1000u);
  for (std::uint64_t S = 0; S < Rand.size(); ++S) {
    EXPECT_GE(Rand.at(S), 0);
    EXPECT_LT(Rand.at(S), 500);
  }
}
