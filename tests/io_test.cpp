#include <gtest/gtest.h>

#include <cstdio>

#include "core/io.hpp"
#include "gen/scenario.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

TEST(TreeIo, RoundTripPreservesEverything) {
  TreeScenarioConfig cfg;
  cfg.seed = 5;
  cfg.numVertices = 24;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = 20;
  cfg.demands.heights = HeightMode::Mixed;
  cfg.demands.hmin = 0.2;
  cfg.demands.accessProbability = 0.6;
  const TreeProblem original = makeTreeScenario(cfg);

  const TreeProblem loaded = parseTreeProblem(serializeTreeProblem(original));
  EXPECT_EQ(loaded.numVertices, original.numVertices);
  ASSERT_EQ(loaded.numNetworks(), original.numNetworks());
  for (TreeId t = 0; t < original.numNetworks(); ++t) {
    for (EdgeId e = 0; e < original.networks[static_cast<std::size_t>(t)]
                               .numEdges();
         ++e) {
      EXPECT_EQ(loaded.networks[static_cast<std::size_t>(t)].edge(e),
                original.networks[static_cast<std::size_t>(t)].edge(e));
    }
  }
  ASSERT_EQ(loaded.numDemands(), original.numDemands());
  for (DemandId d = 0; d < original.numDemands(); ++d) {
    const auto& a = original.demands[static_cast<std::size_t>(d)];
    const auto& b = loaded.demands[static_cast<std::size_t>(d)];
    EXPECT_EQ(a.u, b.u);
    EXPECT_EQ(a.v, b.v);
    EXPECT_DOUBLE_EQ(a.profit, b.profit);
    EXPECT_DOUBLE_EQ(a.height, b.height);
    EXPECT_EQ(original.access[static_cast<std::size_t>(d)],
              loaded.access[static_cast<std::size_t>(d)]);
  }
}

TEST(TreeIo, DoublePrecisionExact) {
  TreeProblem problem;
  problem.numVertices = 2;
  problem.networks.push_back(makePathTree(0, 2));
  Demand d;
  d.id = 0;
  d.u = 0;
  d.v = 1;
  d.profit = 0.1 + 0.2;  // not representable exactly; must survive
  d.height = 1.0 / 3.0;
  problem.demands = {d};
  problem.access = {{0}};
  const TreeProblem loaded = parseTreeProblem(serializeTreeProblem(problem));
  EXPECT_EQ(loaded.demands[0].profit, problem.demands[0].profit);
  EXPECT_EQ(loaded.demands[0].height, problem.demands[0].height);
}

TEST(LineIo, RoundTripPreservesEverything) {
  LineScenarioConfig cfg;
  cfg.seed = 7;
  cfg.numSlots = 30;
  cfg.numResources = 2;
  cfg.demands.numDemands = 15;
  cfg.demands.windowSlack = 1.0;
  cfg.demands.heights = HeightMode::Narrow;
  cfg.demands.hmin = 0.2;
  const LineProblem original = makeLineScenario(cfg);

  const LineProblem loaded = parseLineProblem(serializeLineProblem(original));
  EXPECT_EQ(loaded.numSlots, original.numSlots);
  EXPECT_EQ(loaded.numResources, original.numResources);
  ASSERT_EQ(loaded.numDemands(), original.numDemands());
  for (DemandId d = 0; d < original.numDemands(); ++d) {
    const auto& a = original.demands[static_cast<std::size_t>(d)];
    const auto& b = loaded.demands[static_cast<std::size_t>(d)];
    EXPECT_EQ(a.release, b.release);
    EXPECT_EQ(a.deadline, b.deadline);
    EXPECT_EQ(a.processing, b.processing);
    EXPECT_DOUBLE_EQ(a.profit, b.profit);
    EXPECT_DOUBLE_EQ(a.height, b.height);
  }
}

TEST(Io, RejectsWrongMagic) {
  EXPECT_THROW(parseTreeProblem("bogus v1\n"), CheckError);
  EXPECT_THROW(parseLineProblem("treesched-tree v1\n"), CheckError);
}

TEST(Io, RejectsTruncatedInput) {
  TreeProblem problem;
  problem.numVertices = 3;
  problem.networks.push_back(makePathTree(0, 3));
  Demand d;
  d.id = 0;
  d.u = 0;
  d.v = 2;
  problem.demands = {d};
  problem.access = {{0}};
  const std::string full = serializeTreeProblem(problem);
  EXPECT_THROW(parseTreeProblem(full.substr(0, full.size() / 2)), CheckError);
}

TEST(Io, RejectsSemanticallyInvalid) {
  // Parsable but invalid problem (endpoint out of range) must be rejected
  // by the embedded validation.
  const std::string text =
      "treesched-tree v1\nvertices 3\nnetworks 1\nnetwork\n0 1\n1 2\n"
      "demands 1\n0 9 1.0 1.0 1 0\n";
  EXPECT_THROW(parseTreeProblem(text), CheckError);
}

// Malformed counts must end in CheckError — never in std::length_error
// or std::bad_alloc from a container sized by an unchecked count.
TEST(Io, RejectsNegativeVertexCount) {
  EXPECT_THROW(parseTreeProblem("treesched-tree v1\nvertices -4\nnetworks 1\n"
                                "network\n0 1\ndemands 0\n"),
               CheckError);
}

TEST(Io, RejectsHugeVertexCount) {
  EXPECT_THROW(
      parseTreeProblem("treesched-tree v1\nvertices 2000000000\nnetworks 1\n"
                       "network\n0 1\n1 2\ndemands 0\n"),
      CheckError);
}

TEST(Io, RejectsNegativeAccessCount) {
  EXPECT_THROW(
      parseTreeProblem("treesched-tree v1\nvertices 3\nnetworks 1\nnetwork\n"
                       "0 1\n1 2\ndemands 1\n0 2 1.0 1.0 -3 0\n"),
      CheckError);
}

TEST(Io, RejectsHugeAccessCount) {
  EXPECT_THROW(parseLineProblem("treesched-line v1\nslots 4\nresources 1\n"
                                "demands 1\n0 3 1 1.0 1.0 2000000000 0\n"),
               CheckError);
}

TEST(Io, FileRoundTrip) {
  TreeScenarioConfig cfg;
  cfg.seed = 11;
  cfg.numVertices = 10;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 6;
  const TreeProblem original = makeTreeScenario(cfg);
  const std::string path = "/tmp/treesched_io_test.txt";
  saveTreeProblem(path, original);
  const TreeProblem loaded = loadTreeProblem(path);
  EXPECT_EQ(loaded.numDemands(), original.numDemands());
  std::remove(path.c_str());
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(loadTreeProblem("/nonexistent/path/problem.txt"), CheckError);
}

}  // namespace
}  // namespace treesched
