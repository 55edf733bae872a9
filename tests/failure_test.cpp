// Input-validation and error-path coverage: every malformed input must be
// rejected with CheckError at the API boundary, never silently mangled.
#include <gtest/gtest.h>

#include "algo/assignments.hpp"
#include "algo/solvers.hpp"
#include "core/universe.hpp"
#include "framework/schedule.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

TreeProblem validTreeProblem() {
  TreeProblem p;
  p.numVertices = 4;
  p.networks.push_back(makePathTree(0, 4));
  Demand d;
  d.id = 0;
  d.u = 0;
  d.v = 3;
  d.profit = 1.0;
  p.demands = {d};
  p.access = {{0}};
  return p;
}

TEST(ProblemValidation, AcceptsValid) {
  EXPECT_NO_THROW(validTreeProblem().validate());
}

TEST(ProblemValidation, RejectsEqualEndpoints) {
  TreeProblem p = validTreeProblem();
  p.demands[0].v = p.demands[0].u;
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(ProblemValidation, RejectsOutOfRangeEndpoint) {
  TreeProblem p = validTreeProblem();
  p.demands[0].v = 99;
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(ProblemValidation, RejectsNonPositiveProfit) {
  TreeProblem p = validTreeProblem();
  p.demands[0].profit = 0.0;
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(ProblemValidation, RejectsHeightAboveOne) {
  TreeProblem p = validTreeProblem();
  p.demands[0].height = 1.5;
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(ProblemValidation, RejectsZeroHeight) {
  TreeProblem p = validTreeProblem();
  p.demands[0].height = 0.0;
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(ProblemValidation, RejectsEmptyAccessList) {
  TreeProblem p = validTreeProblem();
  p.access[0].clear();
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(ProblemValidation, RejectsUnsortedAccessList) {
  TreeProblem p = validTreeProblem();
  p.networks.push_back(makeStarTree(1, 4));
  p.access[0] = {1, 0};
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(ProblemValidation, RejectsDuplicateAccessEntries) {
  TreeProblem p = validTreeProblem();
  p.access[0] = {0, 0};
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(ProblemValidation, RejectsUnknownNetworkInAccess) {
  TreeProblem p = validTreeProblem();
  p.access[0] = {5};
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(ProblemValidation, RejectsNonPositionalDemandIds) {
  TreeProblem p = validTreeProblem();
  p.demands[0].id = 7;
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(ProblemValidation, RejectsMismatchedNetworkSize) {
  TreeProblem p = validTreeProblem();
  p.networks.push_back(makePathTree(1, 3));  // wrong vertex count
  EXPECT_THROW(p.validate(), CheckError);
}

LineProblem validLineProblem() {
  LineProblem p;
  p.numSlots = 8;
  p.numResources = 1;
  p.demands = {makeIntervalDemand(0, 1, 3, 2.0)};
  p.access = {{0}};
  return p;
}

TEST(LineValidation, AcceptsValid) {
  EXPECT_NO_THROW(validLineProblem().validate());
}

TEST(LineValidation, RejectsDeadlineBeforeRelease) {
  LineProblem p = validLineProblem();
  p.demands[0].deadline = 0;
  p.demands[0].release = 3;
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(LineValidation, RejectsProcessingBeyondWindow) {
  LineProblem p = validLineProblem();
  p.demands[0].processing = 10;
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(LineValidation, RejectsWindowOutsideTimeline) {
  LineProblem p = validLineProblem();
  p.demands[0].deadline = 8;  // slots are 0..7
  EXPECT_THROW(p.validate(), CheckError);
}

// ---- Assignment checkers must detect every violation class ----

TEST(AssignmentCheck, DetectsInaccessibleNetwork) {
  TreeProblem p = validTreeProblem();
  p.networks.push_back(makeStarTree(1, 4));
  p.validate();
  const std::vector<TreeAssignment> bad{{0, 1}};  // demand 0 cannot use net 1
  EXPECT_NE(checkAssignments(p, bad), "");
}

TEST(AssignmentCheck, DetectsDuplicateAssignment) {
  TreeProblem p = validTreeProblem();
  const std::vector<TreeAssignment> bad{{0, 0}, {0, 0}};
  EXPECT_NE(checkAssignments(p, bad), "");
}

TEST(AssignmentCheck, DetectsUnknownDemand) {
  TreeProblem p = validTreeProblem();
  const std::vector<TreeAssignment> bad{{42, 0}};
  EXPECT_NE(checkAssignments(p, bad), "");
}

TEST(AssignmentCheck, LineDetectsOutsideWindow) {
  LineProblem p = validLineProblem();
  const std::vector<LineAssignment> bad{{0, 0, 5}};  // window is [1,3]
  EXPECT_NE(checkAssignments(p, bad), "");
}

TEST(AssignmentCheck, LineDetectsOverCapacity) {
  LineProblem p = validLineProblem();
  p.demands.push_back(makeIntervalDemand(1, 1, 3, 2.0));
  p.access.push_back({0});
  const std::vector<LineAssignment> bad{{0, 0, 1}, {1, 0, 1}};
  EXPECT_NE(checkAssignments(p, bad), "");
}

// ---- Config validation ----

TEST(ConfigValidation, StagePlanRejectsBadEpsilon) {
  EXPECT_THROW(
      makeStagePlan(SchedulePolicy::Staged, RaiseRule::Unit, 0.0, 6, 1.0),
      CheckError);
  EXPECT_THROW(
      makeStagePlan(SchedulePolicy::Staged, RaiseRule::Unit, 1.0, 6, 1.0),
      CheckError);
}

TEST(ConfigValidation, StagePlanRejectsBadHminForNarrow) {
  EXPECT_THROW(
      makeStagePlan(SchedulePolicy::Staged, RaiseRule::Narrow, 0.1, 6, 0.9),
      CheckError);
  EXPECT_THROW(
      makeStagePlan(SchedulePolicy::Staged, RaiseRule::Narrow, 0.1, 6, 0.0),
      CheckError);
}

TEST(ConfigValidation, UniverseGuardsIndexing) {
  const TreeProblem p = validTreeProblem();
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(p);
  EXPECT_THROW(u.instance(99), CheckError);
  EXPECT_THROW(u.instancesOfDemand(5), CheckError);
  EXPECT_THROW(u.instancesOnEdge(99), CheckError);
  EXPECT_THROW(u.conflictsOf(0), CheckError);  // conflicts not built yet
  EXPECT_THROW(u.lineSlots(), CheckError);     // tree universe
}

TEST(ConfigValidation, SolversValidateInput) {
  TreeProblem p = validTreeProblem();
  p.demands[0].profit = -1.0;
  EXPECT_THROW(solveUnit(p), CheckError);
  LineProblem lp = validLineProblem();
  lp.demands[0].processing = 0;
  EXPECT_THROW(solveUnit(lp), CheckError);
}

}  // namespace
}  // namespace treesched
