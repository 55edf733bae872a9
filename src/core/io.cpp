#include "core/io.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace treesched {

namespace {

void expectToken(std::istream& is, const std::string& expected) {
  std::string token;
  is >> token;
  checkThat(static_cast<bool>(is) && token == expected,
            "expected token '" + expected + "', got '" + token + "'", __FILE__,
            __LINE__);
}

template <typename T>
T readValue(std::istream& is, const char* what) {
  T value{};
  is >> value;
  checkThat(static_cast<bool>(is), std::string("failed reading ") + what,
            __FILE__, __LINE__);
  return value;
}

/// Reads a count and checks it is at least `min`. Counts come from the
/// file, so no allocation trusts one: containers grow as the entries it
/// announces actually parse, and a huge count ends at end of input.
std::int32_t readCount(std::istream& is, const char* what, std::int32_t min) {
  const auto count = readValue<std::int32_t>(is, what);
  checkThat(count >= min, std::string(what) + " in range", __FILE__,
            __LINE__);
  return count;
}

}  // namespace

void writeTreeProblem(std::ostream& os, const TreeProblem& problem) {
  problem.validate();
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "treesched-tree v1\n";
  os << "vertices " << problem.numVertices << "\n";
  os << "networks " << problem.numNetworks() << "\n";
  for (const TreeNetwork& t : problem.networks) {
    os << "network\n";
    for (EdgeId e = 0; e < t.numEdges(); ++e) {
      const auto [u, v] = t.edge(e);
      os << u << ' ' << v << "\n";
    }
  }
  os << "demands " << problem.numDemands() << "\n";
  for (DemandId d = 0; d < problem.numDemands(); ++d) {
    const Demand& dem = problem.demands[static_cast<std::size_t>(d)];
    const auto& acc = problem.access[static_cast<std::size_t>(d)];
    os << dem.u << ' ' << dem.v << ' ' << dem.profit << ' ' << dem.height
       << ' ' << acc.size();
    for (const TreeId t : acc) {
      os << ' ' << t;
    }
    os << "\n";
  }
}

TreeProblem readTreeProblem(std::istream& is) {
  expectToken(is, "treesched-tree");
  expectToken(is, "v1");
  TreeProblem problem;
  expectToken(is, "vertices");
  problem.numVertices = readCount(is, "vertex count", 2);
  expectToken(is, "networks");
  const auto r = readCount(is, "network count", 1);
  for (TreeId t = 0; t < r; ++t) {
    expectToken(is, "network");
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (std::int32_t e = 0; e < problem.numVertices - 1; ++e) {
      const auto u = readValue<VertexId>(is, "edge endpoint");
      const auto v = readValue<VertexId>(is, "edge endpoint");
      edges.emplace_back(u, v);
    }
    problem.networks.emplace_back(t, problem.numVertices, std::move(edges));
  }
  expectToken(is, "demands");
  const auto m = readCount(is, "demand count", 0);
  for (DemandId d = 0; d < m; ++d) {
    Demand dem;
    dem.id = d;
    dem.u = readValue<VertexId>(is, "demand endpoint");
    dem.v = readValue<VertexId>(is, "demand endpoint");
    dem.profit = readValue<double>(is, "demand profit");
    dem.height = readValue<double>(is, "demand height");
    const auto k = readCount(is, "access count", 0);
    std::vector<TreeId> acc;
    for (std::int32_t i = 0; i < k; ++i) {
      acc.push_back(readValue<TreeId>(is, "access entry"));
    }
    problem.demands.push_back(dem);
    problem.access.push_back(std::move(acc));
  }
  problem.validate();
  return problem;
}

void writeLineProblem(std::ostream& os, const LineProblem& problem) {
  problem.validate();
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "treesched-line v1\n";
  os << "slots " << problem.numSlots << "\n";
  os << "resources " << problem.numResources << "\n";
  os << "demands " << problem.numDemands() << "\n";
  for (DemandId d = 0; d < problem.numDemands(); ++d) {
    const WindowDemand& dem = problem.demands[static_cast<std::size_t>(d)];
    const auto& acc = problem.access[static_cast<std::size_t>(d)];
    os << dem.release << ' ' << dem.deadline << ' ' << dem.processing << ' '
       << dem.profit << ' ' << dem.height << ' ' << acc.size();
    for (const ResourceId resource : acc) {
      os << ' ' << resource;
    }
    os << "\n";
  }
}

LineProblem readLineProblem(std::istream& is) {
  expectToken(is, "treesched-line");
  expectToken(is, "v1");
  LineProblem problem;
  expectToken(is, "slots");
  problem.numSlots = readCount(is, "slot count", 1);
  expectToken(is, "resources");
  problem.numResources = readCount(is, "resource count", 1);
  expectToken(is, "demands");
  const auto m = readCount(is, "demand count", 0);
  for (DemandId d = 0; d < m; ++d) {
    WindowDemand dem;
    dem.id = d;
    dem.release = readValue<std::int32_t>(is, "release");
    dem.deadline = readValue<std::int32_t>(is, "deadline");
    dem.processing = readValue<std::int32_t>(is, "processing");
    dem.profit = readValue<double>(is, "profit");
    dem.height = readValue<double>(is, "height");
    const auto k = readCount(is, "access count", 0);
    std::vector<ResourceId> acc;
    for (std::int32_t i = 0; i < k; ++i) {
      acc.push_back(readValue<ResourceId>(is, "access entry"));
    }
    problem.demands.push_back(dem);
    problem.access.push_back(std::move(acc));
  }
  problem.validate();
  return problem;
}

std::string serializeTreeProblem(const TreeProblem& problem) {
  std::ostringstream os;
  writeTreeProblem(os, problem);
  return os.str();
}

TreeProblem parseTreeProblem(const std::string& text) {
  std::istringstream is(text);
  return readTreeProblem(is);
}

std::string serializeLineProblem(const LineProblem& problem) {
  std::ostringstream os;
  writeLineProblem(os, problem);
  return os.str();
}

LineProblem parseLineProblem(const std::string& text) {
  std::istringstream is(text);
  return readLineProblem(is);
}

void saveTreeProblem(const std::string& path, const TreeProblem& problem) {
  std::ofstream os(path);
  checkThat(os.good(), "open for write: " + path, __FILE__, __LINE__);
  writeTreeProblem(os, problem);
  checkThat(os.good(), "write: " + path, __FILE__, __LINE__);
}

TreeProblem loadTreeProblem(const std::string& path) {
  std::ifstream is(path);
  checkThat(is.good(), "open for read: " + path, __FILE__, __LINE__);
  return readTreeProblem(is);
}

void saveLineProblem(const std::string& path, const LineProblem& problem) {
  std::ofstream os(path);
  checkThat(os.good(), "open for write: " + path, __FILE__, __LINE__);
  writeLineProblem(os, problem);
  checkThat(os.good(), "write: " + path, __FILE__, __LINE__);
}

LineProblem loadLineProblem(const std::string& path) {
  std::ifstream is(path);
  checkThat(is.good(), "open for read: " + path, __FILE__, __LINE__);
  return readLineProblem(is);
}

}  // namespace treesched
