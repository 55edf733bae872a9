// Self-test of the benchmark's own machinery: the span aggregator's
// self-time arithmetic and allocation behaviour, the shadow-universe
// replay's fidelity to the live solver, the determinism of the
// generated inputs, and the metric catalogue against BENCHMARK.json.
//
// Build and run: cmake --build <dir> --target perfbench_test, then
// ctest --test-dir <dir> (see perfbench/README.md).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "metrics.hpp"
#include "net/live_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/incremental.hpp"
#include "span_profile.hpp"
#include "workloads.hpp"

// ---- Process-wide allocation counter ----------------------------------

namespace {
std::atomic<std::int64_t> gHeapAllocs{0};
}  // namespace

void* operator new(std::size_t size) {
  gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size > 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace treesched;
using perfbench::SpanProfile;

int gFailures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    ++gFailures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

TraceEvent span(const char* name, std::int32_t tid, std::int64_t begin,
                std::int64_t end) {
  TraceEvent e;
  e.name = name;
  e.ph = 'X';
  e.tid = tid;
  e.tsMicros = begin;
  e.durMicros = end - begin;
  return e;
}

// Spans arrive in close order; self time subtracts exactly the direct
// children, and the self times of a tree sum to its root.
void testSelfTimeArithmetic() {
  SpanProfile profile;
  // root [0,100] > a [10,40] > b [15,25], c [30,35]; d [50,90] > e [50,60]
  for (const TraceEvent& e :
       {span("b", 0, 15, 25), span("c", 0, 30, 35), span("a", 0, 10, 40),
        span("e", 0, 50, 60), span("d", 0, 50, 90),
        span("root", 0, 0, 100)}) {
    profile.event(e);
  }
  TraceEvent instant;
  instant.ph = 'i';
  profile.event(instant);

  expect(profile.total("root").selfMicros == 100 - 30 - 40, "root self");
  expect(profile.total("a").selfMicros == 30 - 10 - 5, "a self");
  expect(profile.total("d").selfMicros == 40 - 10, "d self");
  expect(profile.total("b").selfMicros == 10, "leaf self is its duration");
  std::int64_t selfSum = 0;
  for (const char* name : {"root", "a", "b", "c", "d", "e"}) {
    const SpanProfile::Totals t = profile.total(name);
    expect(t.count == 1, std::string("one close of ") + name);
    expect(t.selfMicros >= 0 && t.selfMicros <= t.totalMicros,
           std::string("0 <= self <= total for ") + name);
    selfSum += t.selfMicros;
  }
  expect(selfSum == profile.total("root").totalMicros,
         "self times sum to the root");
  expect(profile.instants() == 1, "instants are counted, not aggregated");

  // Another tid is its own tree: a span there never claims tid-0 time.
  profile.event(span("shard", 1, 20, 30));
  profile.event(span("root", 0, 100, 200));
  expect(profile.at("root", 0).selfMicros == 30 + 100,
         "other tids never count as children");
  expect(profile.at("shard", 1).totalMicros == 10, "per-tid totals");
  expect(profile.at("shard", 0).count == 0, "tid separation");

  // Child time is clamped to the parent's duration.
  SpanProfile clamped;
  clamped.event(span("child", 0, 5, 5));
  clamped.event(span("child", 0, 5, 20));
  clamped.event(span("parent", 0, 5, 10));
  expect(clamped.total("parent").selfMicros == 0, "self never negative");

  // Collapsing a full stack keeps every span inside a later parent.
  SpanProfile deep;
  const auto n = static_cast<std::int64_t>(SpanProfile::kStackCapacity) * 3;
  for (std::int64_t k = 0; k < n; ++k) {
    deep.event(span("leaf", 0, 10 + 2 * k, 11 + 2 * k));
  }
  deep.event(span("outer", 0, 0, 20 + 2 * n));
  expect(deep.total("outer").selfMicros == 20 + 2 * n - n,
         "collapsed children still counted");
}

/// Forwards to a SpanProfile and counts heap allocations made inside its
/// event() calls only.
class AllocationProbe final : public TraceSink {
 public:
  explicit AllocationProbe(SpanProfile& profile) : profile_(profile) {}
  void event(const TraceEvent& e) override {
    const std::int64_t before = gHeapAllocs.load();
    profile_.event(e);
    allocations += gHeapAllocs.load() - before;
    ++events;
  }
  std::int64_t allocations = 0;
  std::int64_t events = 0;

 private:
  SpanProfile& profile_;
};

// A real traced churn run: after the first epoch the aggregator makes no
// allocation, the span tree of every epoch sums to online_epoch, and a
// shadow universe fed the same batches tracks the solver's live set.
void testTracedChurnRun() {
  perfbench::SparseChurnSize size;
  size.poolDemands = 4'000;
  size.churnIds = 400;
  size.horizonEpochs = 40;
  const perfbench::ChurnInputs inputs =
      perfbench::makeSparseChurnInputs(5, size);
  DynamicUniverse universe = perfbench::makeChurnUniverse(inputs);
  perfbench::ShadowUniverseReplay shadow(perfbench::makeChurnUniverse(inputs));
  const std::unique_ptr<Transport> transport =
      makeLiveTransport(inputs.numDemands(), inputs.access(), {});

  SpanProfile profile;
  AllocationProbe probe(profile);
  Tracer tracer(&probe);
  MetricsRegistry registry;
  OnlineSolverConfig config;
  config.tracer = &tracer;
  config.metrics = &registry;
  IncrementalSolver solver(universe, config, *transport);

  std::int64_t allocationsAfterFirst = 0;
  std::int64_t arrivals = 0;
  std::int64_t departures = 0;
  for (std::size_t k = 0; k < inputs.batches.size(); ++k) {
    const EpochBatch& batch = inputs.batches[k];
    const std::int64_t before = probe.allocations;
    solver.applyEpoch(batch.arrivals, batch.departures);
    if (k > 0) allocationsAfterFirst += probe.allocations - before;
    shadow.apply(batch);
    arrivals += static_cast<std::int64_t>(batch.arrivals.size());
    departures += static_cast<std::int64_t>(batch.departures.size());
    bool same = shadow.universe().numLiveDemands() ==
                    universe.numLiveDemands() &&
                shadow.universe().numLiveInstances() ==
                    universe.numLiveInstances();
    for (DemandId d = 0; d < universe.numDemands(); ++d) {
      same = same && shadow.universe().isLive(d) == universe.isLive(d);
    }
    expect(same, "shadow live set after epoch " + std::to_string(k));
  }
  expect(probe.events > 0, "the traced run emitted events");
  expect(allocationsAfterFirst == 0,
         "no aggregator allocation after the first epoch (saw " +
             std::to_string(allocationsAfterFirst) + ")");
  expect(shadow.adds() == arrivals && shadow.retires() == departures,
         "shadow replays every arrival and departure");

  const SpanProfile::Totals root = profile.at("online_epoch", 0);
  std::int64_t selfSum = 0;
  for (const char* name : {"online_epoch", "mutate", "phase1", "epoch",
                           "stage", "step", "mis", "phase2", "admit"}) {
    const SpanProfile::Totals t = profile.at(name, 0);
    expect(t.selfMicros <= t.totalMicros,
           std::string("child time within parent for ") + name);
    selfSum += t.selfMicros;
  }
  expect(root.count == static_cast<std::int64_t>(inputs.batches.size()),
         "one online_epoch span per epoch");
  expect(selfSum == root.totalMicros,
         "tid-0 self times sum to the online_epoch total");
}

// Same seed -> same pool, trace and batches; the sparse trace touches
// only the churned id subset; another seed gives another trace.
void testInputDeterminism() {
  perfbench::SparseChurnSize sparse;
  sparse.poolDemands = 3'000;
  sparse.churnIds = 300;
  sparse.horizonEpochs = 30;
  const auto a = perfbench::makeSparseChurnInputs(11, sparse);
  const auto b = perfbench::makeSparseChurnInputs(11, sparse);
  const auto c = perfbench::makeSparseChurnInputs(12, sparse);
  expect(serializeLineProblem(*a.line) == serializeLineProblem(*b.line),
         "same seed, same sparse pool");
  const auto sameTrace = [](const ChurnTrace& x, const ChurnTrace& y) {
    if (x.events.size() != y.events.size()) return false;
    for (std::size_t i = 0; i < x.events.size(); ++i) {
      if (x.events[i].time != y.events[i].time ||
          x.events[i].demand != y.events[i].demand ||
          x.events[i].arrival != y.events[i].arrival) {
        return false;
      }
    }
    return true;
  };
  const auto sameBatches = [](const std::vector<EpochBatch>& x,
                              const std::vector<EpochBatch>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].arrivals != y[i].arrivals ||
          x[i].departures != y[i].departures) {
        return false;
      }
    }
    return true;
  };
  expect(sameTrace(a.trace, b.trace), "same seed, same sparse trace");
  expect(sameBatches(a.batches, b.batches), "same seed, same batches");
  expect(!sameTrace(a.trace, c.trace), "another seed, another trace");
  expect(a.line->numDemands() == sparse.poolDemands, "sparse pool size");
  std::set<DemandId> touched;
  for (const ChurnEvent& e : a.trace.events) touched.insert(e.demand);
  expect(!touched.empty() && *touched.rbegin() < sparse.churnIds,
         "sparse trace stays below the churned id bound");
  expect(static_cast<std::int32_t>(touched.size()) == sparse.churnIds,
         "every churned id arrives");
  expect(a.batches.size() >= static_cast<std::size_t>(sparse.horizonEpochs),
         "the horizon spans the requested epochs");

  perfbench::HotspotSize hotspot;
  hotspot.poolDemands = 400;
  const auto h1 = perfbench::makeHotspotInputs(3, hotspot);
  const auto h2 = perfbench::makeHotspotInputs(3, hotspot);
  const auto h3 = perfbench::makeHotspotInputs(4, hotspot);
  expect(serializeTreeProblem(*h1.tree) == serializeTreeProblem(*h2.tree),
         "same seed, same hotspot pool");
  expect(sameTrace(h1.trace, h2.trace) && sameBatches(h1.batches, h2.batches),
         "same seed, same hotspot trace and batches");
  expect(!sameTrace(h1.trace, h3.trace), "another seed, another hotspot trace");

  perfbench::OneshotSize oneshot;
  oneshot.demands = 1'000;
  expect(serializeTreeProblem(perfbench::makeOneshotProblem(8, oneshot)) ==
             serializeTreeProblem(perfbench::makeOneshotProblem(8, oneshot)),
         "same seed, same one-shot problem");
}

// Every metric the benchmark prints is declared in BENCHMARK.json with
// the same unit, in the matching section, and nothing else is declared.
void testCatalogueMatchesManifest() {
  std::ifstream in(PERFBENCH_MANIFEST);
  std::stringstream text;
  text << in.rdbuf();
  const std::string manifest = text.str();
  expect(!manifest.empty(), "BENCHMARK.json readable");
  const auto sectionOf = [&](const char* key) {
    const std::size_t begin = manifest.find(std::string("\"") + key + "\"");
    const std::size_t end = manifest.find(']', begin);
    return begin == std::string::npos ? std::string()
                                      : manifest.substr(begin, end - begin);
  };
  const auto countNames = [](const std::string& section) {
    std::size_t count = 0;
    for (std::size_t pos = section.find("\"name\""); pos != std::string::npos;
         pos = section.find("\"name\"", pos + 1)) {
      ++count;
    }
    return count;
  };
  const auto check = [&](const char* key,
                         std::span<const perfbench::MetricSpec> specs) {
    const std::string section = sectionOf(key);
    for (const perfbench::MetricSpec& spec : specs) {
      const std::string entry = std::string("\"name\": \"") + spec.name +
                                "\", \"unit\": \"" + spec.unit + "\"";
      expect(section.find(entry) != std::string::npos,
             std::string(key) + " declares " + spec.name + " in " + spec.unit);
    }
    expect(countNames(section) == specs.size(),
           std::string(key) + " declares exactly the printed metrics");
  };
  check("end_to_end", perfbench::endToEndMetrics());
  check("per_layer", perfbench::perLayerMetrics());
}

}  // namespace

int main() {
  testSelfTimeArithmetic();
  testTracedChurnRun();
  testInputDeterminism();
  testCatalogueMatchesManifest();
  if (gFailures == 0) {
    std::cout << "perfbench_test: all checks passed\n";
    return 0;
  }
  std::cerr << "perfbench_test: " << gFailures << " check(s) failed\n";
  return 1;
}
