// The telemetry plane (src/obs/) must be read-only: attaching a live
// trace sink and a metrics registry changes nothing about the schedule,
// the NullSink path adds zero hot-loop heap allocations, histogram
// percentiles agree with a sorted-sample oracle, the registry's
// counters cross-check against the run-level result fields, and a
// registry snapshot holds no wall clock (identical runs, identical JSON),
// and the online epoch's set-up and certify spans nest in their epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "gen/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/churn_engine.hpp"

// ---- Process-wide allocation counter (bench_parallel discipline) ------
// Each tests/*.cpp is its own binary, so replacing the global operator
// new here observes every heap allocation of this test process only.

namespace {
std::atomic<std::int64_t> gHeapAllocs{0};
}  // namespace

void* operator new(std::size_t size) {
  gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow variants must route through the same counter/allocator:
// libstdc++'s std::stable_sort temporary buffer allocates via
// nothrow new but frees via plain delete — leaving these to the
// default operator new trips ASan's alloc-dealloc-mismatch and lets
// allocations escape the count.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size > 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace treesched {
namespace {

TreeProblem testTree(std::uint64_t seed) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = 28;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = 26;
  cfg.demands.accessProbability = 0.7;
  return makeTreeScenario(cfg);
}

LineProblem testLine(std::uint64_t seed) {
  LineScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numSlots = 64;
  cfg.numResources = 3;
  cfg.demands.numDemands = 30;
  return makeLineScenario(cfg);
}

/// The bit-identity footprint of a run.
struct Fingerprint {
  std::vector<InstanceId> instances;
  double profit;
  double dualObjective;
  std::int64_t rounds;
  std::int64_t messages;
  std::int64_t raises;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprintOf(const DistributedResult& r) {
  return {r.solution.instances, r.profit,           r.dualObjective,
          r.network.rounds,     r.network.messages, r.raises};
}

TEST(Telemetry, LiveSinkBitIdentityAcrossThreads) {
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    const TreeProblem tree = testTree(seed);
    const LineProblem line = testLine(seed + 100);
    for (const std::int32_t threads : {1, 8}) {
      DistributedOptions plain;
      plain.seed = seed + 1;
      plain.threads = threads;
      const Fingerprint treePlain =
          fingerprintOf(runDistributedUnitTree(tree, plain));
      const Fingerprint linePlain =
          fingerprintOf(runDistributedUnitLine(line, plain));

      const std::string path = "telemetry_bitid_" + std::to_string(seed) +
                               "_" + std::to_string(threads) + ".json";
      ChromeTraceSink sink(path);
      Tracer tracer(&sink);
      MetricsRegistry metrics;
      DistributedOptions traced = plain;
      traced.tracer = &tracer;
      traced.metrics = &metrics;
      const Fingerprint treeTraced =
          fingerprintOf(runDistributedUnitTree(tree, traced));
      const Fingerprint lineTraced =
          fingerprintOf(runDistributedUnitLine(line, traced));
      sink.close();

      EXPECT_EQ(treeTraced, treePlain)
          << "tree seed " << seed << " threads " << threads;
      EXPECT_EQ(lineTraced, linePlain)
          << "line seed " << seed << " threads " << threads;
      EXPECT_GT(sink.eventCount(), 0u) << "the sink actually recorded";
      std::remove(path.c_str());
    }
  }
}

TEST(Telemetry, RegistryCountersMatchRunResult) {
  const TreeProblem tree = testTree(21);
  MetricsRegistry metrics;
  DistributedOptions opt;
  opt.seed = 22;
  opt.metrics = &metrics;
  const DistributedResult result = runDistributedUnitTree(tree, opt);

  EXPECT_EQ(metrics.counter("protocol.active_steps").value(),
            result.activeSteps);
  EXPECT_EQ(metrics.counter("protocol.raises").value(), result.raises);
  EXPECT_EQ(metrics.counter("protocol.accepts").value() +
                metrics.counter("protocol.rejects").value(),
            result.raises)
      << "phase 2 pops every raise exactly once";
  EXPECT_EQ(metrics.counter("protocol.accepts").value(),
            static_cast<std::int64_t>(result.solution.instances.size()));
  EXPECT_EQ(metrics.counter("protocol.crash_events").value(), 0);
  EXPECT_EQ(metrics.counter("net.rounds").value(), result.network.rounds);
  EXPECT_EQ(metrics.counter("net.busy_rounds").value(),
            result.network.busyRounds);
  EXPECT_EQ(metrics.counter("net.messages").value(),
            result.network.messages);
  EXPECT_EQ(metrics.histogram("protocol.mis_size",
                              Histogram::exponentialBuckets(1, 2, 18))
                .count(),
            result.activeSteps);
}

/// A short sharded churn run on the hotspot pool (rebalancing on), the
/// shared workload of the churn-level registry gates below.
ChurnRunResult runHotspotChurn(std::int32_t threads,
                               MetricsRegistry& metrics) {
  const ChurnTreeScenario scenario = makeHotspotTree50k(41, 72);
  ArrivalConfig arrivals = scenario.arrivals;
  arrivals.horizon = 48.0;
  const ChurnTrace trace =
      generateChurnTrace(arrivals, scenario.pool.access);
  ChurnEngineConfig config;
  config.epochLength = 8.0;
  config.solver.seed = 42;
  config.solver.threads = threads;
  config.solver.metrics = &metrics;
  config.solver.rebalance.enabled = true;
  config.solver.rebalance.seed = 43;
  config.transport.kind = LiveTransportKind::Sharded;
  config.transport.async.shardProcessors = 5;
  DynamicUniverse universe = makeDynamicTreeUniverse(scenario.pool);
  return runChurnOverTrace(universe, trace, config);
}

TEST(Telemetry, EngineClaimsCounterMatchesRunResult) {
  // Every shard the engine's runner executes — the per-processor
  // context build included — reaches the registry's engine.claims.
  const TreeProblem tree = testTree(23);
  MetricsRegistry oneShot;
  DistributedOptions opt;
  opt.seed = 24;
  opt.threads = 8;
  opt.metrics = &oneShot;
  const DistributedResult result = runDistributedUnitTree(tree, opt);
  EXPECT_GT(result.engineClaims, 0);
  EXPECT_EQ(oneShot.counter("engine.claims").value(), result.engineClaims);

  MetricsRegistry churnMetrics;
  const ChurnRunResult churn = runHotspotChurn(8, churnMetrics);
  std::int64_t epochClaims = 0;
  for (const EpochOutcome& epoch : churn.epochs) {
    epochClaims += epoch.engineClaims;
  }
  EXPECT_GT(epochClaims, 0);
  EXPECT_EQ(churnMetrics.counter("engine.claims").value(), epochClaims);
}

/// Keeps every trace event in memory.
class CaptureSink final : public TraceSink {
 public:
  void event(const TraceEvent& e) override { events.push_back(e); }
  std::vector<TraceEvent> events;
};

TEST(Telemetry, EngineSetupAndCertifySpansNestInOnlineEpoch) {
  // The persistent engine's per-run reset (engine_setup) and the
  // solver's lambda scan + dual objective (certify) are attributed
  // inside their epoch, and tracing them changes no bit.
  const ChurnTreeScenario scenario = makeHotspotTree50k(41, 72);
  ArrivalConfig arrivals = scenario.arrivals;
  arrivals.horizon = 48.0;
  const ChurnTrace trace =
      generateChurnTrace(arrivals, scenario.pool.access);
  ChurnEngineConfig config;
  config.epochLength = 8.0;
  config.solver.seed = 42;
  DynamicUniverse plainUniverse = makeDynamicTreeUniverse(scenario.pool);
  const ChurnRunResult plain =
      runChurnOverTrace(plainUniverse, trace, config);

  CaptureSink sink;
  Tracer tracer(&sink);
  MetricsRegistry metrics;
  config.solver.tracer = &tracer;
  config.solver.metrics = &metrics;
  DynamicUniverse tracedUniverse = makeDynamicTreeUniverse(scenario.pool);
  const ChurnRunResult traced =
      runChurnOverTrace(tracedUniverse, trace, config);

  ASSERT_EQ(plain.epochs.size(), traced.epochs.size());
  for (std::size_t k = 0; k < plain.epochs.size(); ++k) {
    const EpochOutcome& a = plain.epochs[k];
    const EpochOutcome& b = traced.epochs[k];
    EXPECT_EQ(a.solution.instances, b.solution.instances) << "epoch " << k;
    EXPECT_EQ(a.profit, b.profit) << "epoch " << k;
    EXPECT_EQ(a.dualObjective, b.dualObjective) << "epoch " << k;
    EXPECT_EQ(a.lambdaMeasured, b.lambdaMeasured) << "epoch " << k;
    EXPECT_EQ(a.raises, b.raises) << "epoch " << k;
    EXPECT_EQ(a.rounds, b.rounds) << "epoch " << k;
    EXPECT_EQ(a.messages, b.messages) << "epoch " << k;
    EXPECT_EQ(a.localViewsConsistent, b.localViewsConsistent)
        << "epoch " << k;
  }

  std::vector<const TraceEvent*> epochs;
  for (const TraceEvent& e : sink.events) {
    if (std::string(e.name) == "online_epoch" && e.tid == 0) {
      epochs.push_back(&e);
    }
  }
  ASSERT_EQ(epochs.size(), traced.epochs.size());
  std::int32_t setups = 0;
  std::int32_t certifies = 0;
  for (const TraceEvent& e : sink.events) {
    const std::string name = e.name;
    if (name != "engine_setup" && name != "certify") continue;
    (name == "certify" ? certifies : setups) += 1;
    EXPECT_EQ(e.tid, 0) << name;
    const bool nested = std::any_of(
        epochs.begin(), epochs.end(), [&](const TraceEvent* epoch) {
          return epoch->tsMicros <= e.tsMicros &&
                 e.tsMicros + e.durMicros <=
                     epoch->tsMicros + epoch->durMicros;
        });
    EXPECT_TRUE(nested) << name << " at " << e.tsMicros;
  }
  EXPECT_GT(setups, 0);
  EXPECT_GT(certifies, 0);
}

TEST(Telemetry, RegistrySnapshotIsDeterministic) {
  // No wall clock lives in the registry, so two identical runs give the
  // same snapshot byte for byte. One thread: engine.steals depends on
  // thread timing.
  MetricsRegistry first;
  MetricsRegistry second;
  runHotspotChurn(1, first);
  runHotspotChurn(1, second);
  EXPECT_EQ(first.toJson(), second.toJson());
}

TEST(Telemetry, HistogramPercentilesMatchSortedOracle) {
  // Deterministic integer samples in [0, 96): unit buckets make the
  // nearest-rank percentile exact, so the oracle comparison is equality.
  std::vector<double> samples;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    samples.push_back(static_cast<double>(x % 96));
  }
  const std::vector<double> bounds = Histogram::unitBuckets(128);
  Histogram hist(bounds);
  for (const double s : samples) hist.record(s);

  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto oracle = [&sorted](double q) {
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(q * static_cast<double>(sorted.size()))));
    return sorted[static_cast<std::size_t>(rank - 1)];
  };
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(hist.percentile(q), oracle(q)) << "q = " << q;
  }
  EXPECT_EQ(hist.count(), static_cast<std::int64_t>(samples.size()));
  EXPECT_EQ(hist.min(), sorted.front());
  EXPECT_EQ(hist.max(), sorted.back());

  // Exponential buckets: the percentile is an upper-bound estimate —
  // never below the oracle sample, never above the next bucket bound
  // (clamped to the observed max).
  Histogram coarse(Histogram::exponentialBuckets(1, 2, 12));
  for (const double s : samples) coarse.record(s);
  for (const double q : {0.5, 0.9, 0.99}) {
    const double estimate = coarse.percentile(q);
    EXPECT_GE(estimate, oracle(q)) << "q = " << q;
    EXPECT_LE(estimate, std::max(2 * oracle(q), 1.0)) << "q = " << q;
    EXPECT_LE(estimate, coarse.max()) << "q = " << q;
  }
}

TEST(Telemetry, JsonAndDescribeListEveryInstrumentExactlyOnce) {
  // describe()/toJson() round-trip: every registered instrument appears
  // exactly once in both snapshots, including names that are strict
  // prefixes of other names (the per-reason reject counters hang off
  // "protocol.rejects", so prefix hygiene is load-bearing).
  MetricsRegistry metrics;
  metrics.counter("rt.alpha").add(3);
  metrics.counter("rt.alpha.child").add(1);
  metrics.counter("rt.beta");
  metrics.gauge("rt.level").set(2.5);
  metrics.gauge("rt.level.fine").set(-1.0);
  metrics.histogram("rt.latency", Histogram::unitBuckets(8)).record(3);
  metrics.histogram("rt.latency.coarse", Histogram::exponentialBuckets(1, 2, 4))
      .record(5);

  const auto occurrences = [](const std::string& text,
                              const std::string& needle) {
    std::int64_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };

  const std::string json = metrics.toJson();
  const std::string described = metrics.describe();
  for (const std::string name :
       {"rt.alpha", "rt.alpha.child", "rt.beta", "rt.level", "rt.level.fine",
        "rt.latency", "rt.latency.coarse"}) {
    EXPECT_EQ(occurrences(json, "\"" + name + "\""), 1) << name;
  }
  for (const std::string name :
       {"rt.alpha", "rt.alpha.child", "rt.beta", "rt.level", "rt.level.fine"}) {
    EXPECT_EQ(occurrences(described, "  " + name + " = "), 1) << name;
  }
  for (const std::string name : {"rt.latency", "rt.latency.coarse"}) {
    EXPECT_EQ(occurrences(described, "  " + name + ": count="), 1) << name;
  }
  // The histogram summary object carries its exact count.
  EXPECT_NE(json.find("\"rt.latency\": {\"count\": 1"), std::string::npos);
}

TEST(Telemetry, ExponentialBucketQuantilesMatchBucketMappedOracle) {
  // Non-unit buckets: the reported percentile must equal the nearest-
  // rank sample mapped to its bucket's inclusive upper bound (clamped
  // to the observed max) — the strongest statement a fixed-bucket
  // sketch can make, checked as exact equality rather than a band.
  const std::vector<double> bounds = Histogram::exponentialBuckets(1, 3, 9);
  Histogram hist(bounds);
  std::vector<double> samples;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    samples.push_back(static_cast<double>(x % 30000));
  }
  for (const double s : samples) hist.record(s);

  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto bucketMapped = [&](double q) {
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(q * static_cast<double>(sorted.size()))));
    const double s = sorted[static_cast<std::size_t>(rank - 1)];
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), s);
    return it == bounds.end() ? sorted.back() : std::min(*it, sorted.back());
  };
  for (const double q :
       {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(hist.percentile(q), bucketMapped(q)) << "q = " << q;
  }
  EXPECT_EQ(hist.count(), static_cast<std::int64_t>(samples.size()));
}

TEST(Telemetry, NullSinkPathAddsZeroAllocations) {
  const TreeProblem tree = testTree(31);
  DistributedOptions plain;
  plain.seed = 32;

  const auto measure = [&](const DistributedOptions& opt) {
    const std::int64_t before = gHeapAllocs.load(std::memory_order_relaxed);
    runDistributedUnitTree(tree, opt);
    return gHeapAllocs.load(std::memory_order_relaxed) - before;
  };

  // Warm both paths once: the first instrumented run pays the one-time
  // instrument resolution (registry map nodes), then the registry holds
  // stable references and re-resolution is a transparent lookup.
  NullTraceSink nullSink;
  Tracer tracer(&nullSink);
  MetricsRegistry metrics;
  DistributedOptions instrumented = plain;
  instrumented.tracer = &tracer;
  instrumented.metrics = &metrics;
  measure(plain);
  measure(instrumented);

  const std::int64_t base = measure(plain);
  const std::int64_t withTelemetry = measure(instrumented);
  EXPECT_EQ(withTelemetry, base)
      << "a disabled tracer plus a warmed registry must be exactly "
         "allocation-neutral";
}

TEST(Telemetry, NullSinkZeroAllocationsCoversRebalanceInstruments) {
  // Same gate as above, over the surface PR 8 added: a sharded churn run
  // with epoch-boundary rebalancing enabled exercises
  // net.shard_hosted_demands + net.shard_load_variance (synchronizer)
  // and engine.claims + engine.steals (parallel runner) every epoch.
  // After one warm instrumented run, the instrumented replay must be
  // exactly allocation-neutral against the plain replay.
  const ChurnTreeScenario scenario = makeHotspotTree50k(41, 72);
  ArrivalConfig arrivals = scenario.arrivals;
  arrivals.horizon = 48.0;
  const ChurnTrace trace =
      generateChurnTrace(arrivals, scenario.pool.access);

  ChurnEngineConfig base;
  base.epochLength = 8.0;
  base.solver.seed = 42;
  base.solver.epsilon = 0.35;
  base.solver.misRoundBudget = 4;
  base.solver.stepsPerStage = 2;
  base.solver.threads = 1;
  base.solver.rebalance.enabled = true;
  base.solver.rebalance.seed = 43;
  base.transport.kind = LiveTransportKind::Sharded;
  base.transport.async.shardProcessors = 5;

  const auto measure = [&](const ChurnEngineConfig& config) {
    // The universe build sits outside the measured window; it is
    // deterministic, so both paths would count it equally anyway.
    DynamicUniverse universe = makeDynamicTreeUniverse(scenario.pool);
    const std::int64_t before = gHeapAllocs.load(std::memory_order_relaxed);
    const ChurnRunResult run = runChurnOverTrace(universe, trace, config);
    const std::int64_t delta =
        gHeapAllocs.load(std::memory_order_relaxed) - before;
    // The gate is non-vacuous only if rebalancing actually ran.
    EXPECT_GT(run.totalDemandsMigrated, 0);
    return delta;
  };

  NullTraceSink nullSink;
  Tracer tracer(&nullSink);
  MetricsRegistry metrics;
  ChurnEngineConfig instrumented = base;
  instrumented.solver.tracer = &tracer;
  instrumented.solver.metrics = &metrics;
  measure(base);
  measure(instrumented);

  const std::int64_t plainAllocs = measure(base);
  const std::int64_t withTelemetry = measure(instrumented);
  EXPECT_EQ(withTelemetry, plainAllocs)
      << "the rebalance + work-stealing instruments must stay "
         "allocation-free on the warmed NullSink path";
  // The new instruments actually recorded.
  EXPECT_GT(metrics.histogram("net.shard_hosted_demands", {}).count(), 0);
  EXPECT_GT(metrics.counter("engine.claims").value(), 0);
}

TEST(Telemetry, DisabledTracerEmitsNothing) {
  NullTraceSink sink;
  Tracer tracer(&sink);
  EXPECT_FALSE(tracer.enabled());
  tracer.instant("x", "test", 0, {{"k", 1}});
  tracer.span("y", "test", 0, 0, {});
  // A null-sink tracer never forwards; a live sink sees every event.
  ChromeTraceSink live("telemetry_live_check.json");
  Tracer liveTracer(&live);
  EXPECT_TRUE(liveTracer.enabled());
  liveTracer.instant("x", "test", 0, {{"k", 1}});
  EXPECT_EQ(live.eventCount(), 1u);
  live.close();
  std::remove("telemetry_live_check.json");
}

}  // namespace
}  // namespace treesched
