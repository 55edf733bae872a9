// Bandwidth reservation on shared uplinks — the paper's line-network
// setting with windows (§1, §7) dressed as a small CDN story.
//
// A day is discretized into 15-minute timeslots. Three uplinks (resources)
// each carry 1 unit of bandwidth per slot. Customers book streaming
// sessions: "between release and deadline, I need `processing` consecutive
// slots at `height` of the link" — exactly a windowed demand. The solver
// picks who to admit, on which uplink, and when, with the (23+eps)
// guarantee of Theorem 7.2; the Panconesi–Sozio baseline runs on the same
// bookings for comparison.
#include <iostream>

#include "algo/solvers.hpp"
#include "gen/demand_gen.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace treesched;

int main() {
  constexpr std::int32_t kSlotsPerDay = 96;  // 24h / 15min
  constexpr std::int32_t kUplinks = 3;

  LineProblem bookings;
  bookings.numSlots = kSlotsPerDay;
  bookings.numResources = kUplinks;

  // A synthetic evening-heavy booking sheet: short clips during the day,
  // long prime-time streams with tight windows, a few bulk prefetches that
  // can run any time at low rate.
  Rng rng(7);
  auto book = [&](std::int32_t release, std::int32_t deadline,
                  std::int32_t slots, double rate, double value,
                  std::vector<ResourceId> uplinks) {
    WindowDemand d;
    d.id = static_cast<DemandId>(bookings.demands.size());
    d.release = release;
    d.deadline = deadline;
    d.processing = slots;
    d.height = rate;
    d.profit = value;
    bookings.demands.push_back(d);
    bookings.access.push_back(std::move(uplinks));
  };
  // Daytime clips: 1-2 slots, flexible windows, moderate rate.
  for (int i = 0; i < 30; ++i) {
    const auto start = static_cast<std::int32_t>(rng.nextInt(20, 60));
    const auto len = static_cast<std::int32_t>(rng.nextInt(1, 2));
    book(start, std::min(start + len + 6, kSlotsPerDay - 1), len,
         rng.nextDouble(0.2, 0.45), rng.nextDouble(1.0, 3.0),
         {static_cast<ResourceId>(rng.nextBounded(kUplinks))});
  }
  // Prime time: 4-8 slots, tight windows, high rate, high value.
  for (int i = 0; i < 18; ++i) {
    const auto len = static_cast<std::int32_t>(rng.nextInt(4, 8));
    const auto start = static_cast<std::int32_t>(rng.nextInt(68, 84 - len));
    book(start, start + len + 1, len, rng.nextDouble(0.55, 0.9),
         rng.nextDouble(6.0, 12.0), {0, 1, 2});
  }
  // Overnight bulk prefetch: long, low rate, very flexible.
  for (int i = 0; i < 8; ++i) {
    const auto len = static_cast<std::int32_t>(rng.nextInt(8, 12));
    book(0, kSlotsPerDay - 1, len, rng.nextDouble(0.1, 0.25),
         rng.nextDouble(2.0, 4.0), {0, 1, 2});
  }
  bookings.validate();

  SolverOptions options;
  options.epsilon = 0.1;
  options.seed = 99;
  const auto ours = solveArbitrary(bookings, options);
  SolverOptions baselineOptions = options;
  baselineOptions.schedule = SchedulePolicy::Threshold;
  const auto baseline = solveArbitrary(bookings, baselineOptions);

  std::cout << "admitted " << ours.assignments.size() << " of "
            << bookings.numDemands() << " bookings\n\n";

  Table table({"algorithm", "value", "admitted", "certified bound",
               "value certified >= OPT/"});
  table.row()
      .cell("staged (this paper, 23+eps)")
      .cell(ours.profit, 1)
      .cell(ours.assignments.size())
      .cell(ours.certifiedBound, 1)
      .cell(ours.dualUpperBound / ours.profit, 2);
  table.row()
      .cell("threshold (PS-style baseline)")
      .cell(baseline.profit, 1)
      .cell(baseline.assignments.size())
      .cell(baseline.certifiedBound, 1)
      .cell(baseline.dualUpperBound / baseline.profit, 2);
  table.print(std::cout);

  std::cout << "\nprime-time admissions (slots 64-95):\n";
  for (const LineAssignment& a : ours.assignments) {
    const WindowDemand& d =
        bookings.demands[static_cast<std::size_t>(a.demand)];
    if (a.start >= 64) {
      std::cout << "  booking " << a.demand << ": uplink " << a.resource
                << ", slots " << a.start << "-" << a.start + d.processing - 1
                << ", rate " << d.height << "\n";
    }
  }
  return 0;
}
