// Static factory registry over every scheduler.
//
// The `solver_t::all().ids(std::regex)` idiom: a process-wide catalogue
// of scheduler factories, addressable by id string, filterable by
// regex, so benches, tests and demos enumerate the family instead of
// hardcoding entry points:
//
//   for (const auto& id : SchedulerRegistry::all().ids(std::regex(".*")))
//     auto outcome = SchedulerRegistry::all().make(id, options)->solve(ctx);
//
// Built-in ids (policy/schedulers.cpp):
//   two_phase              — the paper's two-phase LP-dual protocol run
//                            distributed over a Transport (reference;
//                            bit-identical to runTwoPhase);
//   two_phase/full_mis     — MIS axis: exhaustive Luby MIS per step
//                            (no round budget) instead of the budgeted
//                            default;
//   two_phase/threshold    — schedule axis: the Panconesi–Sozio
//                            threshold plan (centralized engine — the
//                            distributed protocol implements the staged
//                            plan only);
//   two_phase/local_search — admission axis: phase-2 admission
//                            post-processed by deterministic local
//                            search;
//   greedy                 — profit-greedy baseline (src/exact/);
//   greedy/local_search    — greedy + ADD/SWAP local search;
//   emr_line_pack          — Even–Medina–Rosén-style line packet
//                            scheduling adapted to the revenue
//                            objective (policy/line_pack.hpp).
//
// The raise-policy axis (§6 narrow rule) is selected through
// DistributedOptions::rule rather than a registered id: the narrow
// rule is only defined over narrow (height <= 1/2) instances, so it
// cannot run on the unit-height preset catalogue every registered id
// must survive.
//
// Registration is idempotent per process and ids are unique — a
// duplicate id throws. New schedulers register through
// SchedulerRegistry::all().add(info, factory) (typically from a
// translation unit's initialization, or explicitly before first use).
#pragma once

#include <functional>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "policy/scheduler.hpp"

namespace treesched {

class SchedulerRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Scheduler>(const DistributedOptions&)>;

  /// The process-wide registry, built-ins registered on first use.
  static SchedulerRegistry& all();

  /// Registers a scheduler; throws CheckError on a duplicate or empty id.
  void add(SchedulerInfo info, Factory factory);

  /// Every registered id matching `pattern`, in registration order.
  std::vector<std::string> ids(const std::regex& pattern) const;
  /// Every registered id, in registration order.
  std::vector<std::string> ids() const;

  bool has(const std::string& id) const;

  /// Metadata of one id; throws CheckError when unknown.
  const SchedulerInfo& info(const std::string& id) const;

  /// Instantiates the scheduler behind `id` with `options`; throws
  /// CheckError (listing the known ids) when unknown. The two-phase
  /// ids run the fixed global schedule, so `two_phase` is bit-identical
  /// to runTwoPhase under centralizedReference(options).
  std::unique_ptr<Scheduler> make(const std::string& id,
                                  const DistributedOptions& options = {}) const;

 private:
  struct Entry {
    SchedulerInfo info;
    Factory factory;
  };

  const Entry* find(const std::string& id) const;

  std::vector<Entry> entries_;
};

}  // namespace treesched
