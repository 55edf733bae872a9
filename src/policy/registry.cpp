#include "policy/registry.hpp"

#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace treesched {

namespace detail {
// Defined in policy/schedulers.cpp: registers the built-in family.
void registerBuiltinSchedulers(SchedulerRegistry& registry);
}  // namespace detail

std::span<const InstanceId> resolveActiveSet(
    const ScheduleContext& context, std::vector<InstanceId>& storage) {
  if (!context.active.empty()) return context.active;
  storage.resize(static_cast<std::size_t>(context.universe.numInstances()));
  for (InstanceId i = 0; i < context.universe.numInstances(); ++i) {
    storage[static_cast<std::size_t>(i)] = i;
  }
  return storage;
}

SchedulerRegistry& SchedulerRegistry::all() {
  static SchedulerRegistry* registry = [] {
    auto* r = new SchedulerRegistry();
    detail::registerBuiltinSchedulers(*r);
    return r;
  }();
  return *registry;
}

void SchedulerRegistry::add(SchedulerInfo info, Factory factory) {
  checkThat(!info.id.empty(), "scheduler id non-empty", __FILE__, __LINE__);
  checkThat(static_cast<bool>(factory), "scheduler factory non-null",
            __FILE__, __LINE__);
  checkThat(find(info.id) == nullptr, "scheduler id unique", __FILE__,
            __LINE__);
  entries_.push_back({std::move(info), std::move(factory)});
}

std::vector<std::string> SchedulerRegistry::ids(
    const std::regex& pattern) const {
  std::vector<std::string> result;
  for (const Entry& entry : entries_) {
    if (std::regex_match(entry.info.id, pattern)) {
      result.push_back(entry.info.id);
    }
  }
  return result;
}

std::vector<std::string> SchedulerRegistry::ids() const {
  std::vector<std::string> result;
  result.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    result.push_back(entry.info.id);
  }
  return result;
}

bool SchedulerRegistry::has(const std::string& id) const {
  return find(id) != nullptr;
}

const SchedulerInfo& SchedulerRegistry::info(const std::string& id) const {
  const Entry* entry = find(id);
  checkThat(entry != nullptr, "known scheduler id", __FILE__, __LINE__);
  return entry->info;
}

std::unique_ptr<Scheduler> SchedulerRegistry::make(
    const std::string& id, const DistributedOptions& options) const {
  const Entry* entry = find(id);
  if (entry == nullptr) {
    std::ostringstream message;
    message << "unknown scheduler id '" << id << "' (known:";
    for (const Entry& e : entries_) message << " " << e.info.id;
    message << ")";
    checkThat(false, message.str(), __FILE__, __LINE__);
  }
  return entry->factory(options);
}

const SchedulerRegistry::Entry* SchedulerRegistry::find(
    const std::string& id) const {
  for (const Entry& entry : entries_) {
    if (entry.info.id == id) return &entry;
  }
  return nullptr;
}

}  // namespace treesched
