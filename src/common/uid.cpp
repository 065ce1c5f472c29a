#include "common/uid.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/mutex.hpp"

namespace entk {

namespace detail {
struct PrefixCounter {
  std::atomic<std::uint64_t> next{0};
};
}  // namespace detail

namespace {

SharedMutex g_mutex{LockRank::kUidRegistry};

// Counters are heap-allocated and never erased, so a PrefixCounter*
// obtained under the reader lock stays valid for the process lifetime;
// reset_uid_counters_for_testing zeroes them in place instead of
// clearing the map. Leaked deliberately (function-local static with no
// destructor ordering hazards at exit).
using CounterMap =
    std::unordered_map<std::string, std::unique_ptr<detail::PrefixCounter>>;

CounterMap& counters() ENTK_REQUIRES_SHARED(g_mutex) {
  static CounterMap* instance = new CounterMap();
  return *instance;
}

detail::PrefixCounter* find_counter(const std::string& prefix) {
  {
    SharedReaderLock lock(g_mutex);
    const auto it = counters().find(prefix);
    if (it != counters().end()) return it->second.get();
  }
  SharedMutexLock lock(g_mutex);
  auto& slot = counters()[prefix];
  if (slot == nullptr) slot = std::make_unique<detail::PrefixCounter>();
  return slot.get();
}

/// Whether the family `prefix` belongs to `session`: "<session>.<kind>"
/// for a named session, a dot-free "<kind>" for the unnamed one (a
/// named session's families always contain a dot).
bool owned_by(const std::string& prefix, const std::string& session) {
  std::size_t kind = 0;
  if (!session.empty()) {
    if (prefix.size() <= session.size() + 1 ||
        prefix.compare(0, session.size(), session) != 0 ||
        prefix[session.size()] != '.') {
      return false;
    }
    kind = session.size() + 1;
  }
  return prefix.find('.', kind) == std::string::npos;
}

std::string format_uid(const std::string& prefix, std::uint64_t value) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%06llu",
                static_cast<unsigned long long>(value));
  return prefix + suffix;
}

}  // namespace

std::string next_uid(const std::string& prefix) {
  detail::PrefixCounter* counter = find_counter(prefix);
  return format_uid(
      prefix, counter->next.fetch_add(1, std::memory_order_relaxed));
}

UidSource::UidSource(std::string prefix)
    : prefix_(std::move(prefix)), counter_(find_counter(prefix_)) {}

std::string UidSource::next() const {
  return format_uid(
      prefix_, counter_->next.fetch_add(1, std::memory_order_relaxed));
}

std::string session_uid_family(const std::string& session,
                               const std::string& kind) {
  return session.empty() ? kind : session + "." + kind;
}

void reset_uid_counters_for_testing() {
  SharedMutexLock lock(g_mutex);
  for (auto& [prefix, counter] : counters()) {
    counter->next.store(0, std::memory_order_relaxed);
  }
}

void reset_uid_counters_with_prefix(const std::string& family) {
  const std::string dotted = family + ".";
  SharedMutexLock lock(g_mutex);
  for (auto& [prefix, counter] : counters()) {
    if (prefix != family && prefix.compare(0, dotted.size(), dotted) != 0) {
      continue;
    }
    counter->next.store(0, std::memory_order_relaxed);
  }
}

std::vector<std::pair<std::string, std::uint64_t>> snapshot_uid_counters(
    const std::string& session) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  {
    SharedReaderLock lock(g_mutex);
    for (const auto& [prefix, counter] : counters()) {
      if (!owned_by(prefix, session)) continue;
      out.emplace_back(prefix, counter->next.load(std::memory_order_relaxed));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void restore_uid_counters(
    const std::string& session,
    const std::vector<std::pair<std::string, std::uint64_t>>& snapshot) {
  SharedMutexLock lock(g_mutex);
  for (const auto& [prefix, value] : snapshot) {
    if (!owned_by(prefix, session)) continue;
    auto& slot = counters()[prefix];
    if (slot == nullptr) slot = std::make_unique<detail::PrefixCounter>();
    slot->next.store(value, std::memory_order_relaxed);
  }
}

}  // namespace entk
