// Shared helpers for the test suite: terse history construction in the
// paper's notation, and utilities for running transactions on separate
// threads with step synchronization.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/ids.h"
#include "hist/history.h"

namespace argus::testutil {

// The paper's activity letters.
inline constexpr ActivityId A{0};
inline constexpr ActivityId B{1};
inline constexpr ActivityId C{2};
inline constexpr ActivityId R{17};  // read-only activities r, s, t
inline constexpr ActivityId S{18};
inline constexpr ActivityId T{19};

// Objects x, y.
inline constexpr ObjectId X{0};
inline constexpr ObjectId Y{1};

/// A gtest-safe parameter name: `name` with every '-' made '_' (protocol
/// names like "comm-lock" are not valid test-name characters).
inline std::string test_name(std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

/// Builds a history from an initializer list of events.
inline History hist(std::vector<Event> events) {
  return History(std::move(events));
}

/// Runs `f` on another thread and asserts it does not finish within
/// `millis` — the standard idiom for "this invocation blocks". Returns a
/// future the caller must eventually resolve (by unblocking f) and join
/// via get().
template <typename F>
std::future<void> expect_blocks(F f, int millis = 100) {
  auto fut = std::async(std::launch::async, std::move(f));
  if (fut.wait_for(std::chrono::milliseconds(millis)) ==
      std::future_status::ready) {
    throw std::runtime_error("expected the call to block, but it finished");
  }
  return fut;
}

/// Waits for a future with a timeout, failing the test on deadline.
inline void join_within(std::future<void>& fut, int millis = 5000) {
  if (fut.wait_for(std::chrono::milliseconds(millis)) !=
      std::future_status::ready) {
    throw std::runtime_error("future did not complete in time");
  }
  fut.get();
}

}  // namespace argus::testutil
