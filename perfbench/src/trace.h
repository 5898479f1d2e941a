// Client-side span log for the traced run.
//
// Spans are recorded by the benchmark's own client code around each call
// it makes into a library layer (Runtime::begin/commit, ManagedObject::
// invoke, DistRuntime::read/write/commit). Nothing inside the library is
// instrumented. Each client thread owns one SpanLog, so recording takes
// no lock; the logs are merged and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;       // static string, e.g. "txn.commit"
  std::int64_t start_ns;  // steady clock
  std::int64_t end_ns;
  std::int32_t parent;    // index in the same log, -1 for a root span
  std::uint64_t txn;      // logical transaction id, shared by its retries
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span under the innermost open one. Returns its index, or -1
  /// when tracing is off.
  int open(const char* name, std::uint64_t txn) {
    if (!enabled_) return -1;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, current_, txn});
    current_ = index;
    return index;
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  /// Runs f() inside a span; the span closes even if f throws.
  template <typename F>
  decltype(auto) timed(const char* name, std::uint64_t txn, F&& f) {
    struct Closer {
      SpanLog& log;
      int index;
      ~Closer() { log.close(index); }
    } closer{*this, open(name, txn)};
    return f();
  }

 private:
  bool enabled_;
  int current_{-1};
  std::vector<Span> spans_;
};

}  // namespace perfbench
