#include "dsched/schedule_source.h"

#include <algorithm>

namespace argus {

std::string to_string(WaitPoint point) {
  switch (point) {
    case WaitPoint::kObjectInvoke:
      return "object-invoke";
    case WaitPoint::kObjectWait:
      return "object-wait";
    case WaitPoint::kTxnBegin:
      return "txn-begin";
    case WaitPoint::kTxnCommit:
      return "txn-commit";
    case WaitPoint::kClockTurn:
      return "clock-turn";
    case WaitPoint::kClockCovered:
      return "clock-covered";
    case WaitPoint::kLogLeader:
      return "log-leader";
    case WaitPoint::kLogFollower:
      return "log-follower";
    case WaitPoint::kLogSleep:
      return "log-sleep";
    case WaitPoint::kSentinelWindow:
      return "sentinel-window";
    case WaitPoint::kExecutorQueue:
      return "executor-queue";
    case WaitPoint::kCoordinator:
      return "coordinator";
  }
  return "unknown";
}

PctScheduleSource::PctScheduleSource(std::uint64_t seed,
                                     std::uint32_t change_points,
                                     std::uint64_t horizon)
    : seed_(seed), change_points_(change_points),
      horizon_(horizon == 0 ? 1 : horizon) {}

void PctScheduleSource::begin_run() {
  rng_ = SplitMix64(seed_ ^ 0x94d049bb133111ebULL);
  priorities_.clear();
  change_steps_.clear();
  low_water_ = 0;
  for (std::uint32_t i = 0; i < change_points_; ++i) {
    change_steps_.insert(rng_.below(horizon_));
  }
}

std::size_t PctScheduleSource::pick(const std::vector<LaneChoice>& ready,
                                    std::uint64_t step) {
  // Lanes draw their fixed priority on first appearance. The ready set is
  // sorted by lane id and the execution is deterministic, so the draws
  // are too.
  for (const LaneChoice& c : ready) {
    if (priorities_.find(c.lane) == priorities_.end()) {
      priorities_[c.lane] = static_cast<std::int64_t>(rng_.below(1u << 30)) + 1;
    }
  }
  const auto best = [&] {
    std::size_t arg = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      if (priorities_[ready[i].lane] > priorities_[ready[arg].lane]) arg = i;
    }
    return arg;
  };
  if (change_steps_.count(step) != 0) {
    // Change point: demote the current leader below every priority ever
    // assigned, forcing a preemption exactly here.
    priorities_[ready[best()].lane] = --low_water_;
  }
  return best();
}

std::size_t ReplayScheduleSource::pick(const std::vector<LaneChoice>& ready,
                                       std::uint64_t /*step*/) {
  if (next_ < choices_.size()) {
    const std::uint32_t want = choices_[next_++];
    for (std::size_t i = 0; i < ready.size(); ++i) {
      if (ready[i].lane == want) return i;
    }
    diverged_ = true;
  }
  // Past the recorded prefix (or diverged): deterministic default — the
  // lowest-id ready lane. This is what makes prefix bisection meaningful.
  return 0;
}

bool DfsScheduleSource::in_sleep(const Frame& f, const LaneChoice& c) const {
  const DfsStep step{c.lane, c.hint};
  return std::find(f.sleep.begin(), f.sleep.end(), step) != f.sleep.end();
}

std::size_t DfsScheduleSource::next_open_choice(Frame& f, std::size_t from) {
  std::size_t i = from;
  for (; i < f.ready.size(); ++i) {
    if (!in_sleep(f, f.ready[i])) break;
    ++pruned_;
  }
  return i;
}

std::size_t DfsScheduleSource::pick(const std::vector<LaneChoice>& ready,
                                    std::uint64_t /*step*/) {
  if (depth_ < frames_.size()) {
    // Replaying the committed prefix of the current branch. Execution is
    // deterministic, so the ready set matches the recorded frame.
    Frame& f = frames_[depth_];
    ++depth_;
    return std::min(f.choice, ready.size() - 1);
  }
  if (depth_ >= options_.max_depth) {
    // Beyond the branching bound: deterministic default, no new frame.
    ++depth_;
    return 0;
  }

  Frame f;
  f.ready = ready;
  // Sleep-set inheritance (Godefroid): a step slept at the parent stays
  // asleep here iff it is independent of the step the parent chose.
  if (!frames_.empty() && options_.independent) {
    const Frame& parent = frames_.back();
    const DfsStep chosen{parent.ready[parent.choice].lane,
                         parent.ready[parent.choice].hint};
    for (const DfsStep& s : parent.sleep) {
      if (options_.independent(s, chosen)) f.sleep.push_back(s);
    }
  }
  const std::size_t first = next_open_choice(f, 0);
  if (first >= f.ready.size()) {
    // Every branch slept. That cannot happen at a genuinely new node (the
    // step that put its siblings to sleep is itself explored elsewhere),
    // but a cooperative execution cannot be abandoned mid-run — run the
    // first branch and mark the frame redundant so it never branches.
    f.redundant = true;
    f.choice = 0;
  } else {
    f.choice = first;
  }
  frames_.push_back(std::move(f));
  ++depth_;
  return frames_.back().choice;
}

bool DfsScheduleSource::next_run() {
  ++runs_;
  if (runs_ >= options_.max_runs) return false;  // truncated, not exhausted
  while (!frames_.empty()) {
    Frame& f = frames_.back();
    if (!f.redundant) {
      // The explored branch joins the sleep set: siblings independent of
      // it need not be re-explored from this node.
      f.sleep.push_back(DfsStep{f.ready[f.choice].lane, f.ready[f.choice].hint});
      const std::size_t next = next_open_choice(f, f.choice + 1);
      if (next < f.ready.size()) {
        f.choice = next;
        return true;
      }
    }
    frames_.pop_back();
  }
  exhausted_ = true;
  return false;
}

namespace {

constexpr char kBase36[] = "0123456789abcdefghijklmnopqrstuvwxyz";

}  // namespace

std::string to_schedule_string(const std::vector<std::uint32_t>& choices) {
  bool compact = true;
  for (const std::uint32_t c : choices) {
    if (c >= 36) {
      compact = false;
      break;
    }
  }
  std::string out = compact ? "s1:" : "s2:";
  if (compact) {
    out.reserve(3 + choices.size());
    for (const std::uint32_t c : choices) out.push_back(kBase36[c]);
    return out;
  }
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(choices[i]);
  }
  return out;
}

bool parse_schedule_string(const std::string& text,
                           std::vector<std::uint32_t>* out,
                           std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  out->clear();
  if (text.empty()) return true;
  if (text.rfind("s1:", 0) == 0) {
    for (std::size_t i = 3; i < text.size(); ++i) {
      const char ch = text[i];
      const char* pos = std::char_traits<char>::find(kBase36, 36, ch);
      if (pos == nullptr) {
        return fail("bad schedule digit '" + std::string(1, ch) + "'");
      }
      out->push_back(static_cast<std::uint32_t>(pos - kBase36));
    }
    return true;
  }
  if (text.rfind("s2:", 0) == 0) {
    std::size_t i = 3;
    while (i < text.size()) {
      std::size_t digits = 0;
      std::uint64_t value = 0;
      while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
        value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
        ++digits;
        ++i;
        if (value > 0xffffffffULL) return fail("lane id out of range");
      }
      if (digits == 0) return fail("expected lane id in schedule");
      out->push_back(static_cast<std::uint32_t>(value));
      if (i < text.size()) {
        if (text[i] != ',') return fail("expected ',' in schedule");
        ++i;
        if (i == text.size()) return fail("trailing ',' in schedule");
      }
    }
    return true;
  }
  return fail("schedule must start with s1: or s2:");
}

}  // namespace argus
