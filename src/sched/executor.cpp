#include "sched/executor.h"

#include <chrono>
#include <optional>
#include <utility>

#include "dsched/wait_policy.h"

namespace argus {

namespace {

using SteadyClock = std::chrono::steady_clock;

double micros_since(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
      .count();
}

}  // namespace

TxnExecutor::TxnExecutor(Runtime& rt, ExecutorOptions options,
                         CompletionFn on_complete)
    : rt_(rt),
      options_(std::move(options)),
      on_complete_(std::move(on_complete)),
      stats_(std::make_shared<ExecutorStatsBlock>()) {
  if (options_.workers <= 0) throw UsageError("executor needs >= 1 worker");
  stats_->workers.store(options_.workers, std::memory_order_relaxed);
  rt_.set_executor_stats(stats_);
  workers_running_ = options_.workers;
  for (int i = 0; i < options_.workers; ++i) {
    const std::string name = "executor-" + std::to_string(i);
    if (options_.thread_factory) {
      options_.thread_factory(name, [this] { worker_loop(); });
    } else {
      owned_workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

TxnExecutor::~TxnExecutor() { shutdown(); }

void TxnExecutor::submit(Task task) {
  {
    const std::scoped_lock lock(mu_);
    if (stop_) throw UsageError("submit after executor shutdown");
    queue_.push_back(std::move(task));
    ++submitted_;
    stats_->submitted.fetch_add(1, std::memory_order_relaxed);
    stats_->queue_depth.store(static_cast<std::int64_t>(queue_.size()),
                              std::memory_order_relaxed);
  }
  notify(work_cv_);
}

void TxnExecutor::drain() {
  std::unique_lock lock(mu_);
  while (completed_ < submitted_) wait_round(&idle_cv_, lock, idle_cv_);
}

void TxnExecutor::shutdown() {
  {
    std::unique_lock lock(mu_);
    while (completed_ < submitted_) wait_round(&idle_cv_, lock, idle_cv_);
    if (stop_ && owned_workers_.empty()) return;
    stop_ = true;
  }
  notify(work_cv_);
  for (std::thread& w : owned_workers_) w.join();
  owned_workers_.clear();
  stats_->workers.store(0, std::memory_order_relaxed);
}

void TxnExecutor::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mu_);
      while (!stop_ && queue_.empty()) wait_round(&work_cv_, lock, work_cv_);
      if (queue_.empty()) break;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      stats_->queue_depth.store(static_cast<std::int64_t>(queue_.size()),
                                std::memory_order_relaxed);
    }
    run_task(task);
    {
      const std::scoped_lock lock(mu_);
      ++completed_;
    }
    stats_->completed.fetch_add(1, std::memory_order_relaxed);
    notify(idle_cv_);
  }
  const std::scoped_lock lock(mu_);
  --workers_running_;
}

void TxnExecutor::run_task(const Task& task) {
  // The rng persists across retries: a retried transaction continues the
  // task's random stream, as the old per-thread driver loop did.
  SplitMix64 rng(task.seed);
  // Every attempt carries the first attempt's deadlock priority, so a
  // victim ages instead of retrying as the youngest forever.
  std::optional<std::uint64_t> priority;
  Outcome out;
  out.label = task.label;
  const auto t0 = SteadyClock::now();
  for (int attempt = 0; attempt <= options_.max_retries && !out.committed;
       ++attempt) {
    if (attempt > 0) stats_->retries.fetch_add(1, std::memory_order_relaxed);
    ++out.attempts;
    auto txn = rt_.tm().begin(task.kind);
    if (priority.has_value()) {
      txn->inherit_priority(*priority);
    } else {
      priority = txn->priority();
      const std::scoped_lock lock(mu_);
      inflight_priorities_.insert(*priority);
    }
    if (options_.timestamp_skew_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(rng.below(
          static_cast<std::uint64_t>(options_.timestamp_skew_us) + 1)));
    }
    try {
      task.body(*txn, rng);
      rt_.tm().commit(txn);
      out.committed = true;
      stats_->committed.fetch_add(1, std::memory_order_relaxed);
    } catch (const TransactionAborted& e) {
      rt_.tm().abort(txn, e.reason());
      ++out.aborts[e.reason()];
      if (e.reason() == AbortReason::kDeadlock &&
          attempt < options_.max_retries) {
        await_older_tasks(*priority);
      }
      if (e.reason() == AbortReason::kValidation) {
        stats_->validation_aborts.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (!out.committed) stats_->gave_up.fetch_add(1, std::memory_order_relaxed);
  if (priority.has_value()) {
    const std::scoped_lock lock(mu_);
    inflight_priorities_.erase(*priority);
  }
  out.latency_us = micros_since(t0);
  if (on_complete_) on_complete_(out);
}

void TxnExecutor::await_older_tasks(std::uint64_t priority) {
  std::unique_lock lock(mu_);
  while (*inflight_priorities_.begin() < priority) {
    wait_round(&idle_cv_, lock, idle_cv_);
  }
}

void TxnExecutor::wait_round(const void* channel,
                             std::unique_lock<std::mutex>& lock,
                             std::condition_variable& cv) {
  if (WaitPolicy* policy = rt_.tm().wait_policy()) {
    policy->wait_round(LaneHint{WaitPoint::kExecutorQueue}, channel, lock, cv,
                       std::chrono::microseconds(2000));
  } else {
    cv.wait_for(lock, std::chrono::milliseconds(2));
  }
}

void TxnExecutor::notify(std::condition_variable& cv) {
  cv.notify_all();
  if (WaitPolicy* policy = rt_.tm().wait_policy()) policy->notify(&cv);
}

}  // namespace argus
