#include "serve/admission_queue.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace treewm::serve {

AdmissionQueue::AdmissionQueue(AdmissionQueueOptions options, Clock* clock)
    : options_([&] {
        AdmissionQueueOptions o = options;
        o.capacity = std::max<size_t>(1, o.capacity);
        o.max_batch_rows = std::max<size_t>(1, o.max_batch_rows);
        return o;
      }()),
      clock_(clock) {}

Status AdmissionQueue::Push(QueuedRequest&& item) {
  if (TREEWM_FAULT_FIRED("serve.admission.full")) {
    MutexLock lock(&mutex_);
    ++stats_.rejected_full;
    return Status::ResourceExhausted("admission queue full (injected)");
  }
  size_t depth = 0;
  {
    MutexLock lock(&mutex_);
    if (shutting_down_) {
      ++stats_.rejected_shutdown;
      return Status::FailedPrecondition("serving front-end is shutting down");
    }
    if (options_.shed_high_water > 0 && items_.size() >= options_.shed_high_water) {
      ++stats_.rejected_shed;
      return Status::ResourceExhausted(
          StrFormat("load shed: queue depth %zu at high-water %zu", items_.size(),
                    options_.shed_high_water));
    }
    if (items_.size() >= options_.capacity) {
      ++stats_.rejected_full;
      return Status::ResourceExhausted(
          StrFormat("admission queue full (capacity %zu)", options_.capacity));
    }
    items_.push_back(std::move(item));
    ++stats_.pushed;
    depth = items_.size();
    stats_.high_water = std::max<uint64_t>(stats_.high_water, depth);
  }
  // Wake the consumer only when the due time can change: the first queued
  // request starts the delay, and a full batch is due at once.
  if (depth == 1 || depth == options_.max_batch_rows) batch_due_.NotifyOne();
  return Status::OK();
}

std::chrono::nanoseconds AdmissionQueue::DueAtLocked() const {
  if (items_.empty()) return kNoDeadline;
  if (shutting_down_ || items_.size() >= options_.max_batch_rows) {
    return std::chrono::nanoseconds::min();
  }
  // The FIFO front is the oldest admission.
  return DeadlineAfter(items_.front().admitted_at, options_.max_batch_delay);
}

void AdmissionQueue::TakeBatchLocked(std::vector<QueuedRequest>* out) {
  const size_t n = std::min(items_.size(), options_.max_batch_rows);
  out->clear();
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(items_.front()));
    items_.pop_front();
  }
  stats_.popped += n;
}

bool AdmissionQueue::PopBatch(std::vector<QueuedRequest>* out) {
  MutexLock lock(&mutex_);
  while (!items_.empty() || !shutting_down_) {
    const auto due = DueAtLocked();
    if (due == kNoDeadline) {
      batch_due_.Wait(lock);
      continue;
    }
    const auto now = clock_->Now();
    if (now >= due) {
      TakeBatchLocked(out);
      return true;
    }
    // discard ok: timeout vs notify is re-derived from the loop condition
    (void)batch_due_.WaitFor(lock, due - now);
  }
  return false;
}

bool AdmissionQueue::TryPopBatch(bool force, std::vector<QueuedRequest>* out) {
  MutexLock lock(&mutex_);
  if (items_.empty() || (!force && clock_->Now() < DueAtLocked())) return false;
  TakeBatchLocked(out);
  return true;
}

void AdmissionQueue::Shutdown() {
  {
    MutexLock lock(&mutex_);
    shutting_down_ = true;
  }
  batch_due_.NotifyAll();
}

AdmissionQueueStats AdmissionQueue::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

}  // namespace treewm::serve
