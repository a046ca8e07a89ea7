#include "serve/admission_queue.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace treewm::serve {

AdmissionQueue::AdmissionQueue(AdmissionQueueOptions options)
    : options_([&] {
        AdmissionQueueOptions o = options;
        o.capacity = std::max<size_t>(1, o.capacity);
        return o;
      }()),
      clock_(options.clock != nullptr ? options.clock : Clock::System()) {}

Status AdmissionQueue::Push(QueuedRequest&& item) {
  if (TREEWM_FAULT_FIRED("serve.admission.full")) {
    MutexLock lock(&mutex_);
    ++stats_.rejected_full;
    return Status::ResourceExhausted("admission queue full (injected)");
  }
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
    stats_.high_water = std::max<uint64_t>(stats_.high_water, items_.size());
  }
  item_ready_.NotifyOne();
  return Status::OK();
}

bool AdmissionQueue::PopLocked(QueuedRequest* out) {
  if (items_.empty()) return false;
  *out = std::move(items_.front());
  items_.pop_front();
  ++stats_.popped;
  return true;
}

bool AdmissionQueue::PopUntil(QueuedRequest* out, std::chrono::nanoseconds until) {
  MutexLock lock(&mutex_);
  while (items_.empty() && !shutting_down_) {
    if (until == kNoDeadline) {
      item_ready_.Wait(lock);
      continue;
    }
    const auto now = clock_->Now();
    if (now >= until) return false;
    // discard ok: timeout vs notify is re-derived from the loop condition
    (void)item_ready_.WaitFor(lock, until - now);
  }
  return PopLocked(out);
}

bool AdmissionQueue::TryPop(QueuedRequest* out) {
  MutexLock lock(&mutex_);
  return PopLocked(out);
}

void AdmissionQueue::Shutdown() {
  {
    MutexLock lock(&mutex_);
    shutting_down_ = true;
  }
  item_ready_.NotifyAll();
}

bool AdmissionQueue::IsShutdown() const {
  MutexLock lock(&mutex_);
  return shutting_down_;
}

size_t AdmissionQueue::depth() const {
  MutexLock lock(&mutex_);
  return items_.size();
}

AdmissionQueueStats AdmissionQueue::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

}  // namespace treewm::serve
