#include "src/net/worker_pool.h"

#include "src/common/clock.h"

namespace tebis {

WorkerPool::WorkerPool(int num_workers) {
  for (int i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

WorkerPool::~WorkerPool() { Stop(); }

void WorkerPool::Start() {
  if (running_.exchange(true)) {
    return;
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(w); });
  }
}

void WorkerPool::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mutex);
    }
    worker->cv.notify_all();
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

size_t WorkerPool::QueueDepth(int worker) const {
  std::lock_guard<std::mutex> lock(workers_[worker]->mutex);
  return workers_[worker]->queue.size();
}

bool WorkerPool::IsSleeping(int worker) const {
  return workers_[worker]->sleeping.load(std::memory_order_acquire);
}

void WorkerPool::Dispatch(Task task) {
  std::lock_guard<std::mutex> dispatch_lock(dispatch_mutex_);
  const int n = num_workers();
  // 1) Stick with the last worker while it has room (limits wake-ups).
  // 2) Otherwise the next *running* worker with room.
  // 3) Otherwise wake a sleeping worker.
  int chosen = -1;
  for (int probe = 0; probe < n; ++probe) {
    const int candidate = (last_worker_ + probe) % n;
    Worker& w = *workers_[candidate];
    const bool sleeping = w.sleeping.load(std::memory_order_acquire);
    if (w.long_pending.load(std::memory_order_acquire) > 0) {
      continue;  // occupied by a compaction-sized task; short tasks go elsewhere
    }
    std::lock_guard<std::mutex> lock(w.mutex);
    if (!sleeping && w.queue.size() < kWorkerQueueThreshold) {
      chosen = candidate;
      break;
    }
  }
  if (chosen < 0) {
    for (int probe = 0; probe < n; ++probe) {
      const int candidate = (last_worker_ + probe) % n;
      if (workers_[candidate]->sleeping.load(std::memory_order_acquire)) {
        chosen = candidate;
        break;
      }
    }
  }
  if (chosen < 0) {
    chosen = last_worker_;  // everyone saturated: stay put
  }
  last_worker_ = chosen;
  Worker& w = *workers_[chosen];
  {
    std::lock_guard<std::mutex> lock(w.mutex);
    w.queue.push_back(std::move(task));
  }
  if (w.sleeping.load(std::memory_order_acquire)) {
    w.cv.notify_one();
  }
}

void WorkerPool::DispatchLongRunning(Task task) {
  std::lock_guard<std::mutex> dispatch_lock(dispatch_mutex_);
  const int n = num_workers();
  // Best worker: no long task already on it, then shallowest queue. Ties keep
  // the lowest index (deterministic for tests).
  int chosen = 0;
  int best_long = workers_[0]->long_pending.load(std::memory_order_acquire);
  size_t best_depth;
  {
    std::lock_guard<std::mutex> lock(workers_[0]->mutex);
    best_depth = workers_[0]->queue.size();
  }
  for (int i = 1; i < n; ++i) {
    Worker& w = *workers_[i];
    const int pending = w.long_pending.load(std::memory_order_acquire);
    size_t depth;
    {
      std::lock_guard<std::mutex> lock(w.mutex);
      depth = w.queue.size();
    }
    if (pending < best_long || (pending == best_long && depth < best_depth)) {
      chosen = i;
      best_long = pending;
      best_depth = depth;
    }
  }
  Worker& w = *workers_[chosen];
  w.long_pending.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(w.mutex);
    w.queue.push_back([&w, task = std::move(task)] {
      task();
      w.long_pending.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  if (w.sleeping.load(std::memory_order_acquire)) {
    w.cv.notify_one();
  }
}

void WorkerPool::WorkerLoop(Worker* worker) {
  uint64_t idle_since = NowNanos();
  while (true) {
    Task task;
    {
      // Mark busy in the same critical section as the pop: Drain() checks
      // queue and busy under this mutex, so it never sees a popped task that
      // has not run yet as idle.
      std::lock_guard<std::mutex> lock(worker->mutex);
      if (!worker->queue.empty()) {
        task = std::move(worker->queue.front());
        worker->queue.pop_front();
        worker->busy.store(true, std::memory_order_release);
      }
    }
    if (task) {
      task();
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      worker->busy.store(false, std::memory_order_release);
      idle_since = NowNanos();
      continue;
    }
    if (!running_.load(std::memory_order_acquire)) {
      return;
    }
    if (NowNanos() - idle_since < kWorkerIdleSleepNs) {
      std::this_thread::yield();  // poll phase
      continue;
    }
    // Idle too long: sleep until the dispatcher wakes us.
    std::unique_lock<std::mutex> lock(worker->mutex);
    if (!worker->queue.empty()) {
      continue;
    }
    worker->sleeping.store(true, std::memory_order_release);
    worker->cv.wait_for(lock, std::chrono::milliseconds(5), [&] {
      return !worker->queue.empty() || !running_.load(std::memory_order_acquire);
    });
    worker->sleeping.store(false, std::memory_order_release);
    idle_since = NowNanos();
  }
}

void WorkerPool::Drain() {
  while (true) {
    bool idle = true;
    for (auto& worker : workers_) {
      std::lock_guard<std::mutex> lock(worker->mutex);
      if (!worker->queue.empty() || worker->busy.load(std::memory_order_acquire)) {
        idle = false;
        break;
      }
    }
    if (idle) {
      return;
    }
    std::this_thread::yield();
  }
}

}  // namespace tebis
