// Worker pool with the paper's task-scheduling policy (§3.4.2): the
// dispatcher keeps assigning to the same worker while its private queue holds
// fewer than kWorkerQueueThreshold tasks, then moves to the next running
// worker, and only wakes a sleeping worker when no running worker has room.
// Workers poll their queue and go to sleep after kWorkerIdleSleepNs without
// work.
#ifndef TEBIS_NET_WORKER_POOL_H_
#define TEBIS_NET_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tebis {

inline constexpr size_t kWorkerQueueThreshold = 64;
inline constexpr uint64_t kWorkerIdleSleepNs = 100 * 1000;  // 100 us

class WorkerPool {
 public:
  using Task = std::function<void()>;

  explicit WorkerPool(int num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Start();
  void Stop();

  // Dispatches with the paper's policy. Thread-safe (called by spinning
  // threads).
  void Dispatch(Task task);

  // Dispatches a long-running task (e.g. a background compaction).
  // Prefers an idle worker with no other long task queued, so compactions do
  // not serialize behind each other; short Dispatch() traffic in turn avoids
  // workers occupied by a long task while any other running worker has room.
  void DispatchLongRunning(Task task);

  int num_workers() const { return static_cast<int>(workers_.size()); }
  size_t QueueDepth(int worker) const;
  bool IsSleeping(int worker) const;
  uint64_t tasks_executed() const { return tasks_executed_.load(std::memory_order_relaxed); }

  // Blocks until all queues are empty and workers idle (test/shutdown helper).
  void Drain();

 private:
  struct Worker {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::deque<Task> queue;
    std::thread thread;
    std::atomic<bool> sleeping{false};
    std::atomic<bool> busy{false};
    // Long-running tasks queued or executing on this worker.
    std::atomic<int> long_pending{0};
  };

  void WorkerLoop(Worker* worker);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> tasks_executed_{0};
  std::mutex dispatch_mutex_;
  int last_worker_ = 0;
};

}  // namespace tebis

#endif  // TEBIS_NET_WORKER_POOL_H_
