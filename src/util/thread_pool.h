// Minimal fixed-size thread pool used to train candidate designs in
// parallel. Tasks are type-erased closures; parallel_for provides the
// common "independent work items" pattern with deterministic result slots,
// claiming items from a shared counter so a 2400-item loop costs a few
// tasks, not 2400 packaged tasks and futures.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace nada::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the future resolves when the task completes.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(task));
    std::future<Result> result = packaged->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool::submit after shutdown");
      }
      tasks_.emplace([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all finish.
  /// fn must be safe to call concurrently for distinct i. min(n, size())
  /// tasks claim indices in increasing order from one atomic counter. If
  /// any invocation throws, every remaining item still runs to completion
  /// and the exception of the lowest throwing index is rethrown on the
  /// calling thread (deterministic whatever the scheduling).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace nada::util
