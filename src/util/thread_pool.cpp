#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace nada::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = n;
  std::exception_ptr error;
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };
  const std::size_t tasks = std::min(n, size());
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) futures.push_back(submit(drain));
  // drain() catches everything, so these waits never throw; every task must
  // finish before the locals it references go out of scope.
  for (auto& f : futures) f.wait();
  if (error) std::rethrow_exception(error);
}

}  // namespace nada::util
