#include "src/support/thread_pool.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "src/support/fault_injection.h"

namespace specmine {

size_t ThreadPool::ResolveThreads(size_t requested) {
  constexpr size_t kMaxThreads = 1024;
  if (requested == 0) {
    return std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  return std::min(requested, kMaxThreads);
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++pending_;
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return !queue_.empty() || shutdown_; });
      if (queue_.empty()) return;  // Shutdown with nothing left to run.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return pending_ == 0; });
}

Status RunGuarded(const std::function<void()>& job) {
  try {
    SPECMINE_RETURN_NOT_OK(CheckFault("thread_pool.task"));
    job();
    return Status::OK();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("exception escaped a worker task: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("non-standard exception escaped a worker task");
  }
}

}  // namespace specmine
