// The miners' thread pool and the one fan-out every parallel path runs on
// (README.md, "Index layout & threading").
//
// A fan-out's workers claim jobs off one cursor, so load balances however
// skewed the jobs are, and each worker keeps one scratch for every job it
// runs. OrderedFanOut buffers each job's output and replays it on the
// calling thread in job order; ParallelFor is its case with nothing to
// replay. At one thread both run their jobs inline on the calling thread.

#ifndef SPECMINE_SUPPORT_THREAD_POOL_H_
#define SPECMINE_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/support/status.h"

namespace specmine {

/// \brief Fixed-size thread pool over one task queue.
class ThreadPool {
 public:
  /// \brief Spawns \p num_threads workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// \brief Drains remaining tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues one task. Safe from any thread. The task must not
  /// throw: fan-outs guard each job (RunGuarded).
  void Submit(std::function<void()> task);

  /// \brief Blocks until every submitted task has finished.
  void Wait();

  /// \brief Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// \brief Resolves an options-style thread count: 0 = hardware
  /// concurrency (at least 1), anything else verbatim up to a sanity cap
  /// (a garbage request must not translate into millions of threads).
  static size_t ResolveThreads(size_t requested);

  /// \brief Runs fn(i) for every i in [0, n) and blocks until all calls
  /// finish: the OrderedFanOut below with nothing to replay. A task body
  /// that throws stops further claims and comes back as kInternal. At one
  /// thread or one index the calls run inline on the calling thread, as a
  /// plain loop would. \p shared is used as OrderedFanOut uses it.
  template <typename Fn>
  static Status ParallelForShared(ThreadPool* shared, size_t num_threads,
                                  size_t n, Fn&& fn);

  /// \brief ParallelForShared on a fresh pool.
  template <typename Fn>
  static Status ParallelFor(size_t num_threads, size_t n, Fn&& fn) {
    return ParallelForShared(nullptr, num_threads, n, std::forward<Fn>(fn));
  }

 private:
  void WorkerLoop();

  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::mutex mu_;  // Guards queue_, pending_, shutdown_.
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  size_t pending_ = 0;  // Submitted but not yet finished.
  bool shutdown_ = false;
};

/// \brief Runs one fan-out job, turning an exception that escapes it (a
/// throwing user sink, a bad allocation deep in a miner subtree) or the
/// armed "thread_pool.task" fault into a failed Status instead of
/// std::terminate.
Status RunGuarded(const std::function<void()>& job);

/// \brief The ordered fan-out: jobs that take \p Args, run with a
/// per-worker \p Scratch, and deliver through an \p Out buffer.
///
/// The producer (the calling thread) Push()es each job's arguments and may
/// keep enumerating while workers claim earlier jobs off the cursor. A
/// worker runs run(scratch, &out, args...) into the job's own Out. The
/// calling thread replays each Out through replay(out) in push order, as
/// soon as every earlier job has been replayed, so a sink behind replay
/// needs no synchronization and sees the order of one thread. A job whose
/// run or replay returns false is the last one replayed; a job that fails
/// is not replayed at all, so only the completed prefix is delivered. At
/// most kWindowPerWorker jobs per worker are ever pushed but unreplayed:
/// Push replays, waiting if it must, to stay inside that window, which
/// bounds the buffered output.
///
/// At one thread nothing is buffered or copied: Push runs the job inline
/// as run(scratch, nullptr, args...), and the job delivers directly,
/// exactly as its replay would have.
template <typename Scratch, typename Out, typename... Args>
class OrderedFanOut {
 public:
  static constexpr size_t kWindowPerWorker = 32;

  using Run = std::function<bool(Scratch&, Out*, const Args&...)>;
  using Replay = std::function<bool(Out&)>;

  /// \brief Runs on \p shared when it has \p num_threads workers (an
  /// Engine session's cached pool, otherwise idle), else on a fresh pool.
  OrderedFanOut(ThreadPool* shared, size_t num_threads, Run run,
                Replay replay)
      : run_(std::move(run)),
        replay_(std::move(replay)),
        scratch_(num_threads > 1 ? num_threads : 1) {
    if (num_threads <= 1) return;
    slots_.resize(kWindowPerWorker * num_threads);
    if (shared == nullptr || shared->num_threads() != num_threads) {
      own_pool_ = std::make_unique<ThreadPool>(num_threads);
      shared = own_pool_.get();
    }
    pool_ = shared;
    for (size_t w = 0; w < num_threads; ++w) {
      pool_->Submit([this, w] { Work(w); });
    }
  }

  /// \brief Stops claiming and waits for the jobs in flight.
  ~OrderedFanOut() {
    if (pool_ == nullptr) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    work_cv_.notify_all();
    pool_->Wait();
  }

  OrderedFanOut(const OrderedFanOut&) = delete;
  OrderedFanOut& operator=(const OrderedFanOut&) = delete;

  /// \brief Queues one job; returns false once the fan-out has stopped,
  /// so the producer should stop too.
  bool Push(const Args&... args) {
    if (pool_ == nullptr) {
      if (stopped_) return false;
      stopped_ = !run_(scratch_[0], nullptr, args...);
      return !stopped_;
    }
    if (!Drain(slots_.size() - 1)) return false;
    slots_[published_ % slots_.size()].args = std::tie(args...);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++published_;
    }
    work_cv_.notify_one();
    return Drain(slots_.size());
  }

  /// \brief Replays every remaining job and waits for the workers.
  /// Returns the first failed job's Status (kInternal for an exception),
  /// else OK.
  Status Finish() {
    if (pool_ == nullptr) return Status::OK();
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    work_cv_.notify_all();
    Drain(0);
    pool_->Wait();
    return error_;
  }

 private:
  struct Slot {
    std::tuple<Args...> args;
    Out out;
    bool done = false;  // Guarded by mu_, like keep and error.
    bool keep = true;   // What run returned.
    Status error = Status::OK();
  };

  void Work(size_t worker) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(
          lock, [&] { return stopped_ || claimed_ < published_ || closed_; });
      if (stopped_ || claimed_ == published_) return;
      const size_t job = claimed_++;
      Slot& slot = slots_[job % slots_.size()];
      lock.unlock();
      bool keep = true;
      Status error = RunGuarded([&] {
        keep = std::apply(
            [&](const Args&... args) {
              return run_(scratch_[worker], &slot.out, args...);
            },
            slot.args);
      });
      slot.args = std::tuple<Args...>{};  // Free them: the job is done.
      lock.lock();
      slot.done = true;
      slot.keep = keep;
      slot.error = std::move(error);
      if (job == replayed_) head_cv_.notify_one();
    }
  }

  // Replays completed jobs in order, waiting for them until at most
  // max_pending pushed jobs are unreplayed. False once stopped.
  bool Drain(size_t max_pending) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopped_ && replayed_ < published_) {
      Slot& head = slots_[replayed_ % slots_.size()];
      if (!head.done) {
        if (published_ - replayed_ <= max_pending) break;
        head_cv_.wait(lock, [&] { return head.done; });
      }
      if (!head.error.ok()) {
        error_ = std::move(head.error);
        stopped_ = true;
        break;
      }
      const bool run_kept = head.keep;
      lock.unlock();
      const bool keep = replay_(head.out) && run_kept;
      head.out = Out{};  // Free the buffer as soon as it is replayed.
      lock.lock();
      head.done = false;
      head.keep = true;
      ++replayed_;
      stopped_ = !keep;
    }
    if (stopped_) work_cv_.notify_all();
    return !stopped_;
  }

  const Run run_;
  const Replay replay_;
  std::vector<Scratch> scratch_;  // One per worker.
  std::vector<Slot> slots_;       // The window, a ring indexed by job.
  std::unique_ptr<ThreadPool> own_pool_;
  ThreadPool* pool_ = nullptr;    // Null inline.
  std::mutex mu_;                 // Guards the fields below.
  std::condition_variable work_cv_;  // A job, a stop or the end arrived.
  std::condition_variable head_cv_;  // The next job to replay completed.
  size_t published_ = 0;
  size_t claimed_ = 0;
  size_t replayed_ = 0;
  bool closed_ = false;   // Finish: no more pushes.
  bool stopped_ = false;  // Claim and replay nothing more.
  Status error_ = Status::OK();
};

template <typename Fn>
Status ThreadPool::ParallelForShared(ThreadPool* shared, size_t num_threads,
                                     size_t n, Fn&& fn) {
  struct None {};
  OrderedFanOut<None, None, size_t> fan(
      shared, n > 1 ? num_threads : 1,
      [&fn](None&, None*, const size_t& i) {
        fn(i);
        return true;
      },
      [](None&) { return true; });
  for (size_t i = 0; i < n; ++i) {
    if (!fan.Push(i)) break;
  }
  return fan.Finish();
}

}  // namespace specmine

#endif  // SPECMINE_SUPPORT_THREAD_POOL_H_
