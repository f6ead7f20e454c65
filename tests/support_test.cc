// Unit tests for src/support: Status/Result, RNG & samplers, strings,
// stopwatch, thread pool error capture, the ordered fan-out, fault
// injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/support/fault_injection.h"
#include "src/support/random.h"
#include "src/support/status.h"
#include "src/support/stopwatch.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace specmine {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::IOError("io").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotFound("nf").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ParseError("pe").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::OutOfRange("oor").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("int").code(), StatusCode::kInternal);
  Status s = Status::InvalidArgument("threshold must be positive");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "threshold must be positive");
  EXPECT_EQ(s.ToString(), "InvalidArgument: threshold must be positive");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::IOError("x"), Status::IOError("x"));
  EXPECT_FALSE(Status::IOError("x") == Status::IOError("y"));
  EXPECT_FALSE(Status::IOError("x") == Status::NotFound("x"));
}

TEST(ResultTest, HoldsValueOnSuccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsStatusOnFailure) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, TakeValueMovesOut) {
  Result<std::string> r(std::string("payload"));
  ASSERT_TRUE(r.ok());
  std::string v = r.TakeValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(ReturnNotOkMacroTest, PropagatesErrors) {
  auto fails = []() { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    SPECMINE_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(SplitMix64Test, DeterministicAndDistinct) {
  SplitMix64 a(1234567), b(1234567), c(7654321);
  uint64_t a1 = a.Next();
  uint64_t a2 = a.Next();
  EXPECT_EQ(a1, b.Next());
  EXPECT_EQ(a2, b.Next());
  EXPECT_NE(a1, a2);
  EXPECT_NE(a1, c.Next());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(99), b(99), c(100);
  bool all_equal = true;
  bool any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next64();
    uint64_t vb = b.Next64();
    uint64_t vc = c.Next64();
    all_equal = all_equal && (va == vb);
    any_diff_c = any_diff_c || (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformCoversAllResidues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(21);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequencyNearP) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  double freq = static_cast<double>(hits) / n;
  EXPECT_NEAR(freq, 0.3, 0.02);
}

TEST(RngTest, PoissonMeanIsClose) {
  Rng rng(11);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.Poisson(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.1 + 0.1) << "mean=" << mean;
  }
}

TEST(RngTest, GeometricMeanIsClose) {
  Rng rng(13);
  const double p = 0.25;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Geometric(p);
  // Mean of failures-before-success is (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.25);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfSamplerTest, UniformWhenExponentZero) {
  Rng rng(23);
  ZipfSampler zipf(4, 0.0);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.02);
  }
}

TEST(ZipfSamplerTest, SkewFavoursLowRanks) {
  Rng rng(29);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(ZipfSamplerTest, SingleElement) {
  Rng rng(31);
  ZipfSampler zipf(1, 1.5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(&rng), 0u);
}

TEST(StopwatchTest, ReportsNonNegativeMonotonicTime) {
  Stopwatch sw;
  int64_t a = sw.ElapsedNanos();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  int64_t b = sw.ElapsedNanos();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  sw.Restart();
  EXPECT_LT(sw.ElapsedNanos(), b);
}

TEST(StringsTest, SplitAndTrimDropsEmptyFields) {
  auto out = SplitAndTrim("  a  b   c ", ' ');
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[1], "b");
  EXPECT_EQ(out[2], "c");
  EXPECT_TRUE(SplitAndTrim("", ' ').empty());
  EXPECT_TRUE(SplitAndTrim("   ", ' ').empty());
}

TEST(StringsTest, SplitOnCommas) {
  auto out = SplitAndTrim("x, y,,z", ',');
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "x");
  EXPECT_EQ(out[1], "y");
  EXPECT_EQ(out[2], "z");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("  \t "), "");
  EXPECT_EQ(StripWhitespace("no-op"), "no-op");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("TxManager.begin", "TxManager"));
  EXPECT_FALSE(StartsWith("Tx", "TxManager"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(64);
  Status s = ThreadPool::ParallelFor(4, hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_TRUE(s.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// The regression the fault-tolerance work pins down: an exception escaping
// a task body (a misbehaving user callback on a worker thread) becomes a
// kInternal Status from the fan-out instead of std::terminate.
TEST(ThreadPoolTest, TaskExceptionBecomesInternalStatus) {
  Status s = ThreadPool::ParallelFor(3, 16, [](size_t i) {
    if (i == 7) throw std::runtime_error("sink blew up");
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("sink blew up"), std::string::npos);
}

TEST(ThreadPoolTest, ErrorDoesNotLeakIntoTheNextFanOut) {
  ThreadPool pool(2);
  Status first = ThreadPool::ParallelForShared(&pool, 2, 4, [](size_t i) {
    if (i == 0) throw std::runtime_error("once");
  });
  EXPECT_EQ(first.code(), StatusCode::kInternal);
  Status second = ThreadPool::ParallelForShared(&pool, 2, 4, [](size_t) {});
  EXPECT_TRUE(second.ok());  // The earlier error does not leak forward.
}

TEST(ThreadPoolTest, NonExceptionThrowIsStillCaught) {
  Status s = ThreadPool::ParallelFor(2, 4, [](size_t i) {
    if (i == 1) throw 42;  // Not derived from std::exception.
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// OrderedFanOut: jobs take a job number, buffer it as their output, and
// the replay step records the order it sees.

using JobFanOut = OrderedFanOut<int, size_t, size_t>;

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(OrderedFanOutTest, ReplaysInJobOrderWhenLaterJobsFinishFirst) {
  constexpr size_t kJobs = 200;
  std::atomic<size_t> finished{0};
  std::atomic<bool> overtaken{false};
  std::vector<size_t> replayed;
  JobFanOut fan(
      nullptr, 4,
      [&](int&, size_t* out, const size_t& job) {
        if (job == 0) {
          // Hold the head until three later jobs have completed.
          for (int spins = 0; finished.load() < 3 && spins < 10000; ++spins) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          overtaken = finished.load() >= 3;
        }
        *out = job;
        ++finished;
        return true;
      },
      [&](size_t& out) {
        replayed.push_back(out);
        return true;
      });
  for (size_t i = 0; i < kJobs; ++i) ASSERT_TRUE(fan.Push(i));
  ASSERT_TRUE(fan.Finish().ok());
  EXPECT_TRUE(overtaken.load());
  EXPECT_EQ(replayed, Iota(kJobs));
}

TEST(OrderedFanOutTest, NeverExceedsItsWindow) {
  constexpr size_t kThreads = 3;
  constexpr size_t kWindow = JobFanOut::kWindowPerWorker * kThreads;
  std::atomic<size_t> replayed{0};
  std::atomic<size_t> running{0};
  std::atomic<size_t> max_running{0};
  std::atomic<size_t> max_seen_by_jobs{0};
  JobFanOut fan(
      nullptr, kThreads,
      [&](int&, size_t*, const size_t& job) {
        const size_t now = ++running;
        size_t seen = max_running.load();
        while (now > seen && !max_running.compare_exchange_weak(seen, now)) {
        }
        // Job `job` is pushed, so at least job + 1 - replayed jobs are.
        const size_t outstanding = job + 1 - replayed.load();
        seen = max_seen_by_jobs.load();
        while (outstanding > seen &&
               !max_seen_by_jobs.compare_exchange_weak(seen, outstanding)) {
        }
        // A slow head lets the producer run into the window's bound.
        if (job % 500 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        --running;
        return true;
      },
      [&](size_t&) {
        ++replayed;
        return true;
      });
  size_t max_outstanding = 0;
  for (size_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(fan.Push(i));
    max_outstanding = std::max(max_outstanding, i + 1 - replayed.load());
  }
  ASSERT_TRUE(fan.Finish().ok());
  EXPECT_EQ(replayed.load(), 2000u);
  EXPECT_EQ(max_outstanding, kWindow);  // Reached, never passed.
  EXPECT_LE(max_seen_by_jobs.load(), kWindow);
  EXPECT_LE(max_running.load(), kThreads);
}

TEST(OrderedFanOutTest, StoppedReplayStopsTheProducer) {
  std::vector<size_t> replayed;
  JobFanOut fan(
      nullptr, 4,
      [](int&, size_t* out, const size_t& job) {
        *out = job;
        return true;
      },
      [&](size_t& out) {
        replayed.push_back(out);
        return out != 5;
      });
  size_t pushed = 0;
  while (pushed < 100000 && fan.Push(pushed)) ++pushed;
  EXPECT_TRUE(fan.Finish().ok());
  EXPECT_EQ(replayed, Iota(6));
  EXPECT_LE(pushed, 6 + JobFanOut::kWindowPerWorker * 4);
}

TEST(OrderedFanOutTest, JobReturningFalseIsTheLastReplayed) {
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::vector<size_t> delivered;
    JobFanOut fan(
        nullptr, threads,
        [&](int&, size_t* out, const size_t& job) {
          if (out == nullptr) {
            delivered.push_back(job);  // Inline: the job delivers itself.
          } else {
            *out = job;
          }
          return job != 9;
        },
        [&](size_t& out) {
          delivered.push_back(out);
          return true;
        });
    size_t pushed = 0;
    while (pushed < 100000 && fan.Push(pushed)) ++pushed;
    EXPECT_TRUE(fan.Finish().ok());
    EXPECT_EQ(delivered, Iota(10));
  }
}

TEST(OrderedFanOutTest, ThrowingJobReplaysOnlyTheCompletedPrefix) {
  std::vector<size_t> replayed;
  JobFanOut fan(
      nullptr, 4,
      [](int&, size_t* out, const size_t& job) {
        if (job == 7) throw std::runtime_error("job 7 blew up");
        *out = job;
        return true;
      },
      [&](size_t& out) {
        replayed.push_back(out);
        return true;
      });
  for (size_t i = 0; i < 1000; ++i) {
    if (!fan.Push(i)) break;
  }
  Status s = fan.Finish();
  ASSERT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("job 7 blew up"), std::string::npos);
  EXPECT_EQ(replayed, Iota(7));
}

TEST(OrderedFanOutTest, ArmedTaskFaultReplaysNothing) {
  FaultInjector::Instance().ArmThrow("thread_pool.task", 0);
  std::vector<size_t> replayed;
  JobFanOut fan(
      nullptr, 2, [](int&, size_t*, const size_t&) { return true; },
      [&](size_t& out) {
        replayed.push_back(out);
        return true;
      });
  for (size_t i = 0; i < 100; ++i) {
    if (!fan.Push(i)) break;
  }
  Status s = fan.Finish();
  FaultInjector::Instance().DisarmAll();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_TRUE(replayed.empty());
}

TEST(OrderedFanOutTest, OneThreadRunsEveryJobInlineUnbuffered) {
  const std::thread::id caller = std::this_thread::get_id();
  size_t ran = 0;
  bool inline_only = true;
  size_t replays = 0;
  JobFanOut fan(
      nullptr, 1,
      [&](int&, size_t* out, const size_t&) {
        inline_only = inline_only && out == nullptr &&
                      std::this_thread::get_id() == caller;
        ++ran;
        return true;
      },
      [&](size_t&) {
        ++replays;
        return true;
      });
  for (size_t i = 0; i < 50; ++i) ASSERT_TRUE(fan.Push(i));
  EXPECT_TRUE(fan.Finish().ok());
  EXPECT_EQ(ran, 50u);
  EXPECT_TRUE(inline_only);
  EXPECT_EQ(replays, 0u);
}

TEST(FaultInjectionTest, UnarmedSiteIsFree) {
  EXPECT_TRUE(CheckFault("support_test.nowhere").ok());
}

TEST(FaultInjectionTest, CountdownFiresOnTheNthCall) {
  ScopedFault fault("support_test.site", 2, Status::IOError("injected"));
  EXPECT_TRUE(CheckFault("support_test.site").ok());
  EXPECT_TRUE(CheckFault("support_test.site").ok());
  Status hit = CheckFault("support_test.site");
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(hit.code(), StatusCode::kIOError);
  EXPECT_NE(hit.message().find("injected"), std::string::npos);
}

TEST(FaultInjectionTest, DisarmAllRestoresTheFastPath) {
  FaultInjector::Instance().Arm("support_test.other", 0,
                                Status::IOError("boom"));
  FaultInjector::Instance().DisarmAll();
  EXPECT_TRUE(CheckFault("support_test.other").ok());
}

TEST(FaultInjectionTest, ArmedThrowSurfacesThroughThePool) {
  FaultInjector::Instance().ArmThrow("thread_pool.task", 0);
  Status s = ThreadPool::ParallelFor(2, 8, [](size_t) {});
  FaultInjector::Instance().DisarmAll();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace specmine
