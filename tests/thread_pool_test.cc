// ThreadPool unit tests: result/exception propagation, shutdown-with-queued
// -tasks drain semantics, ordering independence and the serial fallbacks.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sinew {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&ran] {
      ran.fetch_add(1);
      return Status::OK();
    }));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ResultsIndependentOfCompletionOrder) {
  // Tasks finish in scrambled order (earlier tasks sleep longer); each
  // future still resolves to its own task's result.
  ThreadPool pool(4);
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([i] {
      std::this_thread::sleep_for(std::chrono::microseconds((16 - i) * 50));
      if (i % 3 == 0) return Status::InvalidArgument("task ", i);
      return Status::OK();
    }));
  }
  for (int i = 0; i < 16; ++i) {
    Status s = futures[i].get();
    if (i % 3 == 0) {
      EXPECT_TRUE(s.IsInvalidArgument()) << i;
      EXPECT_NE(s.message().find(std::to_string(i)), std::string::npos);
    } else {
      EXPECT_TRUE(s.ok()) << i;
    }
  }
}

TEST(ThreadPoolTest, ErrorStatusPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return Status::NotFound("missing thing"); });
  Status s = f.get();
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_NE(s.message().find("missing thing"), std::string::npos);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> Status { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  // Queue far more tasks than workers, then shut down immediately: every
  // queued task must still run (futures all satisfied, counter complete).
  std::atomic<int> ran{0};
  std::vector<std::future<Status>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      futures.push_back(pool.Submit([&ran] {
        ran.fetch_add(1);
        return Status::OK();
      }));
    }
    pool.Shutdown();
    EXPECT_EQ(ran.load(), 200);
    pool.Shutdown();  // idempotent
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
}

TEST(ThreadPoolTest, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::thread::id ran_on;
  auto f = pool.Submit([&ran_on] {
    ran_on = std::this_thread::get_id();
    return Status::OK();
  });
  EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::thread::id ran_on;
  auto f = pool.Submit([&ran_on] {
    ran_on = std::this_thread::get_id();
    return Status::OK();
  });
  EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, ParallelForCoversEveryElementExactlyOnce) {
  ThreadPool pool(4);
  constexpr uint64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  Status s = pool.ParallelFor(0, kN, 64, 4, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  for (uint64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForDegreeOneRunsInlineInOrder) {
  ThreadPool pool(4);
  std::vector<uint64_t> order;  // no lock needed: inline = caller's thread
  std::thread::id ran_on;
  Status s = pool.ParallelFor(0, 100, 7, 1, [&](uint64_t lo, uint64_t hi) {
    ran_on = std::this_thread::get_id();
    for (uint64_t i = lo; i < hi; ++i) order.push_back(i);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  ASSERT_EQ(order.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstError) {
  ThreadPool pool(4);
  std::atomic<int> chunks_after_error{0};
  std::atomic<bool> error_seen{false};
  Status s = pool.ParallelFor(0, 100000, 16, 4,
                              [&](uint64_t lo, uint64_t) -> Status {
                                if (error_seen.load()) {
                                  chunks_after_error.fetch_add(1);
                                }
                                if (lo == 256) {
                                  // Build the Status before raising the
                                  // flag, so the count measures how fast
                                  // ParallelFor stops, not how long the
                                  // Status takes to construct.
                                  Status failed =
                                      Status::Internal("chunk failed");
                                  error_seen.store(true);
                                  return failed;
                                }
                                return Status::OK();
                              });
  EXPECT_TRUE(s.IsInternal());
  EXPECT_NE(s.message().find("chunk failed"), std::string::npos);
  // Error short-circuits: the vast majority of the 6250 chunks are skipped.
  EXPECT_LT(chunks_after_error.load(), 64);
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleRanges) {
  ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  EXPECT_TRUE(pool.ParallelFor(5, 5, 10, 4, [&](uint64_t, uint64_t) {
                    ADD_FAILURE() << "empty range must not invoke fn";
                    return Status::OK();
                  }).ok());
  EXPECT_TRUE(pool.ParallelFor(7, 8, 10, 4, [&](uint64_t lo, uint64_t hi) {
                    sum.fetch_add(hi - lo);
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(sum.load(), 1u);
}

TEST(ThreadPoolTest, SharedPoolHasAtLeastTwoWorkers) {
  ThreadPool* shared = ThreadPool::Shared();
  ASSERT_NE(shared, nullptr);
  EXPECT_GE(shared->worker_count(), 2u);
  EXPECT_EQ(shared, ThreadPool::Shared());  // singleton
}

}  // namespace
}  // namespace sinew
