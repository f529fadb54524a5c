// ParallelSweep: N independent kernels across a thread pool must give
// results bit-identical to a serial loop -- transcripts, stats, and end
// times -- because every sweep point owns a private deterministic
// kernel.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "hlcs/osss/osss.hpp"
#include "hlcs/sim/sim.hpp"

namespace {

using namespace hlcs;
using namespace hlcs::sim::literals;

/// A contention scenario whose schedule depends on the sweep index.
void scenario(std::size_t index, sim::Kernel& k, std::string& transcript) {
  const int clients = static_cast<int>(index % 5) + 1;
  sim::Clock clk(k, "clk", 10_ns);
  osss::SharedObject<std::uint64_t> obj(
      k, "obj", clk, osss::make_policy(osss::PolicyKind::RoundRobin), 0);
  auto* tr = &transcript;
  for (int c = 0; c < clients; ++c) {
    auto client = obj.make_client("c" + std::to_string(c));
    k.spawn("p" + std::to_string(c), [&k, client, c, tr]() -> sim::Task {
      for (;;) {
        co_await client.call([c, tr](std::uint64_t& v) {
          ++v;
          tr->push_back(static_cast<char>('a' + c));
        });
      }
    });
  }
  k.run_for(sim::Time::ns(10 * (20 + index)));
}

TEST(ParallelSweep, SerialAndThreadedBitIdentical) {
  sim::ParallelSweep sweep(scenario);
  const std::size_t kPoints = 12;
  auto serial = sweep.run(kPoints, 1);
  auto threaded = sweep.run(kPoints, 4);
  ASSERT_EQ(serial.size(), kPoints);
  ASSERT_EQ(threaded.size(), kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    EXPECT_EQ(serial[i].index, i);
    EXPECT_EQ(threaded[i].index, i);
    EXPECT_EQ(serial[i].transcript, threaded[i].transcript) << "point " << i;
    EXPECT_TRUE(serial[i].stats == threaded[i].stats) << "point " << i;
    EXPECT_EQ(serial[i].end_time, threaded[i].end_time) << "point " << i;
    EXPECT_FALSE(serial[i].transcript.empty());
  }
}

TEST(ParallelSweep, DefaultThreadCountMatchesSerial) {
  sim::ParallelSweep sweep(scenario);
  auto serial = sweep.run(6, 1);
  auto pooled = sweep.run(6, 0);  // hardware concurrency
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(serial[i].transcript, pooled[i].transcript);
  }
}

TEST(ParallelSweep, ZeroPointsIsEmpty) {
  sim::ParallelSweep sweep(scenario);
  EXPECT_TRUE(sweep.run(0, 4).empty());
}

TEST(ParallelSweep, ScenarioExceptionPropagates) {
  std::atomic<int> completed{0};
  sim::ParallelSweep sweep(
      [&](std::size_t i, sim::Kernel& k, std::string& transcript) {
        if (i == 3) throw std::runtime_error("sweep point exploded");
        k.spawn("p", [&k]() -> sim::Task { co_await k.wait(1_ns); });
        k.run();
        transcript = "ok";
        completed.fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_THROW(sweep.run(8, 4), std::runtime_error);
  // All non-throwing points still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 7);
}

TEST(ParallelForIndexed, PropagatesTheLowestIndexError) {
  // Every index from 1 up throws; whichever worker fails first, every
  // index still runs and the rethrown error is index 1's.
  std::atomic<int> ran{0};
  try {
    sim::parallel_for_indexed(4, 3, [&](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i >= 1) throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 1");
  }
  EXPECT_EQ(ran.load(), 4);
}

TEST(ParallelSweep, MoreThreadsThanPointsIsFine) {
  sim::ParallelSweep sweep(scenario);
  auto r = sweep.run(2, 16);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_FALSE(r[0].transcript.empty());
}

}  // namespace
