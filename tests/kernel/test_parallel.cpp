/// \file test_parallel.cpp
/// \brief The campaign loop's building blocks: `parallel_map` returns the
/// same results, and rethrows the same error, for any job count;
/// `shard_range` partitions contiguously.
/// These tests also run under TSan (tools/ci_analysis.sh stage 7).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel.hpp"

namespace {

using mcps::sim::parallel_map;
using mcps::sim::shard_range;

// ---- parallel_map ------------------------------------------------------

TEST(ParallelMap, ResultsInIndexOrderForAnyJobs) {
    for (const unsigned jobs : {1u, 2u, 4u, 16u}) {
        for (const std::size_t n : {0u, 1u, 3u, 17u, 100u}) {
            const std::vector<std::size_t> out = parallel_map(
                n, jobs, [](std::size_t i) { return i * i + 7; });
            ASSERT_EQ(out.size(), n) << "jobs " << jobs;
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(out[i], i * i + 7) << "jobs " << jobs << " n " << n;
            }
        }
    }
}

TEST(ParallelMap, RunsEveryIndexOnceOnAtMostOneThreadPerIndex) {
    for (const unsigned jobs : {1u, 2u, 4u, 16u}) {
        for (const std::size_t n : {0u, 3u, 40u}) {
            std::vector<std::atomic<int>> hits(n);
            std::mutex mu;
            std::set<std::thread::id> threads;
            (void)parallel_map(n, jobs, [&](std::size_t i) {
                ++hits[i];
                const std::lock_guard<std::mutex> lk{mu};
                threads.insert(std::this_thread::get_id());
                return 0;
            });
            for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
            EXPECT_LE(threads.size(), std::min<std::size_t>(jobs, n));
        }
    }
}

TEST(ParallelMap, SerialRunsInlineOnTheCallersThread) {
    const auto caller = std::this_thread::get_id();
    for (const unsigned jobs : {0u, 1u}) {
        const auto ids = parallel_map(
            5, jobs, [](std::size_t) { return std::this_thread::get_id(); });
        for (const auto& id : ids) EXPECT_EQ(id, caller);
    }
    // One index never starts a thread, whatever the job count.
    const auto one = parallel_map(
        1, 16, [](std::size_t) { return std::this_thread::get_id(); });
    EXPECT_EQ(one.front(), caller);
}

TEST(ParallelMap, RethrowsLowestFailingIndexOnEveryRepeat) {
    // Index 3 throws late and index 7 early, so "first error to finish"
    // would usually report 7; the contract is the lowest index, 3.
    for (int repeat = 0; repeat < 20; ++repeat) {
        std::vector<std::atomic<int>> hits(16);
        std::string what;
        try {
            (void)parallel_map(16, 4, [&hits](std::size_t i) {
                ++hits[i];
                if (i == 3) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(2));
                    throw std::runtime_error{"index 3"};
                }
                if (i == 7) throw std::runtime_error{"index 7"};
                return i;
            });
        } catch (const std::runtime_error& e) {
            what = e.what();
        }
        EXPECT_EQ(what, "index 3") << "repeat " << repeat;
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "repeat " << repeat;
    }
}

// ---- shard_range -------------------------------------------------------

TEST(ShardRange, PartitionsContiguouslyAndCompletely) {
    for (const std::size_t items : {0u, 1u, 7u, 64u, 65u}) {
        for (const std::size_t shards : {1u, 3u, 8u, 64u}) {
            std::size_t expect_first = 0;
            for (std::size_t s = 0; s < shards; ++s) {
                const auto r = shard_range(items, shards, s);
                EXPECT_EQ(r.first, expect_first);
                EXPECT_LE(r.first, r.last);
                expect_first = r.last;
            }
            EXPECT_EQ(expect_first, items);
        }
    }
}

}  // namespace
