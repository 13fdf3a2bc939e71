/// \file test_admission.cpp
/// \brief AdmissionQueue unit tests: priority order, FIFO within class,
/// shed-the-lowest policy, rejection, drain-close semantics, and the
/// blocking pop() the server's workers wait in.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/admission.hpp"

namespace {

using namespace mcps::serve;
using Queue = AdmissionQueue<std::string>;
using Outcome = Queue::Outcome;

TEST(Admission, PopsHighestClassFifoWithinClass) {
    Queue q{8};
    EXPECT_EQ(q.offer("b1", QosClass::kBatch).outcome, Outcome::kAdmitted);
    EXPECT_EQ(q.offer("i1", QosClass::kInteractive).outcome,
              Outcome::kAdmitted);
    EXPECT_EQ(q.offer("c1", QosClass::kClinical).outcome,
              Outcome::kAdmitted);
    EXPECT_EQ(q.offer("c2", QosClass::kClinical).outcome,
              Outcome::kAdmitted);
    EXPECT_EQ(q.size(), 4u);

    q.close();  // pop() on an empty closed queue returns instead of blocking
    EXPECT_EQ(q.pop()->first, "c1");
    EXPECT_EQ(q.pop()->first, "c2");
    EXPECT_EQ(q.pop()->first, "i1");
    auto last = q.pop();
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->first, "b1");
    EXPECT_EQ(last->second, QosClass::kBatch);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(Admission, ShedsNewestOfLowestClassBelowArrival) {
    Queue q{3};
    (void)q.offer("b1", QosClass::kBatch);
    (void)q.offer("b2", QosClass::kBatch);
    (void)q.offer("i1", QosClass::kInteractive);

    // Full. A clinical arrival displaces the newest batch job.
    const auto shed = q.offer("c1", QosClass::kClinical);
    EXPECT_EQ(shed.outcome, Outcome::kShed);
    ASSERT_TRUE(shed.victim.has_value());
    EXPECT_EQ(*shed.victim, "b2");
    EXPECT_EQ(*shed.victim_class, QosClass::kBatch);
    EXPECT_EQ(q.size(), 3u);

    // Another clinical arrival: b1 goes next.
    const auto shed2 = q.offer("c2", QosClass::kClinical);
    EXPECT_EQ(shed2.outcome, Outcome::kShed);
    EXPECT_EQ(*shed2.victim, "b1");

    // Batch exhausted: now interactive is the lowest class below.
    const auto shed3 = q.offer("c3", QosClass::kClinical);
    EXPECT_EQ(shed3.outcome, Outcome::kShed);
    EXPECT_EQ(*shed3.victim, "i1");

    // Only clinical left: a clinical arrival cannot displace its own
    // class and is rejected.
    EXPECT_EQ(q.offer("c4", QosClass::kClinical).outcome,
              Outcome::kRejected);

    q.close();
    EXPECT_EQ(q.pop()->first, "c1");
    EXPECT_EQ(q.pop()->first, "c2");
    EXPECT_EQ(q.pop()->first, "c3");
    EXPECT_FALSE(q.pop().has_value());
}

TEST(Admission, EqualOrLowerClassNeverSheds) {
    Queue q{2};
    (void)q.offer("i1", QosClass::kInteractive);
    (void)q.offer("i2", QosClass::kInteractive);
    EXPECT_EQ(q.offer("i3", QosClass::kInteractive).outcome,
              Outcome::kRejected);
    EXPECT_EQ(q.offer("b1", QosClass::kBatch).outcome, Outcome::kRejected);
    EXPECT_EQ(q.size(), 2u);
}

TEST(Admission, CloseRefusesNewButDrainsExisting) {
    Queue q{4};
    (void)q.offer("i1", QosClass::kInteractive);
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(q.offer("i2", QosClass::kInteractive).outcome,
              Outcome::kClosed);
    EXPECT_EQ(q.offer("c1", QosClass::kClinical).outcome, Outcome::kClosed);
    auto drained = q.pop();
    ASSERT_TRUE(drained.has_value());
    EXPECT_EQ(drained->first, "i1");
    EXPECT_FALSE(q.pop().has_value());
}

TEST(Admission, DepthTracksPerClass) {
    Queue q{8};
    (void)q.offer("c1", QosClass::kClinical);
    (void)q.offer("b1", QosClass::kBatch);
    (void)q.offer("b2", QosClass::kBatch);
    EXPECT_EQ(q.depth(QosClass::kClinical), 1u);
    EXPECT_EQ(q.depth(QosClass::kInteractive), 0u);
    EXPECT_EQ(q.depth(QosClass::kBatch), 2u);
    q.close();
    (void)q.pop();
    EXPECT_EQ(q.depth(QosClass::kClinical), 0u);
    EXPECT_EQ(q.size(), 2u);
}

TEST(Admission, PopBlocksUntilAnOfferArrives) {
    Queue q{4};
    std::atomic<bool> returned{false};
    std::optional<std::pair<std::string, QosClass>> got;
    std::thread worker{[&] {
        got = q.pop();
        returned = true;
    }};
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(returned.load()) << "pop() returned on an empty open queue";
    EXPECT_EQ(q.offer("c1", QosClass::kClinical).outcome, Outcome::kAdmitted);
    worker.join();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->first, "c1");
    EXPECT_EQ(got->second, QosClass::kClinical);
    EXPECT_EQ(q.size(), 0u);
}

TEST(Admission, PopReturnsNulloptAfterCloseOnceDrained) {
    Queue q{4};
    // Workers blocked on an empty queue all wake on close().
    std::vector<std::thread> idle;
    std::atomic<int> ended{0};
    for (int i = 0; i < 3; ++i) {
        idle.emplace_back([&] {
            if (!q.pop().has_value()) ++ended;
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    for (std::thread& t : idle) t.join();
    EXPECT_EQ(ended.load(), 3);

    // Admitted jobs drain first; only then does pop() report the end.
    Queue r{4};
    (void)r.offer("b1", QosClass::kBatch);
    (void)r.offer("i1", QosClass::kInteractive);
    r.close();
    EXPECT_EQ(r.pop()->first, "i1");
    EXPECT_EQ(r.pop()->first, "b1");
    EXPECT_FALSE(r.pop().has_value());
    EXPECT_FALSE(r.pop().has_value());
}

}  // namespace
