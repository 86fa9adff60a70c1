// Tracer contract: inactive emits are free no-ops, active emits buffer
// complete/instant events, and write_json produces the Chrome
// trace-event shape (`sweep_report validate trace` parses the same
// fields).
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/table.h"

namespace sprout {
namespace {

// The tracer is a process-wide singleton shared with every other test in
// this binary; each test starts from a clean stopped state.
class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().stop();
    obs::Tracer::instance().reset();
  }
  void TearDown() override {
    obs::Tracer::instance().stop();
    obs::Tracer::instance().reset();
  }
};

TEST_F(ObsTrace, InactiveEmitsAreDropped) {
  obs::Tracer& t = obs::Tracer::instance();
  EXPECT_FALSE(t.active());
  t.instant("ignored", "test", 0);
  t.complete("ignored", "test", 0, 10, 0);
  { obs::Span span("ignored-span", "test"); }
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_EQ(t.now_us(), 0);
}

TEST_F(ObsTrace, ActiveEmitsBuffer) {
  obs::Tracer& t = obs::Tracer::instance();
  t.start();
  t.instant("mark", "test", 3);
  t.complete("work", "test", 5, 10, 1);
  { obs::Span span("scoped", "test"); }
  EXPECT_EQ(t.event_count(), 3u);
}

TEST_F(ObsTrace, WriteJsonIsChromeTraceShapedAndDrainsBuffer) {
  obs::Tracer& t = obs::Tracer::instance();
  t.start();
  t.complete("cell 0", "cell", 100, 250, 2);
  t.instant("retry cell 1", "fault", 0);
  std::ostringstream os;
  t.write_json(os);
  EXPECT_EQ(t.event_count(), 0u);  // drained

  const JsonValue doc = JsonValue::parse(os.str());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  const JsonValue& span = events[0];
  EXPECT_EQ(span.at("name").as_string(), "cell 0");
  EXPECT_EQ(span.at("cat").as_string(), "cell");
  EXPECT_EQ(span.at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(span.at("ts").as_number(), 100.0);
  EXPECT_DOUBLE_EQ(span.at("dur").as_number(), 250.0);
  EXPECT_DOUBLE_EQ(span.at("pid").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(span.at("tid").as_number(), 2.0);
  const JsonValue& instant = events[1];
  EXPECT_EQ(instant.at("ph").as_string(), "i");
  EXPECT_FALSE(instant.has("dur"));
}

TEST_F(ObsTrace, TimestampsAdvanceFromStart) {
  obs::Tracer& t = obs::Tracer::instance();
  t.start();
  const std::int64_t a = t.now_us();
  EXPECT_GE(a, 0);
  EXPECT_GE(t.now_us(), a);  // monotone
}

TEST_F(ObsTrace, LanesAreSmallAndStablePerThread) {
  const std::int64_t lane = obs::Tracer::current_lane();
  EXPECT_GE(lane, 0);
  EXPECT_EQ(obs::Tracer::current_lane(), lane);
}

// Concurrent emission: the thread-pool sweep path has every worker emit
// spans into the shared buffer.  No event may be lost or corrupted, each
// thread keeps one stable dense lane, and the drained JSON must still
// parse as Chrome trace shape.  (Runs under the ASan/TSan CI jobs, which
// is where a data race in the buffer or the lane table would surface.)
TEST_F(ObsTrace, ConcurrentSpanEmissionKeepsLanesAndEvents) {
  obs::Tracer& t = obs::Tracer::instance();
  t.start();

  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::int64_t> lane_of_thread(kThreads, -1);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i, &lane_of_thread] {
      const std::int64_t lane = obs::Tracer::current_lane();
      lane_of_thread[static_cast<std::size_t>(i)] = lane;
      std::string name = "t";
      name += std::to_string(i);
      for (int s = 0; s < kSpansPerThread; ++s) {
        // Lane must stay stable across every emit from this thread.
        ASSERT_EQ(obs::Tracer::current_lane(), lane);
        obs::Span span(name.c_str(), "mt");
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(t.event_count(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);

  std::ostringstream os;
  t.write_json(os);
  const JsonValue doc = JsonValue::parse(os.str());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kSpansPerThread);

  // Dense lane assignment: each thread owns exactly one lane, no two
  // threads share one, and every event landed on its emitter's lane.
  std::set<std::int64_t> lanes(lane_of_thread.begin(), lane_of_thread.end());
  EXPECT_EQ(lanes.size(), static_cast<std::size_t>(kThreads));
  for (const std::int64_t lane : lanes) EXPECT_GE(lane, 0);
  for (const JsonValue& e : events) {
    ASSERT_EQ(e.at("ph").as_string(), "X");
    ASSERT_EQ(e.at("cat").as_string(), "mt");
    const std::string name = e.at("name").as_string();
    ASSERT_EQ(name.size(), 2u);
    const int emitter = name[1] - '0';
    ASSERT_GE(emitter, 0);
    ASSERT_LT(emitter, kThreads);
    ASSERT_EQ(static_cast<std::int64_t>(e.at("tid").as_number()),
              lane_of_thread[static_cast<std::size_t>(emitter)]);
  }
}

TEST_F(ObsTrace, StopPreservesBufferUntilReset) {
  obs::Tracer& t = obs::Tracer::instance();
  t.start();
  t.instant("mark", "test", 0);
  t.stop();
  EXPECT_EQ(t.event_count(), 1u);  // stop() arms down, keeps the buffer
  t.instant("after-stop", "test", 0);
  EXPECT_EQ(t.event_count(), 1u);
  t.reset();
  EXPECT_EQ(t.event_count(), 0u);
}

}  // namespace
}  // namespace sprout
