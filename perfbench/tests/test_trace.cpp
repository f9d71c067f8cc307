// Tests for the benchmark's span recorder (src/trace.hpp).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "trace.hpp"

namespace {

using perfbench::Tracer;

void spin(double s) {
  const double until = perfbench::now_s() + s;
  while (perfbench::now_s() < until) {
  }
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t(false);
  { Tracer::Scope s(t, "core.call"); }
  EXPECT_TRUE(t.spans().empty());
}

TEST(Tracer, NestedSpansCarryParentAndRequest) {
  Tracer t(true);
  {
    Tracer::Scope outer(t, "bench.unit", 7);
    Tracer::Scope inner(t, "core.call", 7);
  }
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  const auto& inner = spans[0];  // closes first
  const auto& outer = spans[1];
  EXPECT_STREQ(inner.name, "core.call");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.request, 7u);
  EXPECT_LE(outer.start_s, inner.start_s);
  EXPECT_GE(outer.end_s, inner.end_s);
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer t(true);
  {
    Tracer::Scope outer(t, "bench.unit");
    spin(0.002);
    {
      Tracer::Scope inner(t, "core.call");
      spin(0.004);
    }
  }
  const auto layers = t.layer_times();
  ASSERT_EQ(layers.count("bench"), 1u);
  ASSERT_EQ(layers.count("core"), 1u);
  const auto& bench = layers.at("bench");
  const auto& core = layers.at("core");
  EXPECT_NEAR(bench.total_s, bench.self_s + core.total_s, 1e-9);
  EXPECT_GE(core.self_s, 0.004);
  EXPECT_GE(bench.self_s, 0.002);
  EXPECT_LT(bench.self_s, core.self_s);
}

TEST(Tracer, SpansOnOtherThreadsAreRoots) {
  Tracer t(true);
  Tracer::Scope outer(t, "bench.unit");
  std::thread([&] { Tracer::Scope s(t, "serve.send"); }).join();
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent, 0u);
}

TEST(Tracer, WritesChromeTraceEvents) {
  Tracer t(true);
  { Tracer::Scope s(t, "mining.matrix_profile", 3); }
  const std::string path = testing::TempDir() + "perfbench_trace.json";
  ASSERT_TRUE(t.write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mining.matrix_profile\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"mining\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"request\":3"), std::string::npos);
}

}  // namespace
