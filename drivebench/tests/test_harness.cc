// Unit tests for the benchmark's own arithmetic: span self times,
// trace summaries, quantiles, and the digest gates.
#include <gtest/gtest.h>

#include <vector>

#include "harness.h"

namespace drivebench {
namespace {

TEST(SelfTimes, LeafSpanKeepsItsDuration) {
  const std::vector<Span> s = {{"a", 1.0, 3.5, -1}};
  const auto self = self_times(s);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_DOUBLE_EQ(self[0], 2.5);
}

TEST(SelfTimes, ParentLosesDisjointChildren) {
  const std::vector<Span> s = {
      {"root", 0.0, 10.0, -1},
      {"a", 1.0, 3.0, 0},
      {"b", 5.0, 6.0, 0},
  };
  const auto self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 7.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  // Children on other threads may overlap; the parent loses their union.
  const std::vector<Span> s = {
      {"root", 0.0, 10.0, -1},
      {"a", 1.0, 4.0, 0},
      {"b", 3.0, 5.0, 0},
      {"c", 4.5, 4.8, 0},
  };
  EXPECT_DOUBLE_EQ(self_times(s)[0], 6.0);
}

TEST(SelfTimes, ChildOutsideParentIsClipped) {
  const std::vector<Span> s = {
      {"root", 2.0, 4.0, -1},
      {"a", 1.0, 3.0, 0},
  };
  EXPECT_DOUBLE_EQ(self_times(s)[0], 1.0);
}

TEST(SelfTimes, GrandchildrenChargeOnlyTheirParent) {
  const std::vector<Span> s = {
      {"root", 0.0, 10.0, -1},
      {"a", 0.0, 6.0, 0},
      {"a.x", 1.0, 5.0, 1},
  };
  const auto self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0);
}

TEST(SpanLog, NestsByScope) {
  SpanLog log;
  {
    Scope root(&log, "root");
    { Scope a(&log, "a"); }
    { Scope b(&log, "b"); }
  }
  const auto& s = log.spans();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_LE(s[1].end, s[2].start);
  EXPECT_LE(s[2].end, s[0].end);
}

TEST(SpanLog, NullLogRecordsNothing) {
  Scope off(nullptr, "x");  // the spans-off pass: must be a no-op
  SUCCEED();
}

TEST(TraceSummary, CoverageIsNamedSelfOverRootTime) {
  std::vector<SpanLog> logs(1);
  // Build spans by hand through the public recorder would depend on the
  // clock; feed a summary from fixed spans instead.
  const std::vector<Span> s = {
      {"worker", 0.0, 10.0, -1},
      {"probe", 0.0, 4.0, 0},
      {"recon.stream", 4.0, 9.0, 0},
  };
  const auto self = self_times(s);
  double covered = 0.0;
  for (std::size_t i = 1; i < s.size(); ++i) covered += self[i];
  EXPECT_DOUBLE_EQ(covered / (s[0].end - s[0].start), 0.9);

  TraceSummary sum;
  {
    Scope root(&logs[0], "worker");
    Scope child(&logs[0], "probe");
  }
  sum.add(logs);
  EXPECT_GT(sum.root_s, 0.0);
  EXPECT_GE(sum.coverage(), 0.0);
  EXPECT_LE(sum.coverage(), 1.0);
  EXPECT_EQ(sum.self_s.count("probe"), 1u);
  EXPECT_EQ(sum.self_s.count("worker"), 0u);  // roots are traced time
}

TEST(Quantile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9), 5);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0);
}

TEST(DigestLog, PinnedDigestMustMatch) {
  DigestLog log;
  log.add(0xf94c66488def6938ULL, 1);
  EXPECT_EQ(log.failed(kGoldenDigest), 0);
  log.add(0xf94c66488def6939ULL, 1);
  EXPECT_EQ(log.failed(kGoldenDigest), 1);
}

TEST(DigestLog, MismatchesAndThrowsCountTheirOperations) {
  DigestLog log;
  log.add(kShardSplitDigest, 10);  // a sharded pass vouches for its shards
  log.add(kShardSplitDigest ^ 1, 10);
  log.threw = 10;  // a pass that threw
  EXPECT_EQ(log.total(), 30);
  EXPECT_EQ(log.failed(kShardSplitDigest), 20);
  log.got[1] = kShardSplitDigest;
  log.threw = 0;
  EXPECT_EQ(log.failed(kShardSplitDigest), 0);
}

TEST(Result, JsonCarriesEveryMetricWithItsUnit) {
  Result r;
  r.attempted = 3;
  r.failed = 1;
  r.correct = false;
  r.add("latency_ms", 1.25, "ms");
  r.add("rate", 0.0 / 0.0, "1/s");
  EXPECT_EQ(r.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"rate\": "
            "{\"value\": 0, \"unit\": \"1/s\"}}}");
}

}  // namespace
}  // namespace drivebench
