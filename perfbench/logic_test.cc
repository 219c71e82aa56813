// Tests of the benchmark's own logic: percentile math with failures counted
// as misses, wire-time subtraction, node_stats aggregation by kind_name(),
// and reassembly of pipelined replies that arrive out of order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "bench_logic.h"
#include "common/schema.h"

namespace shareddb {
namespace perfbench {
namespace {

TEST(LatencySamples, NearestRankPercentiles) {
  LatencySamples s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Percentile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.001), 1.0);
  EXPECT_DOUBLE_EQ(s.FiniteMean(), 50.5);

  LatencySamples four;
  for (double v : {4.0, 1.0, 3.0, 2.0}) four.Add(v);  // unsorted input
  EXPECT_DOUBLE_EQ(four.Percentile(0.50), 2.0);
  EXPECT_DOUBLE_EQ(four.Percentile(0.75), 3.0);

  LatencySamples empty;
  EXPECT_EQ(empty.Percentile(0.5), 0.0);
}

TEST(LatencySamples, FailuresMissEveryLimit) {
  LatencySamples s;
  for (int i = 1; i <= 98; ++i) s.Add(1.0);
  s.AddFailure();
  s.AddFailure();
  EXPECT_EQ(s.count(), 100u);
  EXPECT_EQ(s.failures(), 2u);
  // Two failures in 100 samples: p98 is still a success, p99 is a miss.
  EXPECT_DOUBLE_EQ(s.Percentile(0.98), 1.0);
  EXPECT_TRUE(std::isinf(s.Percentile(0.99)));
  // Failures never drag the mean of the successes.
  EXPECT_DOUBLE_EQ(s.FiniteMean(), 1.0);

  // Half failed: the median itself misses.
  LatencySamples half;
  half.Add(5.0);
  half.AddFailure();
  EXPECT_DOUBLE_EQ(half.Percentile(0.5), 5.0);
  half.AddFailure();
  EXPECT_TRUE(std::isinf(half.Percentile(0.5)));
}

TEST(LatencySamples, AppendMergesWindows) {
  LatencySamples a;
  LatencySamples b;
  a.Add(3.0);
  a.Add(1.0);
  EXPECT_DOUBLE_EQ(a.Percentile(0.5), 1.0);  // sorts a
  b.Add(2.0);
  b.AddFailure();
  a.Append(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.Percentile(0.5), 2.0);
  EXPECT_TRUE(std::isinf(a.Percentile(1.0)));
}

/// Encodes `rs` as the server would answer request `rid`.
std::string ServerBytes(uint64_t rid, const ResultSet& rs,
                        size_t max_payload = net::kDefaultMaxPayload) {
  std::vector<std::string> frames;
  net::EncodeResultFrames(rid, rs, /*ready=*/true, 0, max_payload, &frames);
  std::string bytes;
  for (const std::string& f : frames) bytes += f;
  return bytes;
}

TEST(WireTime, SubtractsTheEngineShareFromTheResultHead) {
  ResultSet rs;
  rs.schema = Schema::Make({{"id", ValueType::kInt}});
  rs.rows.push_back({Value::Int(7)});
  rs.queue_ms = 1.25;
  rs.exec_ms = 2.5;
  ReplyAssembler rx;
  std::vector<Reply> out;
  const std::string bytes = ServerBytes(9, rs);
  ASSERT_TRUE(rx.Feed(bytes.data(), bytes.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  // The head travels through the codec intact, and wire = client - both.
  EXPECT_DOUBLE_EQ(out[0].head.queue_ms, 1.25);
  EXPECT_DOUBLE_EQ(out[0].head.exec_ms, 2.5);
  EXPECT_DOUBLE_EQ(WireMs(10.0, out[0].head), 6.25);
  EXPECT_DOUBLE_EQ(WireMs(3.75, out[0].head), 0.0);
}

TEST(OpWork, AggregatesNodeStatsByKindName) {
  const std::vector<std::string> kinds = {"ClockScan", "HashJoin", "ClockScan",
                                          "Sort"};
  std::vector<WorkStats> batch1(4);
  batch1[0].rows_scanned = 100;
  batch1[0].tuples_out = 10;
  batch1[1].hash_builds = 5;
  batch1[1].hash_probes = 7;
  batch1[2].rows_scanned = 50;
  batch1[3].comparisons = 30;
  std::vector<WorkStats> batch2(4);
  batch2[2].rows_scanned = 1;
  batch2[3].comparisons = 2;

  OpWork w;
  w.AddBatch(kinds, batch1, 3);
  w.AddBatch(kinds, batch2, 1);
  EXPECT_EQ(w.statements, 4u);
  EXPECT_EQ(w.work_by_kind.at("ClockScan"), 100u + 10u + 50u + 1u);
  EXPECT_EQ(w.work_by_kind.at("HashJoin"), 12u);
  EXPECT_EQ(w.work_by_kind.at("Sort"), 32u);
  EXPECT_EQ(w.counters.rows_scanned, 151u);
  EXPECT_EQ(w.counters.comparisons, 32u);

  // A report whose node_stats is shorter (an empty batch) adds nothing
  // beyond its prefix and never reads past either vector.
  w.AddBatch(kinds, std::vector<WorkStats>(1), 0);
  EXPECT_EQ(w.work_by_kind.size(), 3u);

  const auto fields = CounterFields(w.counters);
  ASSERT_EQ(fields.size(), 11u);
  EXPECT_EQ(fields[2].first, "rows_scanned");
  EXPECT_EQ(fields[2].second, 151u);
  uint64_t total = 0;
  for (const auto& [name, v] : fields) total += v;
  EXPECT_EQ(total, w.counters.Total());
}

TEST(ReplyAssembler, PipelinedRepliesOutOfOrderAcrossRequestIds) {
  // Request 1's result is wide enough to need ROWS continuations under a
  // small payload cap; request 2 is small. The server finished 2 first,
  // then 1's head, then an ERROR for 3, then 1's continuations: replies
  // complete in that order, whatever the request ids.
  const size_t cap = 256;
  ResultSet big;
  big.schema = Schema::Make({{"id", ValueType::kInt}, {"s", ValueType::kString}});
  for (int i = 0; i < 40; ++i) {
    big.rows.push_back({Value::Int(i), Value::Str("row-" + std::to_string(i))});
  }
  ResultSet small;
  small.schema = Schema::Make({{"id", ValueType::kInt}});
  small.rows.push_back({Value::Int(42)});

  std::vector<std::string> big_frames;
  net::EncodeResultFrames(1, big, true, 0, cap, &big_frames);
  ASSERT_GT(big_frames.size(), 2u);  // head + at least two continuations

  std::string stream = ServerBytes(2, small, cap);
  stream += big_frames[0];
  net::ErrorMsg e;
  e.code = StatusCode::kResourceExhausted;
  e.message = "queue full";
  stream += net::SealFrame(net::FrameType::kError, 3, net::EncodeError(e));
  for (size_t i = 1; i < big_frames.size(); ++i) stream += big_frames[i];

  // Feed in awkward slices so frames straddle reads.
  ReplyAssembler rx(cap);
  std::vector<Reply> out;
  for (size_t off = 0; off < stream.size(); off += 7) {
    const size_t n = std::min<size_t>(7, stream.size() - off);
    ASSERT_TRUE(rx.Feed(stream.data() + off, n, &out)) << rx.error();
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].request_id, 2u);
  ASSERT_EQ(out[0].rows.size(), 1u);
  EXPECT_EQ(out[0].rows[0][0].AsInt(), 42);
  EXPECT_EQ(out[1].request_id, 3u);
  EXPECT_EQ(out[1].type, net::FrameType::kError);
  EXPECT_EQ(out[1].status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(out[2].request_id, 1u);
  ASSERT_EQ(out[2].rows.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(out[2].rows[static_cast<size_t>(i)][0].AsInt(), i);
  }
  EXPECT_EQ(rx.partial_replies(), 0u);
  EXPECT_EQ(rx.buffered_bytes(), 0u);
}

TEST(ReplyAssembler, InterleavedContinuationsOfTwoRequests) {
  // Continuations of two partial results interleave frame by frame.
  const size_t cap = 200;
  std::vector<std::string> a;
  std::vector<std::string> b;
  ResultSet rs;
  rs.schema = Schema::Make({{"v", ValueType::kString}});
  for (int i = 0; i < 30; ++i) rs.rows.push_back({Value::Str(std::string(20, 'x'))});
  net::EncodeResultFrames(10, rs, true, 0, cap, &a);
  net::EncodeResultFrames(11, rs, true, 0, cap, &b);
  ASSERT_GT(a.size(), 1u);
  std::string stream;
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i < a.size()) stream += a[i];
    if (i < b.size()) stream += b[i];
  }
  ReplyAssembler rx(cap);
  std::vector<Reply> out;
  ASSERT_TRUE(rx.Feed(stream.data(), stream.size(), &out)) << rx.error();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rows.size(), 30u);
  EXPECT_EQ(out[1].rows.size(), 30u);
}

TEST(ReplyAssembler, RejectsDamageAndOrphanContinuations) {
  ResultSet rs;
  rs.schema = Schema::Make({{"id", ValueType::kInt}});
  rs.rows.push_back({Value::Int(1)});
  std::string bytes = ServerBytes(5, rs);
  bytes[bytes.size() - 1] ^= 0x40;  // flip a payload bit: CRC mismatch
  ReplyAssembler damaged;
  std::vector<Reply> out;
  EXPECT_FALSE(damaged.Feed(bytes.data(), bytes.size(), &out));
  EXPECT_FALSE(damaged.error().empty());
  EXPECT_TRUE(out.empty());

  // A ROWS frame for a request with no pending RESULT is a protocol error.
  ResultSet wide;
  wide.schema = Schema::Make({{"v", ValueType::kString}});
  for (int i = 0; i < 30; ++i) wide.rows.push_back({Value::Str(std::string(20, 'y'))});
  std::vector<std::string> frames;
  net::EncodeResultFrames(6, wide, true, 0, 200, &frames);
  ASSERT_GT(frames.size(), 1u);
  ReplyAssembler orphan(200);
  EXPECT_FALSE(orphan.Feed(frames[1].data(), frames[1].size(), &out));
}

TEST(JsonWriter, WritesNestedObjectsWithFullPrecision) {
  JsonWriter w;
  w.Begin().Field("a", 1).Begin("b").Field("x", 0.1).Field("s", "q\"").End();
  w.Field("inf", std::numeric_limits<double>::infinity()).End();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"b\":{\"x\":0.10000000000000001,\"s\":\"q\\\"\"},"
            "\"inf\":null}");
  EXPECT_EQ(JsonArray({0.5, 2.0}), "[0.5,2]");
  EXPECT_EQ(JsonArray({}), "[]");
}

}  // namespace
}  // namespace perfbench
}  // namespace shareddb
