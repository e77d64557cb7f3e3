// Unit battery for request-scoped tracing (util/request_trace): trace-id
// round-trips, the zero-overhead-when-off contract, stage accumulation
// semantics, slowest-K / error tail retention, the JSON access log with its
// token-bucket rate limit, and the OpenMetrics exemplar exposition.
//
// The serving-path integration (X-Emba-Trace-Id over HTTP, shared batch
// spans, /rpcz lookups) lives in tests/serve_test.cc.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics.h"
#include "util/request_trace.h"

namespace emba {
namespace {

class RtraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rtrace::SetEnabled(false);
    rtrace::ResetForTest();
    ASSERT_TRUE(rtrace::SetAccessLogPath("").ok());
    rtrace::SetAccessLogRateLimit(500.0);
    metrics::Registry::Global().ResetAllForTest();
  }
  void TearDown() override { SetUp(); }
};

TEST_F(RtraceTest, TraceIdHexRoundTrip) {
  EXPECT_EQ(rtrace::TraceIdToHex(0x0123456789abcdefULL), "0123456789abcdef");
  EXPECT_EQ(rtrace::ParseTraceIdHex("0123456789abcdef"), 0x0123456789abcdefULL);
  EXPECT_EQ(rtrace::ParseTraceIdHex("ABC"), 0xabcULL);  // short + uppercase ok
  EXPECT_EQ(rtrace::ParseTraceIdHex(""), 0u);
  EXPECT_EQ(rtrace::ParseTraceIdHex("xyz"), 0u);
  EXPECT_EQ(rtrace::ParseTraceIdHex("0123456789abcdef0"), 0u);  // 17 digits
}

TEST_F(RtraceTest, DisabledStartReturnsNull) {
  ASSERT_FALSE(rtrace::Enabled());
  EXPECT_EQ(rtrace::StartRequest(), nullptr);
  EXPECT_TRUE(rtrace::SnapshotInFlight().empty());
  // FinishRequest on the null context is the untraced path — a no-op.
  rtrace::FinishRequest(nullptr, 200);
  EXPECT_TRUE(rtrace::SnapshotRetained().empty());
}

TEST_F(RtraceTest, StartFinishRetainsRecord) {
  rtrace::SetEnabled(true);
  auto ctx = rtrace::StartRequest();
  ASSERT_NE(ctx, nullptr);
  EXPECT_NE(ctx->trace_id(), 0u);
  ctx->SetEndpoint("/match");
  ctx->AddStageNs(rtrace::Stage::kParse, 1000000);  // 1 ms

  ASSERT_EQ(rtrace::SnapshotInFlight().size(), 1u);
  rtrace::FinishRequest(ctx, 200);
  EXPECT_TRUE(rtrace::SnapshotInFlight().empty());

  rtrace::RequestRecord rec;
  ASSERT_TRUE(rtrace::FindRetained(ctx->trace_id(), &rec));
  EXPECT_EQ(rec.endpoint, "/match");
  EXPECT_EQ(rec.status, 200);
  EXPECT_FALSE(rec.error);
  EXPECT_FALSE(rec.in_flight);
  EXPECT_NEAR(rec.stage_ms[static_cast<int>(rtrace::Stage::kParse)], 1.0,
              1e-9);
  EXPECT_GE(rec.e2e_ms, 0.0);
  // other = e2e − Σstages, floored at zero.
  EXPECT_GE(rec.other_ms, 0.0);
}

TEST_F(RtraceTest, StageAccumulationSemantics) {
  rtrace::RequestContext ctx(42);
  ctx.AddStageNs(rtrace::Stage::kParse, 100);
  ctx.AddStageNs(rtrace::Stage::kParse, 250);  // sums: fed from two regions
  EXPECT_EQ(ctx.StageNs(rtrace::Stage::kParse), 350);
}

TEST_F(RtraceTest, SlowestReservoirEvictsFastest) {
  rtrace::SetEnabled(true);
  rtrace::SetSlowestK(1);

  // `slow` starts first, so by finish time its e2e exceeds `fast`'s.
  auto slow = rtrace::StartRequest();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto fast = rtrace::StartRequest();
  rtrace::FinishRequest(fast, 200);   // fills the K=1 reservoir
  rtrace::FinishRequest(slow, 200);   // slower → evicts `fast`

  const std::vector<rtrace::RequestRecord> retained =
      rtrace::SnapshotRetained();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0].trace_id, slow->trace_id());

  rtrace::RequestRecord rec;
  EXPECT_FALSE(rtrace::FindRetained(fast->trace_id(), &rec));

  // A faster newcomer must NOT evict the retained slow record.
  auto faster = rtrace::StartRequest();
  rtrace::FinishRequest(faster, 200);
  ASSERT_EQ(rtrace::SnapshotRetained().size(), 1u);
  EXPECT_EQ(rtrace::SnapshotRetained()[0].trace_id, slow->trace_id());
}

TEST_F(RtraceTest, ErrorsRetainedRegardlessOfLatency) {
  rtrace::SetEnabled(true);
  rtrace::SetSlowestK(1);

  // Occupy the reservoir with a slower success.
  auto slow = rtrace::StartRequest();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rtrace::FinishRequest(slow, 200);

  // A fast 500 and a fast abort (status 0) both retain via the error pool.
  auto failed = rtrace::StartRequest();
  rtrace::FinishRequest(failed, 500);
  auto aborted = rtrace::StartRequest();
  rtrace::FinishRequest(aborted, 0);

  rtrace::RequestRecord rec;
  ASSERT_TRUE(rtrace::FindRetained(failed->trace_id(), &rec));
  EXPECT_TRUE(rec.error);
  EXPECT_EQ(rec.status, 500);
  ASSERT_TRUE(rtrace::FindRetained(aborted->trace_id(), &rec));
  EXPECT_TRUE(rec.error);
  EXPECT_EQ(rec.status, 0);

  // SnapshotRetained = slowest ∪ errors, each id exactly once.
  const std::vector<rtrace::RequestRecord> retained =
      rtrace::SnapshotRetained();
  EXPECT_EQ(retained.size(), 3u);
}

TEST_F(RtraceTest, InFlightRecordsVisibleBeforeFinish) {
  rtrace::SetEnabled(true);
  auto ctx = rtrace::StartRequest();
  ctx->SetEndpoint("/dedupe");
  const std::vector<rtrace::RequestRecord> in_flight =
      rtrace::SnapshotInFlight();
  ASSERT_EQ(in_flight.size(), 1u);
  EXPECT_TRUE(in_flight[0].in_flight);
  EXPECT_EQ(in_flight[0].endpoint, "/dedupe");

  // FindRetained falls back to the in-flight table.
  rtrace::RequestRecord rec;
  ASSERT_TRUE(rtrace::FindRetained(
      rtrace::ParseTraceIdHex(ctx->trace_id_hex()), &rec));
  EXPECT_TRUE(rec.in_flight);
  rtrace::FinishRequest(ctx, 200);
}

TEST_F(RtraceTest, BatchAttributionLinksSiblingsAndChargesStages) {
  using std::chrono::milliseconds;
  rtrace::SetEnabled(true);
  auto a = rtrace::StartRequest();
  auto b = rtrace::StartRequest();

  // `a` is a two-sample group parked 3 ms and 1 ms before the dequeue, `b`
  // one sample parked at the dequeue, plus one untraced sample.
  const rtrace::Clock::time_point t0 = rtrace::Clock::now();
  const rtrace::Clock::time_point dequeue = t0 + milliseconds(3);
  const std::vector<rtrace::BatchMember> members = {
      {a, t0}, {nullptr, t0}, {a, t0 + milliseconds(2)}, {b, dequeue}};
  rtrace::BatchAttribution batch = rtrace::BatchAttribution::Open(
      members, dequeue, "deadline", /*int8_active=*/true);
  // Form 1 ms, compute 2 ms.
  batch.Close(dequeue + milliseconds(1), dequeue + milliseconds(3));

  rtrace::FinishRequest(a, 200);
  rtrace::FinishRequest(b, 200);
  const auto stage_ms = [](const rtrace::RequestRecord& rec,
                           rtrace::Stage stage) {
    return rec.stage_ms[static_cast<int>(stage)];
  };

  rtrace::RequestRecord rec;
  ASSERT_TRUE(rtrace::FindRetained(a->trace_id(), &rec));
  ASSERT_TRUE(rec.has_batch);
  EXPECT_GT(rec.batch_id, 0u);
  EXPECT_EQ(rec.batch_size, 4);
  EXPECT_EQ(rec.fire_reason, "deadline");
  EXPECT_TRUE(rec.int8_active);
  EXPECT_NEAR(rec.batch_compute_ms, 2.0, 1e-9);
  // Siblings exclude self and list each request once.
  ASSERT_EQ(rec.sibling_trace_ids.size(), 1u);
  EXPECT_EQ(rec.sibling_trace_ids[0], b->trace_id_hex());
  // A group's queue wait is its critical path (the max over its samples);
  // form and compute are charged once per request, not once per sample.
  EXPECT_NEAR(stage_ms(rec, rtrace::Stage::kQueueWait), 3.0, 1e-9);
  EXPECT_NEAR(stage_ms(rec, rtrace::Stage::kBatchForm), 1.0, 1e-9);
  EXPECT_NEAR(stage_ms(rec, rtrace::Stage::kCompute), 2.0, 1e-9);

  rtrace::RequestRecord rec_b;
  ASSERT_TRUE(rtrace::FindRetained(b->trace_id(), &rec_b));
  EXPECT_EQ(rec_b.batch_id, rec.batch_id);
  ASSERT_EQ(rec_b.sibling_trace_ids.size(), 1u);
  EXPECT_EQ(rec_b.sibling_trace_ids[0], a->trace_id_hex());
  EXPECT_EQ(stage_ms(rec_b, rtrace::Stage::kQueueWait), 0.0);
  EXPECT_NEAR(stage_ms(rec_b, rtrace::Stage::kCompute), 2.0, 1e-9);

  // Batch ids are process-monotonic; a batch with no traced member is not
  // recorded and its Close is a no-op.
  rtrace::BatchAttribution::Open({{nullptr, t0}}, dequeue, "full", false)
      .Close(dequeue, dequeue);
  auto c = rtrace::StartRequest();
  rtrace::BatchAttribution::Open({{c, dequeue}}, dequeue, "full", false)
      .Close(dequeue, dequeue);
  rtrace::FinishRequest(c, 200);
  rtrace::RequestRecord rec_c;
  ASSERT_TRUE(rtrace::FindRetained(c->trace_id(), &rec_c));
  EXPECT_EQ(rec_c.batch_id, rec.batch_id + 1);
  EXPECT_TRUE(rec_c.sibling_trace_ids.empty());
}

TEST_F(RtraceTest, GroupQueueWaitIsMaxOverSamplesAndBatches) {
  using std::chrono::milliseconds;
  rtrace::SetEnabled(true);
  auto a = rtrace::StartRequest();
  const auto wait_ms = [&a] {
    return static_cast<double>(a->StageNs(rtrace::Stage::kQueueWait)) / 1e6;
  };
  const rtrace::Clock::time_point t0 = rtrace::Clock::now();

  // One batch, samples listed rising then falling: waits 1, 3, 2 ms.
  rtrace::BatchAttribution::Open(
      {{a, t0 + milliseconds(2)}, {a, t0}, {a, t0 + milliseconds(1)}},
      t0 + milliseconds(3), "full", false)
      .Close(t0 + milliseconds(3), t0 + milliseconds(3));
  EXPECT_NEAR(wait_ms(), 3.0, 1e-9);

  // A group spread over two batches: the later batch waited longer (5 ms),
  // so the group's wait rises to it.
  rtrace::BatchAttribution::Open({{a, t0}}, t0 + milliseconds(5), "full",
                                 false)
      .Close(t0 + milliseconds(5), t0 + milliseconds(5));
  EXPECT_NEAR(wait_ms(), 5.0, 1e-9);

  // A shorter wait in a later batch does not lower it.
  rtrace::BatchAttribution::Open({{a, t0 + milliseconds(5)}},
                                 t0 + milliseconds(6), "deadline", false)
      .Close(t0 + milliseconds(6), t0 + milliseconds(6));
  EXPECT_NEAR(wait_ms(), 5.0, 1e-9);
  rtrace::FinishRequest(a, 200);
}

// The batcher thread attributes batches while /rpcz snapshots in-flight
// records; a reader must never see a linked batch half-filled (run under
// ThreadSanitizer by the tier-1 TSan pass).
TEST_F(RtraceTest, SnapshotsRaceBatchAttributionSafely) {
  rtrace::SetEnabled(true);
  std::vector<std::shared_ptr<rtrace::RequestContext>> ctxs;
  for (int i = 0; i < 4; ++i) ctxs.push_back(rtrace::StartRequest());
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      for (const rtrace::RequestRecord& rec : rtrace::SnapshotInFlight()) {
        if (rec.has_batch) {
          EXPECT_EQ(rec.sibling_trace_ids.size(), 3u);
        }
      }
    }
  });
  for (int b = 0; b < 200; ++b) {
    const rtrace::Clock::time_point now = rtrace::Clock::now();
    std::vector<rtrace::BatchMember> members;
    for (const auto& ctx : ctxs) members.push_back({ctx, now});
    rtrace::BatchAttribution::Open(members, now, "full", false)
        .Close(now, rtrace::Clock::now());
  }
  done.store(true);
  reader.join();
  for (const auto& ctx : ctxs) rtrace::FinishRequest(ctx, 200);
}

TEST_F(RtraceTest, RecordJsonKeepsKeysNestingAndOrder) {
  rtrace::RequestRecord rec;
  rec.trace_id_hex = "00000000000000ab";
  rec.endpoint = "/match";
  rec.status = 200;
  rec.start_unix_seconds = 1700000000.5;
  rec.e2e_ms = 12.5;
  const double stages[rtrace::kStageCount] = {0.25, 1, 0.5, 8, 0.125};
  std::copy(stages, stages + rtrace::kStageCount, rec.stage_ms);
  rec.other_ms = 2.625;
  EXPECT_EQ(rtrace::RecordJson(rec),
            "{\"trace_id\": \"00000000000000ab\", \"endpoint\": \"/match\", "
            "\"status\": 200, \"in_flight\": false, \"error\": false, "
            "\"start_unix_seconds\": 1700000000.5, \"e2e_ms\": 12.5, "
            "\"stages_ms\": {\"parse\": 0.25, \"queue_wait\": 1, "
            "\"batch_form\": 0.5, \"compute\": 8, \"serialize\": 0.125, "
            "\"other\": 2.625}}");

  rec.has_batch = true;
  rec.batch_id = 7;
  rec.batch_size = 3;
  rec.fire_reason = "deadline";
  rec.batch_compute_ms = 8;
  rec.int8_active = true;
  rec.sibling_trace_ids = {"00000000000000cd", "00000000000000ef"};
  const std::string json = rtrace::RecordJson(rec);
  EXPECT_EQ(json.substr(json.find(", \"batch\"")),
            ", \"batch\": {\"id\": 7, \"size\": 3, \"fire_reason\": "
            "\"deadline\", \"compute_ms\": 8, \"int8\": true, "
            "\"sibling_trace_ids\": [\"00000000000000cd\", "
            "\"00000000000000ef\"]}}");
}

TEST_F(RtraceTest, AccessLogWritesJsonLines) {
  const std::string path = "/tmp/emba_rtrace_access_log.jsonl";
  std::remove(path.c_str());
  rtrace::SetEnabled(true);
  ASSERT_TRUE(rtrace::SetAccessLogPath(path).ok());

  auto ctx = rtrace::StartRequest();
  ctx->SetEndpoint("/match");
  ctx->AddStageNs(rtrace::Stage::kParse, 500000);
  const rtrace::Clock::time_point now = rtrace::Clock::now();
  rtrace::BatchAttribution::Open({{ctx, now}}, now, "deadline",
                                 /*int8_active=*/false)
      .Close(now, now);
  rtrace::FinishRequest(ctx, 200);
  ASSERT_TRUE(rtrace::FlushAccessLog().ok());

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"trace_id\": \"" + ctx->trace_id_hex() + "\""),
            std::string::npos);
  EXPECT_NE(line.find("\"endpoint\": \"/match\""), std::string::npos);
  EXPECT_NE(line.find("\"status\": 200"), std::string::npos);
  EXPECT_NE(line.find("\"stages_ms\""), std::string::npos);
  EXPECT_NE(line.find("\"parse\": 0.5"), std::string::npos);
  EXPECT_NE(line.find("\"fire_reason\": \"deadline\""), std::string::npos);
  EXPECT_NE(line.find("\"int8\": false"), std::string::npos);
  EXPECT_FALSE(std::getline(in, line));  // exactly one line
  EXPECT_EQ(metrics::GetCounter("serve.access_log.lines").Value(), 1u);

  std::remove(path.c_str());
}

TEST_F(RtraceTest, AccessLogRateLimitDropsAndCounts) {
  const std::string path = "/tmp/emba_rtrace_access_log_rate.jsonl";
  std::remove(path.c_str());
  rtrace::SetEnabled(true);
  ASSERT_TRUE(rtrace::SetAccessLogPath(path).ok());
  // Zero refill rate: exactly the one token in the bucket is spendable.
  rtrace::SetAccessLogRateLimit(0.0);

  for (int i = 0; i < 5; ++i) {
    auto ctx = rtrace::StartRequest();
    rtrace::FinishRequest(ctx, 200);
  }
  ASSERT_TRUE(rtrace::FlushAccessLog().ok());

  EXPECT_EQ(metrics::GetCounter("serve.access_log.lines").Value(), 1u);
  EXPECT_EQ(metrics::GetCounter("serve.access_log.dropped").Value(), 4u);
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1);

  std::remove(path.c_str());
}

TEST_F(RtraceTest, ExemplarRendersInPrometheusExposition) {
  metrics::Histogram& h = metrics::GetHistogram("rtrace_test.exemplar_ms");
  h.Observe(1.0);  // exemplar-free observation
  h.ObserveWithExemplar(3.0, 0xdeadbeefULL);

  const std::string text = metrics::Registry::Global().ToPrometheus();
  // OpenMetrics exemplar syntax on the owning bucket:
  //   ..._bucket{le="X"} N # {trace_id="<16 hex>"} 3 <unix ts>
  const std::string needle = "# {trace_id=\"00000000deadbeef\"} 3";
  EXPECT_NE(text.find(needle), std::string::npos) << text;

  // Histograms that never saw an exemplar keep byte-identical bucket lines.
  metrics::GetHistogram("rtrace_test.plain_ms").Observe(1.0);
  const std::string plain_section = "emba_rtrace_test_plain_ms_bucket";
  std::istringstream lines(metrics::Registry::Global().ToPrometheus());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(plain_section, 0) == 0) {
      EXPECT_EQ(line.find('#'), std::string::npos) << line;
    }
  }
}

TEST_F(RtraceTest, FinishFeedsStageHistogramsWithExemplars) {
  rtrace::SetEnabled(true);
  auto ctx = rtrace::StartRequest();
  ctx->AddStageNs(rtrace::Stage::kCompute, 7000000);  // 7 ms
  rtrace::FinishRequest(ctx, 200);

  metrics::Histogram& compute =
      metrics::GetHistogram("serve.stage.compute_ms");
  EXPECT_EQ(compute.Count(), 1u);
  // Stages the request never passed through stay empty (no zero-skew).
  EXPECT_EQ(metrics::GetHistogram("serve.stage.queue_wait_ms").Count(), 0u);

  const std::string text = metrics::Registry::Global().ToPrometheus();
  EXPECT_NE(text.find("# {trace_id=\"" + ctx->trace_id_hex() + "\"}"),
            std::string::npos);
}

TEST_F(RtraceTest, SlowestKTrimsOnShrink) {
  rtrace::SetEnabled(true);
  rtrace::SetSlowestK(8);
  std::vector<std::shared_ptr<rtrace::RequestContext>> ctxs;
  for (int i = 0; i < 4; ++i) ctxs.push_back(rtrace::StartRequest());
  for (auto& ctx : ctxs) rtrace::FinishRequest(ctx, 200);
  EXPECT_EQ(rtrace::SnapshotRetained().size(), 4u);
  rtrace::SetSlowestK(2);
  EXPECT_EQ(rtrace::SlowestK(), 2u);
  EXPECT_EQ(rtrace::SnapshotRetained().size(), 2u);
}

TEST_F(RtraceTest, ProcessStartTimeGaugePublished) {
  metrics::SampleProcessGauges();
  const double start =
      metrics::GetGauge("process.start_time_seconds").Value();
  const double now = std::chrono::duration<double>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  EXPECT_GT(start, 0.0);
  EXPECT_LE(start, now);
  // Started within the last day — catches unit mistakes (ms vs s).
  EXPECT_GT(start, now - 86400.0);
}

}  // namespace
}  // namespace emba
