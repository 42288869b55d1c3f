// Unit tests of the observability primitives: metrics registry + per-thread
// accumulators, phase tracer, throttled progress reporting.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace fmtree::obs {
namespace {

TEST(Metrics, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  const CounterId a = reg.counter("traj");
  const CounterId b = reg.counter("traj");
  EXPECT_EQ(a.index, b.index);
  const GaugeId g1 = reg.gauge("residual");
  const GaugeId g2 = reg.gauge("residual");
  EXPECT_EQ(g1.index, g2.index);
  const HistogramId h1 = reg.histogram("events", 0.0, 100.0, 10);
  const HistogramId h2 = reg.histogram("events", 0.0, 100.0, 10);
  EXPECT_EQ(h1.index, h2.index);
}

TEST(Metrics, HistogramShapeIsValidated) {
  MetricsRegistry reg;
  reg.histogram("h", 0.0, 100.0, 10);
  EXPECT_THROW(reg.histogram("h", 0.0, 200.0, 10), DomainError);  // mismatch
  EXPECT_THROW(reg.histogram("bad", 1.0, 1.0, 10), DomainError);  // empty range
  EXPECT_THROW(reg.histogram("bad", 0.0, 1.0, 0), DomainError);   // no bins
}

TEST(Metrics, DirectMutationAndReadBack) {
  MetricsRegistry reg;
  const CounterId c = reg.counter("c");
  reg.add(c);
  reg.add(c, 41);
  EXPECT_EQ(reg.counter_value("c"), 42u);
  EXPECT_EQ(reg.counter_value("unknown"), 0u);

  const GaugeId g = reg.gauge("g");
  reg.set(g, 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 2.5);

  const HistogramId h = reg.histogram("h", 0.0, 10.0, 5);
  reg.observe(h, -1.0);  // underflow
  reg.observe(h, 3.0);
  reg.observe(h, 99.0);  // overflow
  EXPECT_EQ(reg.histogram_total("h"), 3u);
}

TEST(Metrics, LocalAccumulatorsMergeAndReset) {
  MetricsRegistry reg;
  const CounterId c = reg.counter("c");
  const HistogramId h = reg.histogram("h", 0.0, 10.0, 5);

  LocalMetrics a = reg.local();
  LocalMetrics b = reg.local();
  a.add(c, 10);
  b.add(c, 5);
  a.observe(h, 1.0);
  b.observe(h, 2.0);
  reg.merge(a);
  reg.merge(b);
  EXPECT_EQ(reg.counter_value("c"), 15u);
  EXPECT_EQ(reg.histogram_total("h"), 2u);

  // merge() resets the local state, so folding again adds nothing.
  reg.merge(a);
  EXPECT_EQ(reg.counter_value("c"), 15u);
}

TEST(Metrics, LocalHandlesLateRegistrationAndInvalidIds) {
  MetricsRegistry reg;
  LocalMetrics local = reg.local();  // sized before anything exists
  local.add(CounterId{}, 100);       // invalid id: ignored
  const CounterId c = reg.counter("late");
  local.add(c, 7);  // registered after local() was taken: grows on first use
  reg.merge(local);
  EXPECT_EQ(reg.counter_value("late"), 7u);
}

TEST(Metrics, ConcurrentWorkersMergeExactly) {
  MetricsRegistry reg;
  const CounterId c = reg.counter("n");
  constexpr int kThreads = 4, kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      LocalMetrics local = reg.local();
      for (int i = 0; i < kPerThread; ++i) local.add(c);
      reg.merge(local);
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(reg.counter_value("n"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, JsonFollowsSchemaWithSortedKeys) {
  MetricsRegistry reg;
  reg.add(reg.counter("zeta"), 1);
  reg.add(reg.counter("alpha"), 2);
  reg.set(reg.gauge("g"), 1.5);
  reg.gauge("never_set");  // registered but unset gauges are omitted
  reg.observe(reg.histogram("h", 0.0, 2.0, 2), 0.5);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\": \"fmtree.metrics/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));  // sorted
  EXPECT_EQ(json.find("never_set"), std::string::npos);
  EXPECT_NE(json.find("\"underflow\""), std::string::npos);
  EXPECT_NE(json.find("\"total\""), std::string::npos);
}

TEST(Metrics, ResetValuesKeepsRegistrations) {
  MetricsRegistry reg;
  const CounterId c = reg.counter("c");
  reg.add(c, 5);
  reg.reset_values();
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_EQ(reg.counter("c").index, c.index);
}

TEST(Tracer, SpansNestPerThread) {
  Tracer tracer;
  {
    auto outer = tracer.span("simulate");
    auto inner = tracer.span("batch");
    inner.close();
    inner.close();  // idempotent
  }
  const std::vector<SpanRecord> spans = tracer.records();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "simulate");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "batch");
  EXPECT_EQ(spans[1].parent, 0);  // nested under "simulate"
  for (const SpanRecord& s : spans) {
    EXPECT_GT(s.end_ns, 0u);
    EXPECT_GE(s.end_ns, s.start_ns);
  }
}

TEST(Tracer, ThreadsGetDenseNumbersAndRootSpans) {
  Tracer tracer;
  auto main_span = tracer.span("main");
  std::thread worker([&] { tracer.span("worker"); });
  worker.join();
  main_span.close();
  const auto spans = tracer.records();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].thread, spans[1].thread);
  // The worker's span must not be parented to another thread's open span.
  EXPECT_EQ(spans[1].parent, -1);
}

TEST(Tracer, ExportsBothSchemas) {
  Tracer tracer;
  tracer.span("parse").close();
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"schema\": \"fmtree.trace/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu_ms\""), std::string::npos);

  const std::string chrome = tracer.to_chrome_trace();
  EXPECT_EQ(chrome.front(), '[');
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"parse\""), std::string::npos);
}

TEST(Tracer, MaybeSpanToleratesNull) {
  auto span = maybe_span(nullptr, "anything");
  span.close();  // no tracer: nothing to do, nothing to crash
  Tracer tracer;
  maybe_span(&tracer, "real").close();
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Progress, DeliversAndComputesRate) {
  std::vector<Progress> seen;
  ProgressReporter reporter([&](const Progress& p) { seen.push_back(p); },
                            /*min_interval_seconds=*/0.0);
  Progress p;
  p.phase = "simulate";
  p.done = 100;
  p.total = 300;
  reporter.update(p);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  p.done = 200;
  reporter.update(p);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(reporter.deliveries(), 2u);
  EXPECT_EQ(seen[0].rate, 0.0);  // no previous sample yet
  EXPECT_GT(seen[1].rate, 0.0);
  EXPECT_GT(seen[1].eta_seconds, 0.0);
  EXPECT_EQ(seen[1].phase, "simulate");
}

TEST(Progress, ThrottleAdmitsOneDeliveryPerInterval) {
  std::atomic<int> calls{0};
  ProgressReporter reporter([&](const Progress&) { ++calls; },
                            /*min_interval_seconds=*/3600.0);
  Progress p;
  reporter.update(p);  // first call is due immediately
  for (int i = 0; i < 100; ++i) reporter.update(p);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_FALSE(reporter.due());
  reporter.report_now(p);  // forced delivery bypasses the throttle
  EXPECT_EQ(calls.load(), 2);
}

// Span names carry user text (a sweep job's label becomes "job:<label>"), so
// every export must escape them to stay valid JSON.
TEST(ObsExport, NamesWithQuotesAndBackslashesRoundTrip) {
  const std::string span_name = "job:a\"b\\c";
  const std::string counter_name = "jobs \"quoted\"";
  Tracer tracer;
  tracer.span(span_name).close();
  MetricsRegistry reg;
  reg.add(reg.counter(counter_name), 3);

  const json::Value trace = json::parse(tracer.to_json());
  const json::Value* spans = trace.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->items.size(), 1u);
  EXPECT_EQ(spans->items[0].find("name")->text, span_name);

  const json::Value chrome = json::parse(tracer.to_chrome_trace());
  ASSERT_EQ(chrome.items.size(), 1u);
  EXPECT_EQ(chrome.items[0].find("name")->text, span_name);

  const json::Value metrics = json::parse(reg.to_json());
  const json::Value* counters = metrics.find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* counter = counters->find(counter_name);
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->as_u64(), 3u);
}

}  // namespace
}  // namespace fmtree::obs
