// Unit tests for the observability layer: metrics registry registration and
// lookup, histogram quantiles, JSON round-trip, and the publish() mapping of
// subsystem stats.  The span/instant ring is covered by span_test.
#include <gtest/gtest.h>

#include <cstdio>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace mif::obs {
namespace {

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter& a = reg.counter("alloc.ondemand.layout_miss");
  Counter& b = reg.counter("alloc.ondemand.layout_miss");
  EXPECT_EQ(&a, &b);  // same object: cached references stay live
  a.inc(3);
  b.inc(2);
  EXPECT_EQ(reg.counter_value("alloc.ondemand.layout_miss"), 5u);
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  EXPECT_EQ(reg.find_stat("nope"), nullptr);
  EXPECT_EQ(reg.counter_value("nope"), 0u);
  EXPECT_TRUE(reg.names().empty());
}

TEST(MetricsRegistry, NamesSortedAcrossKinds) {
  MetricsRegistry reg;
  reg.stat("z.stat");
  reg.counter("b.counter");
  reg.gauge("a.gauge");
  reg.histogram("m.histo");
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "a.gauge");
  EXPECT_EQ(names[1], "b.counter");
  EXPECT_EQ(names[2], "m.histo");
  EXPECT_EQ(names[3], "z.stat");
}

TEST(MetricsRegistry, HistogramQuantilesThroughRegistry) {
  MetricsRegistry reg;
  Histo& h = reg.histogram("alloc.extents_per_file");
  for (u64 v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
  // p99 of 1..1000 lives in the top log2 bucket ([512, 1024)).
  EXPECT_GE(h.quantile(0.99), 512u);
}

TEST(MetricsRegistry, StatAndGauge) {
  MetricsRegistry reg;
  reg.gauge("osd.0.space.utilisation").set(0.75);
  Stat& s = reg.stat("sim.disk.position_ms");
  s.add(2.0);
  s.add(6.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("osd.0.space.utilisation")->value(), 0.75);
  EXPECT_DOUBLE_EQ(s.snapshot().mean(), 4.0);
}

TEST(MetricsRegistry, ResetZeroesButKeepsReferences) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Histo& h = reg.histogram("h");
  Stat& s = reg.stat("s");
  c.inc(7);
  h.add(9);
  s.add(1.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(s.snapshot().empty());
  c.inc();  // the pinned object is still the registered one
  EXPECT_EQ(reg.counter_value("c"), 1u);
}

TEST(MetricsRegistry, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("alloc.ondemand.layout_miss").inc(42);
  reg.counter("mds.rpcs").inc(7);
  reg.gauge("osd.0.space.free_blocks").set(1024.0);
  Histo& h = reg.histogram("alloc.extents_per_file");
  for (u64 v : {1u, 2u, 4u, 200u}) h.add(v);
  Stat& s = reg.stat("sim.disk.position_ms");
  s.add(3.5);

  const std::string text = reg.to_json().dump(2);
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("counters").at("alloc.ondemand.layout_miss").as_u64(),
            42u);
  EXPECT_EQ(parsed->at("counters").at("mds.rpcs").as_u64(), 7u);
  EXPECT_DOUBLE_EQ(
      parsed->at("gauges").at("osd.0.space.free_blocks").as_double(), 1024.0);
  const Json& histo = parsed->at("histograms").at("alloc.extents_per_file");
  EXPECT_EQ(histo.at("count").as_u64(), 4u);
  EXPECT_TRUE(histo.at("buckets").is_array());
  const Json& stat = parsed->at("stats").at("sim.disk.position_ms");
  EXPECT_EQ(stat.at("count").as_u64(), 1u);
  EXPECT_DOUBLE_EQ(stat.at("mean").as_double(), 3.5);
}

TEST(MetricsRegistry, TextExportOneLinePerMetric) {
  MetricsRegistry reg;
  reg.counter("b").inc(2);
  reg.gauge("a").set(1.0);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("a = "), std::string::npos);
  EXPECT_NE(text.find("b = 2"), std::string::npos);
  // Sorted: gauge "a" precedes counter "b".
  EXPECT_LT(text.find("a = "), text.find("b = 2"));
}

// --- Json -------------------------------------------------------------------

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("{\"a\": }").has_value());
  EXPECT_FALSE(Json::parse("[1, 2,]").has_value());
  EXPECT_FALSE(Json::parse("{} trailing").has_value());
}

TEST(Json, DumpParseRoundTripPreservesStructure) {
  Json doc;
  doc["int"] = u64{18446744073709551615ull};  // max u64 survives
  doc["neg"] = i64{-42};
  doc["str"] = "with \"quotes\" and \\ and \n";
  doc["null"] = nullptr;
  doc["flag"] = true;
  Json::Array arr;
  arr.emplace_back(1);
  arr.emplace_back(2.5);
  doc["arr"] = arr;
  for (int indent : {-1, 2}) {
    const auto back = Json::parse(doc.dump(indent));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == doc);
  }
}

TEST(Json, AtOnMissingKeyReturnsNull) {
  Json doc;
  doc["a"] = 1;
  EXPECT_TRUE(doc.at("missing").is_null());
  EXPECT_FALSE(doc.contains("missing"));
  EXPECT_TRUE(doc.contains("a"));
}

// --- publish() mapping ------------------------------------------------------

TEST(Publish, AllocatorStatsKeysMatchTheAlgorithm) {
  MetricsRegistry reg;
  alloc::AllocatorStats s;
  s.layout_misses = 11;
  s.prealloc_promotions = 22;
  s.released_blocks = 33;
  s.reserved_blocks = 44;
  publish(reg, "alloc.ondemand", s);
  EXPECT_EQ(reg.counter_value("alloc.ondemand.layout_miss"), 11u);
  EXPECT_EQ(reg.counter_value("alloc.ondemand.pre_alloc_layout"), 22u);
  EXPECT_EQ(reg.counter_value("alloc.ondemand.released_blocks"), 33u);
  EXPECT_DOUBLE_EQ(reg.find_gauge("alloc.ondemand.reserved_blocks")->value(),
                   44.0);
}

TEST(Publish, RepublishUnderSamePrefixAccumulates) {
  // Per-target stats published under one shared prefix sum up — that is how
  // the cluster aggregates are built.
  MetricsRegistry reg;
  block::CacheStats s;
  s.hits = 10;
  s.misses = 2;
  publish(reg, "cache", s);
  publish(reg, "cache", s);
  EXPECT_EQ(reg.counter_value("cache.hits"), 20u);
  EXPECT_EQ(reg.counter_value("cache.misses"), 4u);
}

TEST(Publish, MetricKeyIsDotSafe) {
  // to_string(kOnDemand) is "on-demand" — unusable inside a dotted key.
  EXPECT_EQ(metric_key(alloc::AllocatorMode::kOnDemand), "ondemand");
  EXPECT_EQ(join_key("alloc", metric_key(alloc::AllocatorMode::kOnDemand)),
            "alloc.ondemand");
}

// --- BenchReport ------------------------------------------------------------

TEST(BenchReport, ParsesArgsAndWritesSchema) {
  const char* path = "obs_test_report.json";
  const char* argv[] = {"bench", "--quick", "--json", path};
  BenchReport report("unit_bench", 4, const_cast<char**>(argv));
  EXPECT_TRUE(report.quick());
  ASSERT_TRUE(report.json_enabled());

  Json config;
  config["streams"] = 8;
  Json results;
  results["mbps"] = 123.5;
  report.add_run("streams=8", std::move(config), std::move(results));
  ASSERT_TRUE(report.write());

  FILE* f = std::fopen(path, "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path);

  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("schema_version").as_u64(), kReportSchemaVersion);
  EXPECT_EQ(doc->at("bench").as_string(), "unit_bench");
  const auto& runs = doc->at("runs").as_array();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].at("name").as_string(), "streams=8");
  EXPECT_EQ(runs[0].at("config").at("streams").as_u64(), 8u);
  EXPECT_DOUBLE_EQ(runs[0].at("results").at("mbps").as_double(), 123.5);
}

TEST(BenchReport, EqualsFormAndDisabledWrite) {
  const char* argv[] = {"bench", "--json=eq_form.json"};
  BenchReport r("b", 2, const_cast<char**>(argv));
  EXPECT_TRUE(r.json_enabled());
  EXPECT_FALSE(r.quick());

  BenchReport off("b", 0, nullptr);
  EXPECT_FALSE(off.json_enabled());
  EXPECT_TRUE(off.write());  // disabled: a no-op, not an error
  std::remove("eq_form.json");
}

}  // namespace
}  // namespace mif::obs
