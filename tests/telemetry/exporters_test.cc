#include "telemetry/exporters.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metrics.h"

namespace locktune {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(WritePrometheusTest, CountersAndGauges) {
  MetricsRegistry reg;
  reg.AddCounter("locktune_lock_waits_total", "lock waits")->Increment(3);
  reg.AddGauge("locktune_memory_total_bytes", "database memory")->Set(1024);
  std::ostringstream os;
  WritePrometheus(reg, os);
  const std::vector<std::string> lines = Lines(os.str());
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "# HELP locktune_lock_waits_total lock waits");
  EXPECT_EQ(lines[1], "# TYPE locktune_lock_waits_total counter");
  EXPECT_EQ(lines[2], "locktune_lock_waits_total 3");
  EXPECT_EQ(lines[3], "# HELP locktune_memory_total_bytes database memory");
  EXPECT_EQ(lines[4], "# TYPE locktune_memory_total_bytes gauge");
  EXPECT_EQ(lines[5], "locktune_memory_total_bytes 1024");
}

TEST(WritePrometheusTest, LabeledVariantsShareOneFamilyHeader) {
  MetricsRegistry reg;
  reg.AddGauge("locktune_memory_heap_bytes{heap=\"locklist\"}", "heap size")
      ->Set(4);
  reg.AddGauge("locktune_memory_heap_bytes{heap=\"sort\"}", "heap size")
      ->Set(8);
  std::ostringstream os;
  WritePrometheus(reg, os);
  const std::string text = os.str();
  // One # HELP / # TYPE pair for the family, two sample lines.
  EXPECT_EQ(Lines(text).size(), 4u);
  size_t first = text.find("# TYPE locktune_memory_heap_bytes gauge");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE", first + 1), std::string::npos);
  EXPECT_NE(text.find("locktune_memory_heap_bytes{heap=\"locklist\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("locktune_memory_heap_bytes{heap=\"sort\"} 8"),
            std::string::npos);
}

TEST(WritePrometheusTest, HistogramExpandsToCumulativeBuckets) {
  MetricsRegistry reg;
  HistogramMetric* h =
      reg.AddHistogram("locktune_lock_wait_time_ms", "wait time", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);  // overflow
  std::ostringstream os;
  WritePrometheus(reg, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE locktune_lock_wait_time_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("locktune_lock_wait_time_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("locktune_lock_wait_time_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("locktune_lock_wait_time_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("locktune_lock_wait_time_ms_sum 55.5"),
            std::string::npos);
  EXPECT_NE(text.find("locktune_lock_wait_time_ms_count 3"),
            std::string::npos);
}

TEST(WritePrometheusTest, LabeledHistogramSplicesLeIntoLabels) {
  MetricsRegistry reg;
  HistogramMetric* h = reg.AddHistogram(
      "locktune_test_wait_ms{site=\"shard\"}", "wait", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);  // overflow
  std::ostringstream os;
  WritePrometheus(reg, os);
  const std::string text = os.str();
  // The family header names the bare family; every series keeps the
  // existing label set, with `le` appended on bucket lines.
  EXPECT_NE(text.find("# TYPE locktune_test_wait_ms histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(
                "locktune_test_wait_ms_bucket{site=\"shard\",le=\"1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find(
          "locktune_test_wait_ms_bucket{site=\"shard\",le=\"10\"} 2"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find(
          "locktune_test_wait_ms_bucket{site=\"shard\",le=\"+Inf\"} 3"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("locktune_test_wait_ms_sum{site=\"shard\"} 55.5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("locktune_test_wait_ms_count{site=\"shard\"} 3"),
            std::string::npos)
      << text;
  // No malformed double-brace series anywhere.
  EXPECT_EQ(text.find("}{"), std::string::npos) << text;
  EXPECT_EQ(text.find("\"}_"), std::string::npos) << text;
}

TEST(WritePrometheusTest, LabeledHistogramVariantsShareOneFamilyHeader) {
  MetricsRegistry reg;
  reg.AddHistogram("locktune_test_wait_ms{site=\"alloc\"}", "wait",
                   {1.0})
      ->Observe(0.5);
  reg.AddHistogram("locktune_test_wait_ms{site=\"shard\"}", "wait",
                   {1.0})
      ->Observe(0.5);
  std::ostringstream os;
  WritePrometheus(reg, os);
  const std::string text = os.str();
  const size_t first =
      text.find("# TYPE locktune_test_wait_ms histogram");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find("# TYPE", first + 1), std::string::npos) << text;
  EXPECT_NE(text.find("{site=\"alloc\",le=\"1\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("{site=\"shard\",le=\"1\"} 1"), std::string::npos)
      << text;
}

TEST(WriteMetricsCsvTest, HeaderAndRows) {
  MetricsRegistry reg;
  reg.AddCounter("locktune_lock_waits_total", "waits")->Increment(2);
  reg.AddGauge("locktune_workload_throughput_tps", "tps")->Set(120.5);
  std::ostringstream os;
  WriteMetricsCsv(reg, os);
  const std::vector<std::string> lines = Lines(os.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "metric,value");
  EXPECT_EQ(lines[1], "locktune_lock_waits_total,2");
  EXPECT_EQ(lines[2], "locktune_workload_throughput_tps,120.5");
}

TEST(WriteMetricsCsvTest, HistogramExpandsToDigestRows) {
  MetricsRegistry reg;
  HistogramMetric* h =
      reg.AddHistogram("locktune_test_ms", "t", {1.0, 10.0, 100.0});
  for (int i = 0; i < 100; ++i) h->Observe(5.0);
  std::ostringstream os;
  WriteMetricsCsv(reg, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("locktune_test_ms_count,100"), std::string::npos);
  EXPECT_NE(text.find("locktune_test_ms_sum,500"), std::string::npos);
  EXPECT_NE(text.find("locktune_test_ms_p50,"), std::string::npos);
  EXPECT_NE(text.find("locktune_test_ms_p95,"), std::string::npos);
  EXPECT_NE(text.find("locktune_test_ms_p99,"), std::string::npos);
}

// Minimal RFC 4180 row parser for the round-trip tests: splits one line
// into fields, honoring quoted fields with doubled internal quotes.
std::vector<std::string> ParseCsvRow(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  bool at_field_start = true;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"' && at_field_start) {
      // Quotes only open an escaped field at its start; a quote later in an
      // unquoted field is literal (lenient RFC 4180 reading).
      quoted = true;
      at_field_start = false;
    } else if (c == ',') {
      fields.push_back(field);
      field.clear();
      at_field_start = true;
    } else {
      field += c;
      at_field_start = false;
    }
  }
  fields.push_back(field);
  return fields;
}

TEST(CsvFieldTest, QuotesOnlyWhenStructureIsAtRisk) {
  // Historical outputs must stay byte-identical: no gratuitous quoting, and
  // label-suffixed names (embedded quotes, no delimiter) pass through raw.
  EXPECT_EQ(CsvField("locktune_lock_waits_total"),
            "locktune_lock_waits_total");
  EXPECT_EQ(CsvField("heap_bytes{heap=\"lock\"}"),
            "heap_bytes{heap=\"lock\"}");
  EXPECT_EQ(CsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvField("a,\"b\""), "\"a,\"\"b\"\"\"");
  EXPECT_EQ(CsvField("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvField(""), "");
}

TEST(WriteMetricsCsvTest, SpecialCharactersRoundTrip) {
  MetricsRegistry reg;
  const std::string hostile = "locktune_odd{note=\"a,b\"}";
  reg.AddGauge(hostile, "gauge with a comma and quotes in its name")
      ->Set(7);
  std::ostringstream os;
  WriteMetricsCsv(reg, os);
  const std::vector<std::string> lines = Lines(os.str());
  ASSERT_EQ(lines.size(), 2u);
  const std::vector<std::string> row = ParseCsvRow(lines[1]);
  // The quoted name parses back to exactly the registered string, and the
  // row still has exactly two columns despite the embedded comma.
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], hostile);
  EXPECT_EQ(row[1], "7");
}

TEST(PrometheusLabelValueTest, EscapesBackslashQuoteAndNewline) {
  EXPECT_EQ(PrometheusLabelValue("plain"), "plain");
  EXPECT_EQ(PrometheusLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PrometheusLabelValue("two\nlines"), "two\\nlines");
}

TEST(WritePrometheusTest, HostileLabelValueStaysOneWellFormedLine) {
  MetricsRegistry reg;
  // A producer following the documented pattern: splice a free-form string
  // through PrometheusLabelValue when building the labeled name.
  const std::string name = "locktune_memory_heap_bytes{heap=\"" +
                           PrometheusLabelValue("odd\"heap\\name\n") + "\"}";
  reg.AddGauge(name, "per-heap size")->Set(2);
  std::ostringstream os;
  WritePrometheus(reg, os);
  const std::vector<std::string> lines = Lines(os.str());
  // HELP + TYPE + one sample: the newline in the label did not split the
  // sample across lines.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2],
            "locktune_memory_heap_bytes{heap=\"odd\\\"heap\\\\name\\n\"} 2");
}

TEST(WritePrometheusTest, HelpTextEscapesBackslashAndNewline) {
  MetricsRegistry reg;
  reg.AddCounter("locktune_odd_total", "first\nsecond \\ third")
      ->Increment(1);
  std::ostringstream os;
  WritePrometheus(reg, os);
  const std::vector<std::string> lines = Lines(os.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "# HELP locktune_odd_total first\\nsecond \\\\ third");
}

TEST(RenderRegistryTableTest, AlignsNamesAndDigestsHistograms) {
  MetricsRegistry reg;
  reg.AddCounter("locktune_lock_waits_total", "waits")->Increment(7);
  HistogramMetric* h = reg.AddHistogram("locktune_wait_ms", "w", {1.0, 10.0});
  h->Observe(2.0);
  const std::string table = RenderRegistryTable(reg);
  EXPECT_NE(table.find("locktune_lock_waits_total"), std::string::npos);
  EXPECT_NE(table.find("7"), std::string::npos);
  EXPECT_NE(table.find("count=1"), std::string::npos);
  EXPECT_NE(table.find("p50="), std::string::npos);
}

}  // namespace
}  // namespace locktune
