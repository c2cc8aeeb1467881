// Schema-entry tests: ParseScenario reads files with the schema
// (scenario_schema.h) alone, so every key in it is driven through the
// parser with in-range, below-range, above-range, and non-finite values;
// an entry whose section, range, spelling, repetition or `apply` is wrong
// fails here — which is what keeps the fuzzer's generator
// (src/fuzz/scenario_gen.h, which samples from the same table) honest.
#include "workload/scenario_schema.h"

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload/scenario_config.h"

namespace locktune {
namespace {

// Mirrors the parser's number formatting (plain ostringstream <<) so the
// expected range fragment matches byte-for-byte.
std::string FmtNum(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// Semantically safe in-range tokens per key: values that survive not just
// the range check but the post-parse TuningParams/window validation, so an
// accepting scenario can be built around any single key under test.
// Falls back to a generic per-kind representative for keys not listed.
std::vector<std::string> RepresentativeTokens(const KeySchema& k) {
  static const std::map<std::pair<std::string, std::string>,
                        std::vector<std::string>>
      kOverrides = {
          {{"", "database_memory_mb"}, {"256"}},
          {{"", "static_locklist_pages"}, {"400"}},
          {{"", "initial_locklist_pages"}, {"100"}},
          {{"", "tuning_interval_s"}, {"10"}},
          {{"", "duration_s"}, {"10"}},
          {{"", "sample_period_s"}, {"1"}},
          {{"", "seed"}, {"42"}},
          {{"", "lock_timeout_ms"}, {"1000"}},
          {{kSharedWorkloadSection, "clients"}, {"0", "2"}},
          {{"fault", "fault_seed"}, {"42"}},
          {{"fault", "deny_heap"}, {"locklist", "0", "10", "0.5"}},
          {{"fault", "squeeze_overflow_mb"}, {"16", "0", "10"}},
          {{"fault", "kill_app"}, {"1", "5"}},
      };
  const auto it = kOverrides.find({k.section, k.key});
  if (it != kOverrides.end()) return it->second;

  std::vector<std::string> tokens;
  for (const ValueSchema& v : k.values) {
    switch (v.kind) {
      case ValueKind::kInt:
        tokens.push_back(std::to_string(
            v.int_min <= 1 && 1 <= v.int_max ? 1 : v.int_min));
        break;
      case ValueKind::kDouble:
        tokens.push_back(FmtNum((v.lo + v.hi) / 2));
        break;
      case ValueKind::kEnum:
      case ValueKind::kName:
        tokens.push_back(v.choices.front());
        break;
    }
  }
  return tokens;
}

std::string LineFor(const KeySchema& k,
                    const std::vector<std::string>& tokens) {
  std::string line = k.key;
  for (const std::string& t : tokens) line += " " + t;
  return line + "\n";
}

// Wraps one `line` belonging to schema-section `section` into a complete
// scenario; `*line_no` receives the 1-based line the key lands on.
std::string Embed(const std::string& section, const std::string& line,
                  int* line_no) {
  if (section.empty()) {
    *line_no = 1;
    return line + "[oltp]\nclients 0 1\n";
  }
  if (section == kSharedWorkloadSection) {
    *line_no = 2;
    return "[oltp]\n" + line + "clients 0 1\n";
  }
  if (section == "fault") {
    *line_no = 4;
    return "[oltp]\nclients 0 1\n[fault]\n" + line;
  }
  *line_no = 3;
  return "[" + section + "]\nclients 0 1\n" + line;
}

void ExpectAccepts(const KeySchema& k,
                   const std::vector<std::string>& tokens) {
  int line_no = 0;
  const std::string text = Embed(k.section, LineFor(k, tokens), &line_no);
  const Result<ScenarioSpec> spec = ParseScenario(text, "schema.conf");
  EXPECT_TRUE(spec.ok()) << "schema key [" << k.section << "] " << k.key
                         << " rejected by the parser: "
                         << spec.status().ToString() << "\nscenario:\n"
                         << text;
}

void ExpectRejects(const KeySchema& k, const std::vector<std::string>& tokens,
                   const std::string& expected_fragment) {
  int line_no = 0;
  const std::string text = Embed(k.section, LineFor(k, tokens), &line_no);
  const Result<ScenarioSpec> spec = ParseScenario(text, "schema.conf");
  ASSERT_FALSE(spec.ok()) << "parser accepted out-of-schema value for ["
                          << k.section << "] " << k.key << ":\n"
                          << text;
  const std::string& message = spec.status().message();
  const std::string prefix = "schema.conf:" + std::to_string(line_no) + ":";
  EXPECT_NE(message.find(prefix), std::string::npos)
      << "missing '" << prefix << "' in: " << message;
  EXPECT_NE(message.find(k.key), std::string::npos)
      << "missing key name in: " << message;
  EXPECT_NE(message.find(expected_fragment), std::string::npos)
      << "missing '" << expected_fragment << "' in: " << message;
}

TEST(ScenarioSchemaTest, EveryKeyParsesWithRepresentativeValues) {
  for (const KeySchema& k : ScenarioSchema()) {
    const std::vector<std::string> tokens = RepresentativeTokens(k);
    ASSERT_EQ(tokens.size(), k.values.size())
        << "[" << k.section << "] " << k.key;
    ExpectAccepts(k, tokens);
    if (k.min_values < k.values.size()) {
      ExpectAccepts(k, {tokens.begin(), tokens.begin() + k.min_values});
    }
  }
}

TEST(ScenarioSchemaTest, EveryEnumChoiceParses) {
  for (const KeySchema& k : ScenarioSchema()) {
    for (size_t i = 0; i < k.values.size(); ++i) {
      if (k.values[i].kind != ValueKind::kEnum) continue;
      for (const std::string& choice : k.values[i].choices) {
        std::vector<std::string> tokens = RepresentativeTokens(k);
        tokens[i] = choice;
        ExpectAccepts(k, tokens);
      }
    }
  }
}

TEST(ScenarioSchemaTest, BelowRangeIntegerRejectedWithSchemaBounds) {
  for (const KeySchema& k : ScenarioSchema()) {
    for (size_t i = 0; i < k.values.size(); ++i) {
      const ValueSchema& v = k.values[i];
      if (v.kind != ValueKind::kInt || v.int_min == INT64_MIN) continue;
      std::vector<std::string> tokens = RepresentativeTokens(k);
      tokens[i] = std::to_string(v.int_min - 1);
      ExpectRejects(k, tokens,
                    "in [" + std::to_string(v.int_min) + ", " +
                        std::to_string(v.int_max) + "]");
    }
  }
}

TEST(ScenarioSchemaTest, AboveRangeIntegerRejectedWithSchemaBounds) {
  for (const KeySchema& k : ScenarioSchema()) {
    for (size_t i = 0; i < k.values.size(); ++i) {
      const ValueSchema& v = k.values[i];
      if (v.kind != ValueKind::kInt || v.int_max == INT64_MAX) continue;
      std::vector<std::string> tokens = RepresentativeTokens(k);
      tokens[i] = std::to_string(v.int_max + 1);
      ExpectRejects(k, tokens,
                    "in [" + std::to_string(v.int_min) + ", " +
                        std::to_string(v.int_max) + "]");
    }
  }
}

TEST(ScenarioSchemaTest, OutOfRangeDoubleRejectedWithSchemaBounds) {
  for (const KeySchema& k : ScenarioSchema()) {
    for (size_t i = 0; i < k.values.size(); ++i) {
      const ValueSchema& v = k.values[i];
      if (v.kind != ValueKind::kDouble) continue;
      const std::string range = std::string(v.lo_open ? "(" : "[") +
                                FmtNum(v.lo) + ", " + FmtNum(v.hi) +
                                (v.hi_open ? ")" : "]");
      // Just outside each end: the boundary itself when the end is open,
      // one past it when closed.
      std::vector<std::string> tokens = RepresentativeTokens(k);
      tokens[i] = v.lo_open ? FmtNum(v.lo) : FmtNum(v.lo - 1);
      ExpectRejects(k, tokens, range);
      tokens = RepresentativeTokens(k);
      tokens[i] = v.hi_open ? FmtNum(v.hi) : FmtNum(v.hi + 1);
      ExpectRejects(k, tokens, range);
    }
  }
}

TEST(ScenarioSchemaTest, NonFiniteDoubleRejectedEverywhere) {
  for (const KeySchema& k : ScenarioSchema()) {
    for (size_t i = 0; i < k.values.size(); ++i) {
      if (k.values[i].kind != ValueKind::kDouble) continue;
      for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
        std::vector<std::string> tokens = RepresentativeTokens(k);
        tokens[i] = bad;
        ExpectRejects(k, tokens, std::string("'") + bad + "'");
      }
    }
  }
}

TEST(ScenarioSchemaTest, UnknownKeysRejectedInEverySection) {
  const char* kSections[] = {"", "oltp", "dss", "batch", "hostile", "fault"};
  for (const char* section : kSections) {
    EXPECT_EQ(FindKeySchema(section, "no_such_key"), nullptr);
    KeySchema fake;
    fake.section = section;
    fake.key = "no_such_key";
    int line_no = 0;
    const std::string text =
        Embed(fake.section, "no_such_key 1\n", &line_no);
    const Result<ScenarioSpec> spec = ParseScenario(text, "schema.conf");
    EXPECT_FALSE(spec.ok()) << "parser accepted no_such_key in section '"
                            << section << "'";
  }
}

TEST(ScenarioSchemaTest, RepeatabilityMatchesParser) {
  for (const KeySchema& k : ScenarioSchema()) {
    const std::string line = LineFor(k, RepresentativeTokens(k));
    int line_no = 0;
    const std::string text = Embed(k.section, line + line, &line_no);
    const Result<ScenarioSpec> spec = ParseScenario(text, "schema.conf");
    if (k.repeatable) {
      EXPECT_TRUE(spec.ok())
          << "repeatable key [" << k.section << "] " << k.key
          << " rejected when repeated: " << spec.status().ToString();
    } else {
      ASSERT_FALSE(spec.ok()) << "scalar key [" << k.section << "] " << k.key
                              << " silently accepted twice";
      EXPECT_NE(spec.status().message().find("duplicate key"),
                std::string::npos)
          << spec.status().message();
    }
  }
}

TEST(ScenarioSchemaTest, SectionNamesAllParse) {
  for (const SectionSchema& section : ScenarioSections()) {
    const std::string body =
        section.name == "fault"
            ? "[oltp]\nclients 0 1\n[fault]\nkill_app 1 5\n"
            : "[" + section.name + "]\nclients 0 1\n";
    const Result<ScenarioSpec> spec = ParseScenario(body, "schema.conf");
    EXPECT_TRUE(spec.ok()) << "section [" << section.name
                           << "]: " << spec.status().ToString();
  }
}

TEST(ScenarioSchemaTest, SchemaLookupIsSectionScoped) {
  // A key must not leak across sections: zipf is OLTP-only, scan_locks is
  // DSS-only, and global keys are not workload keys.
  EXPECT_NE(FindKeySchema("oltp", "zipf"), nullptr);
  EXPECT_EQ(FindKeySchema("dss", "zipf"), nullptr);
  EXPECT_NE(FindKeySchema("dss", "scan_locks"), nullptr);
  EXPECT_EQ(FindKeySchema("oltp", "scan_locks"), nullptr);
  EXPECT_NE(FindKeySchema("", "duration_s"), nullptr);
  EXPECT_EQ(FindKeySchema("oltp", "duration_s"), nullptr);
  // The shared `clients` key resolves under every workload section.
  for (const char* section : {"oltp", "dss", "batch", "hostile"}) {
    const KeySchema* ks = FindKeySchema(section, "clients");
    ASSERT_NE(ks, nullptr) << section;
    EXPECT_EQ(ks->section, kSharedWorkloadSection);
  }
  EXPECT_EQ(FindKeySchema("fault", "clients"), nullptr);
  EXPECT_EQ(FindKeySchema("", "clients"), nullptr);
}

}  // namespace
}  // namespace locktune
