// Generator contract tests: GenerateScenario is a pure function of
// (seed, index), every emitted scenario is accepted by the real parser,
// and the corpus exercises the whole input language (all sections, all
// tuning modes, fault windows) rather than a timid subset.
#include "fuzz/scenario_gen.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "workload/scenario_config.h"

namespace locktune {
namespace {

TEST(ScenarioGenTest, ByteReproducible) {
  for (uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    for (uint64_t index = 0; index < 8; ++index) {
      const std::string a = GenerateScenario(seed, index);
      const std::string b = GenerateScenario(seed, index);
      EXPECT_EQ(a, b) << "seed=" << seed << " index=" << index;
    }
  }
}

TEST(ScenarioGenTest, CorpusDigestMatchesParent) {
  // FNV-1a over the texts of `locktune_fuzz --seed 1234 --count 200`,
  // recorded at commit f0e06c1. The generator draws its ranges and
  // spellings from ScenarioSchema(), so reshaping that table must not move
  // one byte of the corpus.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t index = 0; index < 200; ++index) {
    for (const unsigned char c : GenerateScenario(1234, index)) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(h, 0xb99c15c727d00694ULL);
}

TEST(ScenarioGenTest, SeedAndIndexBothMatter) {
  EXPECT_NE(GenerateScenario(1, 0), GenerateScenario(2, 0));
  EXPECT_NE(GenerateScenario(1, 0), GenerateScenario(1, 1));
}

TEST(ScenarioGenTest, EveryGeneratedScenarioParses) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (uint64_t index = 0; index < 50; ++index) {
      const std::string conf = GenerateScenario(seed, index);
      const Result<ScenarioSpec> spec = ParseScenario(conf, "gen.conf");
      ASSERT_TRUE(spec.ok())
          << "seed=" << seed << " index=" << index << ": "
          << spec.status().ToString() << "\nscenario:\n"
          << conf;
    }
  }
}

TEST(ScenarioGenTest, CorpusCoversTheInputLanguage) {
  std::set<std::string> sections;
  std::set<TuningMode> modes;
  int fault_scenarios = 0;
  int multi_workload = 0;
  for (uint64_t index = 0; index < 300; ++index) {
    const std::string conf = GenerateScenario(7, index);
    const Result<ScenarioSpec> spec = ParseScenario(conf, "gen.conf");
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    modes.insert(spec.value().database.mode);
    for (const char* s : {"[oltp]", "[dss]", "[batch]", "[hostile]"}) {
      if (conf.find(s) != std::string::npos) sections.insert(s);
    }
    if (!spec.value().database.fault.empty()) ++fault_scenarios;
    if (spec.value().workloads.size() > 1) ++multi_workload;
  }
  EXPECT_EQ(sections.size(), 4u) << "missing workload archetypes";
  EXPECT_EQ(modes.size(), 3u) << "missing tuning modes";
  EXPECT_GT(fault_scenarios, 0);
  EXPECT_GT(multi_workload, 0);
}

}  // namespace
}  // namespace locktune
