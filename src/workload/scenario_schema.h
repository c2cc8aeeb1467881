// The scenario-file language, defined once.
//
// ScenarioSections() lists the sections and ScenarioSchema() every key:
// its section, its values (type and range, or the accepted spellings), how
// many of them are required, whether it may repeat, and where the parsed
// values go. ParseScenario (scenario_config.h) reads a file with these two
// tables alone, and the scenario fuzzer (src/fuzz) samples and shrinks
// values from the same table, so a key added, removed or re-ranged here
// changes the parser and the fuzzer together.
//
// Sections use their file spelling without brackets; two pseudo-sections
// exist: "" (the global key space before any section header) and
// kSharedWorkloadSection (keys accepted by every workload section, today
// just `clients`).
#ifndef LOCKTUNE_WORKLOAD_SCENARIO_SCHEMA_H_
#define LOCKTUNE_WORKLOAD_SCENARIO_SCHEMA_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workload/scenario_config.h"

namespace locktune {

// Hard caps shared by the parser and the generator. Generous by design:
// they exist to reject values that overflow downstream unit conversions
// (e.g. `mb * kMiB`, `seconds * 1000`), not to police plausibility.
inline constexpr int64_t kMaxScenarioMemoryMb = 1'048'576;   // 1 TiB
inline constexpr int64_t kMaxScenarioPages = 1'000'000'000;
inline constexpr int64_t kMaxScenarioSeconds = 10'000'000;   // ~115 days
inline constexpr int64_t kMaxScenarioTimeoutMs = 1'000'000'000;
inline constexpr int64_t kMaxScenarioLocks = 1'000'000'000;
inline constexpr int64_t kMaxScenarioLocksPerTick = 10'000'000;
inline constexpr int64_t kMaxScenarioThinkMs = 100'000'000;
inline constexpr int64_t kMaxScenarioClients = 1'000'000;

// The pseudo-section for keys every workload section shares.
inline constexpr char kSharedWorkloadSection[] = "*workload*";

enum class ValueKind {
  kInt,     // integer in [int_min, int_max]
  kDouble,  // double in lo..hi with per-end openness
  kEnum,    // one of `choices`, exact spelling
  kName,    // identifier the parser takes as written; building the
            // scenario checks it (a table against the catalog in
            // LoadedScenario::Create, a heap against the database's heaps
            // in Database::Open), and `choices` lists the valid spellings
};

// One positional value of a key.
struct ValueSchema {
  ValueKind kind = ValueKind::kInt;
  int64_t int_min = 0;
  int64_t int_max = 0;
  double lo = 0.0;
  double hi = 0.0;
  bool lo_open = false;
  bool hi_open = false;
  std::vector<std::string> choices;
  // kEnum: what each of `choices` stands for, an enumerator cast to int.
  std::vector<int> codes;

  static ValueSchema IntIn(int64_t min, int64_t max);
  static ValueSchema DoubleIn(double lo, bool lo_open, double hi,
                              bool hi_open);
  template <typename E>
  static ValueSchema EnumOf(
      std::initializer_list<std::pair<const char*, E>> choices);
  static ValueSchema NameOf(std::vector<std::string> choices);
};

// One checked value of a line: kInt fills `i`, kEnum puts its code in `i`,
// kDouble fills `d` and kName fills `name`.
struct ParsedValue {
  int64_t i = 0;
  double d = 0.0;
  std::string name;
};

// A checked line, as its key's `apply` sees it.
struct KeyLine {
  ScenarioSpec& spec;
  const std::vector<ParsedValue>& values;
  // Set by `apply` when the values break a rule between them; the parser
  // then reports "key '<key>' wants <broken_rule>".
  const char* broken_rule = nullptr;

  // The workload section being read.
  WorkloadSpec& workload() const { return spec.workloads.back(); }
};

// One key of the scenario language.
struct KeySchema {
  std::string section;  // "", kSharedWorkloadSection, or a section name
  std::string key;
  std::vector<ValueSchema> values;
  // Required prefix of `values`; trailing entries are optional (e.g.
  // deny_heap's probability).
  size_t min_values = 0;
  // May appear more than once per section (list-building keys).
  bool repeatable = false;
  // Stores the line's checked values in the spec.
  void (*apply)(KeyLine& line) = nullptr;
};

// One section, as spelled between brackets.
struct SectionSchema {
  std::string name;
  // Workload sections open one WorkloadSpec of `kind` per header, starting
  // from the defaults row `preset` (scan sections only).
  bool workload = false;
  WorkloadSpec::Kind kind = WorkloadSpec::Kind::kOltp;
  ScanPreset preset = ScanPreset::kDss;
};

// The full key table, in deterministic declaration order.
const std::vector<KeySchema>& ScenarioSchema();

// Every section, in declaration order.
const std::vector<SectionSchema>& ScenarioSections();

// Lookup by (section, key); shared workload keys are found under their
// concrete section name too. Returns nullptr when the pair is unknown.
const KeySchema* FindKeySchema(std::string_view section,
                               std::string_view key);

template <typename E>
ValueSchema ValueSchema::EnumOf(
    std::initializer_list<std::pair<const char*, E>> choices) {
  ValueSchema v;
  v.kind = ValueKind::kEnum;
  for (const auto& [spelling, value] : choices) {
    v.choices.emplace_back(spelling);
    v.codes.push_back(static_cast<int>(value));
  }
  return v;
}

}  // namespace locktune

#endif  // LOCKTUNE_WORKLOAD_SCENARIO_SCHEMA_H_
