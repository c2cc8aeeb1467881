#include "workload/scenario_config.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "workload/scenario_schema.h"

namespace locktune {

namespace {

// Splits a line into whitespace-separated tokens.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

bool ParseRawInt(const std::string& s, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  // ERANGE: strtoll clamps to LLONG_MIN/MAX, silently turning a fat-fingered
  // value into a huge one — reject it like any other malformed integer.
  if (errno == ERANGE || end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseRawDouble(const std::string& s, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  // Three rejection classes beyond plain syntax errors:
  //   * ERANGE overflow: strtod clamps to ±HUGE_VAL, silently turning a
  //     fat-fingered exponent into infinity (underflow to 0 also sets
  //     ERANGE — a value too small to represent is equally out of range);
  //   * "inf"/"nan" literals: strtod accepts them, but no scenario key has
  //     a meaningful infinite or not-a-number value, and NaN would poison
  //     every range check below (NaN compares false against any bound).
  if (errno == ERANGE || end == s.c_str() || *end != '\0' ||
      !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

std::string FmtNum(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// "a", "a or b", "a, b or c".
std::string JoinOr(const std::vector<std::string>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += i + 1 == items.size() ? " or " : ", ";
    out += items[i];
  }
  return out;
}

// Checks the values of one line against its key's schema and converts
// them. Errors start with `where` (`<source>:<line>: `) and name the key,
// the offending token and the accepted form, so a typo in a 300-line chaos
// scenario is a one-glance fix.
[[nodiscard]] Status ParseValues(const std::string& where,
                                 const KeySchema& ks,
                                 const std::vector<std::string>& tokens,
                                 std::vector<ParsedValue>* values) {
  const std::string key = "key '" + ks.key + "' wants ";
  const size_t given = tokens.size() - 1;
  if (given < ks.min_values || given > ks.values.size()) {
    const std::string arity =
        ks.min_values == ks.values.size()
            ? std::to_string(ks.min_values)
            : std::to_string(ks.min_values) + " to " +
                  std::to_string(ks.values.size());
    return Status::InvalidArgument(where + key + arity + " value(s), got " +
                                   std::to_string(given));
  }
  for (size_t i = 0; i < given; ++i) {
    const ValueSchema& vs = ks.values[i];
    const std::string& token = tokens[i + 1];
    const std::string got = ", got '" + token + "'";
    ParsedValue v;
    switch (vs.kind) {
      case ValueKind::kInt:
        if (!ParseRawInt(token, &v.i)) {
          return Status::InvalidArgument(where + key + "an integer" + got);
        }
        if (v.i < vs.int_min || v.i > vs.int_max) {
          return Status::InvalidArgument(
              where + key + "an integer in [" + std::to_string(vs.int_min) +
              ", " + std::to_string(vs.int_max) + "]" + got);
        }
        break;
      case ValueKind::kDouble:
        if (!ParseRawDouble(token, &v.d)) {
          return Status::InvalidArgument(where + key + "a number" + got);
        }
        if (!((vs.lo_open ? v.d > vs.lo : v.d >= vs.lo) &&
              (vs.hi_open ? v.d < vs.hi : v.d <= vs.hi))) {
          return Status::InvalidArgument(
              where + key + "a number in " + (vs.lo_open ? "(" : "[") +
              FmtNum(vs.lo) + ", " + FmtNum(vs.hi) +
              (vs.hi_open ? ")" : "]") + got);
        }
        break;
      case ValueKind::kEnum: {
        const auto it =
            std::find(vs.choices.begin(), vs.choices.end(), token);
        if (it == vs.choices.end()) {
          return Status::InvalidArgument(where + key + JoinOr(vs.choices) +
                                         got);
        }
        v.i = vs.codes[static_cast<size_t>(it - vs.choices.begin())];
        break;
      }
      case ValueKind::kName:
        v.name = token;
        break;
    }
    values->push_back(std::move(v));
  }
  return Status::Ok();
}

const SectionSchema* FindSection(const std::string& header) {
  for (const SectionSchema& s : ScenarioSections()) {
    if (header == "[" + s.name + "]") return &s;
  }
  return nullptr;
}

// The bracketed names of every section, or of the workload sections only.
std::vector<std::string> Headers(bool workload_only) {
  std::vector<std::string> headers;
  for (const SectionSchema& s : ScenarioSections()) {
    if (s.workload || !workload_only) headers.push_back("[" + s.name + "]");
  }
  return headers;
}

}  // namespace

void ScenarioSpec::SetSeed(uint64_t seed) {
  runner.seed = seed;
  database.fault.seed = seed ^ 0x9e3779b97f4a7c15ULL;
}

Result<ScenarioSpec> ParseScenario(const std::string& text,
                                   const std::string& source_name) {
  ScenarioSpec spec;
  spec.runner.duration = 60 * kSecond;
  spec.SetSeed(spec.runner.seed);
  std::string section;  // "" before the first header: the global keys

  // Duplicate-key detection, scoped per section: a scalar key appearing
  // twice silently overwrote its first value and hid config typos.
  std::map<std::string, int> seen_keys;  // key -> first line in this section

  std::istringstream is(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(is, raw)) {
    ++line_no;
    // Strip comments.
    const size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const std::vector<std::string> tokens = Tokenize(raw);
    if (tokens.empty()) continue;
    const std::string where =
        source_name + ":" + std::to_string(line_no) + ": ";

    if (tokens[0].front() == '[') {
      if (tokens.size() != 1) {
        return Status::InvalidArgument(
            where + "trailing tokens after section header " + tokens[0]);
      }
      const SectionSchema* s = FindSection(tokens[0]);
      if (s == nullptr) {
        return Status::InvalidArgument(where + "unknown section " +
                                       tokens[0] + " (expected " +
                                       JoinOr(Headers(false)) + ")");
      }
      section = s->name;
      seen_keys.clear();
      if (s->workload) {
        spec.workloads.emplace_back();
        spec.workloads.back().kind = s->kind;
        spec.workloads.back().preset = s->preset;
      }
      continue;
    }

    const std::string& key = tokens[0];
    const KeySchema* ks = FindKeySchema(section, key);
    if (ks == nullptr) {
      return Status::InvalidArgument(
          where + "unknown key '" + key + "' in " +
          (section.empty() ? "the global section" : "[" + section + "]"));
    }
    if (!ks->repeatable) {
      const auto [it, inserted] = seen_keys.emplace(key, line_no);
      if (!inserted) {
        return Status::InvalidArgument(
            where + "duplicate key '" + key + "' (first set at " +
            source_name + ":" + std::to_string(it->second) + ")");
      }
    }
    std::vector<ParsedValue> values;
    if (Status s = ParseValues(where, *ks, tokens, &values); !s.ok()) {
      return s;
    }
    KeyLine line{spec, values};
    ks->apply(line);
    if (line.broken_rule != nullptr) {
      return Status::InvalidArgument(where + "key '" + key + "' wants " +
                                     line.broken_rule);
    }
  }

  if (spec.workloads.empty()) {
    std::string headers;
    for (const std::string& h : Headers(true)) {
      headers += (headers.empty() ? "" : " / ") + h;
    }
    return Status::InvalidArgument(source_name + ": no workload sections (" +
                                   headers + ")");
  }
  bool any_hostile = false;
  for (size_t i = 0; i < spec.workloads.size(); ++i) {
    WorkloadSpec& w = spec.workloads[i];
    if (w.client_steps.empty()) {
      return Status::InvalidArgument(source_name + ": workload section " +
                                     std::to_string(i + 1) +
                                     " has no clients lines");
    }
    std::sort(w.client_steps.begin(), w.client_steps.end());
    any_hostile = any_hostile || w.kind == WorkloadSpec::Kind::kHostile;
  }
  if (Status s = spec.database.params.Validate(); !s.ok()) return s;

  // Kill/user-abort counters only exist for chaos scenarios, keeping
  // fault-free metric exports byte-identical.
  spec.runner.robustness_metrics =
      !spec.database.fault.empty() || any_hostile;
  return spec;
}

Result<ScenarioSpec> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseScenario(buffer.str(), path);
}

Result<std::unique_ptr<LoadedScenario>> LoadedScenario::Create(
    const ScenarioSpec& spec) {
  std::unique_ptr<LoadedScenario> loaded(new LoadedScenario());
  Result<std::unique_ptr<Database>> db = Database::Open(spec.database);
  if (!db.ok()) return db.status();
  loaded->database_ = std::move(db).value();

  std::vector<ClientTimeline> timelines;
  int64_t total_app_slots = 0;
  for (const WorkloadSpec& w : spec.workloads) {
    const Catalog& catalog = loaded->database_->catalog();
    std::unique_ptr<Workload> workload;
    if (w.kind == WorkloadSpec::Kind::kOltp) {
      workload = std::make_unique<OltpWorkload>(catalog, w.oltp);
    } else {
      const ScanOptions scan = ScanDefaults(w.preset, w.scan);
      if (catalog.FindByName(scan.table) == nullptr) {
        std::string section;
        for (const SectionSchema& s : ScenarioSections()) {
          if (s.workload && s.kind == w.kind) section = s.name;
        }
        return Status::InvalidArgument("unknown " + section + " table " +
                                       scan.table);
      }
      workload = std::make_unique<ScanWorkload>(catalog, scan);
    }
    ClientTimeline tl;
    tl.workload = workload.get();
    tl.steps = w.client_steps;
    total_app_slots += tl.MaxClients();
    timelines.push_back(tl);
    loaded->workloads_.push_back(std::move(workload));
  }
  // kill_app targets are 1-based application indices; an index past the
  // scenario's population would trip the runner's bounds check at fire
  // time — reject it up front with a useful message instead.
  for (const FaultKillSpec& k : spec.database.fault.kills) {
    if (static_cast<int64_t>(k.app) > total_app_slots) {
      return Status::InvalidArgument(
          "kill_app target " + std::to_string(k.app) + " exceeds the " +
          std::to_string(total_app_slots) +
          " application slot(s) in this scenario");
    }
  }
  loaded->runner_ = std::make_unique<ScenarioRunner>(
      loaded->database_.get(), std::move(timelines), spec.runner);
  return loaded;
}

}  // namespace locktune
