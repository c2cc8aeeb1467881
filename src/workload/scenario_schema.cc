#include "workload/scenario_schema.h"

namespace locktune {

ValueSchema ValueSchema::IntIn(int64_t min, int64_t max) {
  ValueSchema v;
  v.kind = ValueKind::kInt;
  v.int_min = min;
  v.int_max = max;
  return v;
}

ValueSchema ValueSchema::DoubleIn(double lo, bool lo_open, double hi,
                                  bool hi_open) {
  ValueSchema v;
  v.kind = ValueKind::kDouble;
  v.lo = lo;
  v.hi = hi;
  v.lo_open = lo_open;
  v.hi_open = hi_open;
  return v;
}

ValueSchema ValueSchema::NameOf(std::vector<std::string> choices) {
  ValueSchema v;
  v.kind = ValueKind::kName;
  v.choices = std::move(choices);
  return v;
}

namespace {

using Kind = WorkloadSpec::Kind;

// Shorthand used only by the table below.
ValueSchema Seconds() { return ValueSchema::IntIn(0, kMaxScenarioSeconds); }
ValueSchema PositiveSeconds() {
  return ValueSchema::IntIn(1, kMaxScenarioSeconds);
}
ValueSchema TableName() {
  // The built-in catalog's tables (engine/catalog.cc).
  return ValueSchema::NameOf({"tpcc_warehouse", "tpcc_district",
                              "tpcc_customer", "tpcc_orders",
                              "tpcc_order_line", "tpcc_stock", "tpcc_item",
                              "tpcc_new_order", "tpcc_history",
                              "tpch_lineitem", "tpch_orders",
                              "tpch_customer", "tpch_part", "tpch_partsupp",
                              "tpch_supplier", "tpch_nation"});
}

// Reads a fault window [from_s, until_s), values 1 and 2 of its line,
// into `w`; false, with the line's rule broken, when it is empty.
bool ReadWindow(KeyLine& l, FaultWindowSpec* w) {
  if (l.values[2].i <= l.values[1].i) {
    l.broken_rule = "until_s > from_s (the window [from, until) is empty)";
    return false;
  }
  w->from = l.values[1].i * kSecond;
  w->until = l.values[2].i * kSecond;
  return true;
}

struct Schema {
  std::vector<SectionSchema> sections;
  std::vector<KeySchema> keys;
};

Schema BuildSchema() {
  Schema schema;
  std::string section;  // the section the next keys belong to
  const auto begin = [&](SectionSchema s) {
    section = s.name;
    schema.sections.push_back(std::move(s));
  };
  const auto key = [&](std::string name, std::vector<ValueSchema> values,
                       size_t min_values, bool repeatable,
                       void (*apply)(KeyLine&)) {
    KeySchema k;
    k.section = section;
    k.key = std::move(name);
    k.values = std::move(values);
    k.min_values = min_values;
    k.repeatable = repeatable;
    k.apply = apply;
    schema.keys.push_back(std::move(k));
  };
  const auto one = [&](std::string name, ValueSchema value,
                       void (*apply)(KeyLine&)) {
    key(std::move(name), {std::move(value)}, 1, false, apply);
  };
  // The keys every scan section has; the total-locks key is named per
  // section, and [dss] always scans tpch_lineitem in S.
  const auto scan_keys = [&](std::string total_locks_key,
                             bool table_and_mode) {
    one(std::move(total_locks_key), ValueSchema::IntIn(1, kMaxScenarioLocks),
        [](KeyLine& l) { l.workload().scan.total_locks = l.values[0].i; });
    one("locks_per_tick", ValueSchema::IntIn(1, kMaxScenarioLocksPerTick),
        [](KeyLine& l) {
          l.workload().scan.locks_per_tick = static_cast<int>(l.values[0].i);
        });
    one("hold_time_s", Seconds(), [](KeyLine& l) {
      l.workload().scan.hold_time = l.values[0].i * kSecond;
    });
    one("think_time_s", Seconds(), [](KeyLine& l) {
      l.workload().scan.think_time = l.values[0].i * kSecond;
    });
    if (!table_and_mode) return;
    one("table", TableName(),
        [](KeyLine& l) { l.workload().scan.table = l.values[0].name; });
    one("mode",
        ValueSchema::EnumOf<LockMode>(
            {{"S", LockMode::kS}, {"U", LockMode::kU}, {"X", LockMode::kX}}),
        [](KeyLine& l) {
          l.workload().scan.mode = static_cast<LockMode>(l.values[0].i);
        });
  };

  // Global section.
  one("database_memory_mb", ValueSchema::IntIn(1, kMaxScenarioMemoryMb),
      [](KeyLine& l) {
        l.spec.database.params.database_memory = l.values[0].i * kMiB;
      });
  one("mode",
      ValueSchema::EnumOf<TuningMode>(
          {{"selftuning", TuningMode::kSelfTuning},
           {"static", TuningMode::kStatic},
           {"sqlserver", TuningMode::kSqlServer}}),
      [](KeyLine& l) {
        l.spec.database.mode = static_cast<TuningMode>(l.values[0].i);
      });
  one("static_locklist_pages", ValueSchema::IntIn(1, kMaxScenarioPages),
      [](KeyLine& l) {
        l.spec.database.static_locklist_pages = l.values[0].i;
      });
  one("static_maxlocks_percent", ValueSchema::DoubleIn(0, true, 100, false),
      [](KeyLine& l) {
        l.spec.database.static_maxlocks_percent = l.values[0].d;
      });
  one("initial_locklist_pages", ValueSchema::IntIn(1, kMaxScenarioPages),
      [](KeyLine& l) {
        l.spec.database.params.initial_locklist_pages = l.values[0].i;
      });
  one("tuning_interval_s", PositiveSeconds(), [](KeyLine& l) {
    l.spec.database.params.tuning_interval = l.values[0].i * kSecond;
  });
  one("adaptive_interval",
      ValueSchema::EnumOf<bool>({{"on", true}, {"off", false}}),
      [](KeyLine& l) {
        l.spec.database.params.adaptive_interval = l.values[0].i != 0;
      });
  one("lock_timeout_ms",
      ValueSchema::IntIn(-kMaxScenarioTimeoutMs, kMaxScenarioTimeoutMs),
      [](KeyLine& l) { l.spec.database.lock_timeout = l.values[0].i; });
  one("duration_s", PositiveSeconds(), [](KeyLine& l) {
    l.spec.runner.duration = l.values[0].i * kSecond;
  });
  one("sample_period_s", PositiveSeconds(), [](KeyLine& l) {
    l.spec.runner.sample_period = l.values[0].i * kSecond;
  });
  one("seed", ValueSchema::IntIn(INT64_MIN, INT64_MAX), [](KeyLine& l) {
    l.spec.SetSeed(static_cast<uint64_t>(l.values[0].i));
  });
  one("delta_reduce_percent", ValueSchema::DoubleIn(0, true, 100, true),
      [](KeyLine& l) {
        l.spec.database.params.delta_reduce = l.values[0].d / 100.0;
      });

  // Shared by every workload section.
  section = kSharedWorkloadSection;
  key("clients", {Seconds(), ValueSchema::IntIn(0, kMaxScenarioClients)}, 2,
      true, [](KeyLine& l) {
        l.workload().client_steps.push_back(
            {l.values[0].i * kSecond, static_cast<int>(l.values[1].i)});
      });

  begin({"oltp", true, Kind::kOltp});
  one("mean_locks_per_txn", ValueSchema::IntIn(1, kMaxScenarioLocks),
      [](KeyLine& l) {
        l.workload().oltp.mean_locks_per_txn = l.values[0].i;
      });
  one("locks_per_tick", ValueSchema::IntIn(1, kMaxScenarioLocksPerTick),
      [](KeyLine& l) {
        l.workload().oltp.locks_per_tick = static_cast<int>(l.values[0].i);
      });
  one("write_fraction", ValueSchema::DoubleIn(0, false, 1, false),
      [](KeyLine& l) { l.workload().oltp.write_fraction = l.values[0].d; });
  one("think_time_ms", ValueSchema::IntIn(0, kMaxScenarioThinkMs),
      [](KeyLine& l) { l.workload().oltp.think_time = l.values[0].i; });
  one("zipf", ValueSchema::DoubleIn(0, false, 1, true),
      [](KeyLine& l) { l.workload().oltp.row_zipf_theta = l.values[0].d; });

  begin({"dss", true, Kind::kDss, ScanPreset::kDss});
  scan_keys("scan_locks", false);

  begin({"batch", true, Kind::kBatch, ScanPreset::kBatch});
  scan_keys("rows_per_batch", true);

  begin({"hostile", true, Kind::kHostile, ScanPreset::kLockHog});
  one("archetype",
      ValueSchema::EnumOf<ScanPreset>(
          {{"lock_hog", ScanPreset::kLockHog},
           {"idle_holder", ScanPreset::kIdleHolder},
           {"abort_storm", ScanPreset::kAbortStorm},
           {"request_storm", ScanPreset::kRequestStorm}}),
      [](KeyLine& l) {
        l.workload().preset = static_cast<ScanPreset>(l.values[0].i);
      });
  scan_keys("locks_per_txn", true);

  begin({"fault"});
  one("fault_seed", ValueSchema::IntIn(INT64_MIN, INT64_MAX),
      [](KeyLine& l) {
        l.spec.database.fault.seed = static_cast<uint64_t>(l.values[0].i);
      });
  key("deny_heap",
      {ValueSchema::NameOf(
           {"locklist", "buffer_pool", "sort", "package_cache", "*"}),
       Seconds(), Seconds(), ValueSchema::DoubleIn(0, false, 1, false)},
      3, true, [](KeyLine& l) {
        FaultWindowSpec w;
        if (!ReadWindow(l, &w)) return;
        w.kind = FaultKind::kDenyHeapGrowth;
        w.heap = l.values[0].name;
        if (l.values.size() > 3) w.probability = l.values[3].d;
        l.spec.database.fault.windows.push_back(w);
      });
  key("squeeze_overflow_mb",
      {ValueSchema::IntIn(1, kMaxScenarioMemoryMb), Seconds(), Seconds()}, 3,
      true, [](KeyLine& l) {
        FaultWindowSpec w;
        if (!ReadWindow(l, &w)) return;
        w.kind = FaultKind::kSqueezeOverflow;
        w.heap = "*";
        w.amount = l.values[0].i * kMiB;
        l.spec.database.fault.windows.push_back(w);
      });
  key("kill_app", {ValueSchema::IntIn(1, kMaxScenarioClients), Seconds()}, 2,
      true, [](KeyLine& l) {
        FaultKillSpec k;
        k.at = l.values[1].i * kSecond;
        k.app = static_cast<int32_t>(l.values[0].i);
        l.spec.database.fault.kills.push_back(k);
      });

  return schema;
}

const Schema& TheSchema() {
  static const Schema* schema = new Schema(BuildSchema());
  return *schema;
}

}  // namespace

const std::vector<KeySchema>& ScenarioSchema() { return TheSchema().keys; }

const std::vector<SectionSchema>& ScenarioSections() {
  return TheSchema().sections;
}

const KeySchema* FindKeySchema(std::string_view section,
                               std::string_view key) {
  bool workload_section = section == kSharedWorkloadSection;
  for (const SectionSchema& s : ScenarioSections()) {
    if (s.name == section) workload_section = s.workload;
  }
  for (const KeySchema& k : ScenarioSchema()) {
    if (k.key != key) continue;
    if (k.section == section ||
        (k.section == kSharedWorkloadSection && workload_section)) {
      return &k;
    }
  }
  return nullptr;
}

}  // namespace locktune
