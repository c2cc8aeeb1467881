// The STMM controller's observability surface: one structured trace record
// per tuning pass (matching the history), and the metric families it
// registers.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/stmm_controller.h"
#include "core/stmm_report.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace locktune {
namespace {

constexpr TableId kTable = 1;

class StmmTraceTest : public ::testing::Test {
 protected:
  void Build() {
    params_.database_memory = 256 * kMiB;
    ASSERT_TRUE(params_.Validate().ok());
    memory_ = std::make_unique<DatabaseMemory>(params_.database_memory,
                                               params_.OverflowGoal());
    bp_ = memory_
              ->RegisterHeap("bp", ConsumerClass::kPerformance,
                             params_.database_memory / 2,
                             params_.database_memory / 16,
                             params_.database_memory)
              .value();
    pmcs_.AddConsumer(bp_, 3.0e18);
    lock_heap_ = memory_
                     ->RegisterHeap("locklist", ConsumerClass::kFunctional,
                                    params_.InitialLockMemory(),
                                    kLockBlockSize, params_.MaxLockMemory())
                     .value();
    policy_ = std::make_unique<AdaptiveMaxlocksPolicy>();
    LockManagerOptions lmo;
    lmo.initial_blocks = BytesToBlocks(params_.InitialLockMemory());
    lmo.max_lock_memory = params_.MaxLockMemory();
    lmo.database_memory = params_.database_memory;
    lmo.policy = policy_.get();
    lmo.grow_callback = [this](int64_t blocks) {
      return stmm_->GrantSynchronousGrowth(blocks);
    };
    locks_ = std::make_unique<LockManager>(std::move(lmo));
    stmm_ = std::make_unique<StmmController>(
        params_, &clock_, memory_.get(), lock_heap_, locks_.get(), &pmcs_,
        [] { return 1; });
  }

  void HoldRows(AppId app, int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(locks_->Lock(app, RowResource(kTable, i), LockMode::kS)
                    .outcome,
                LockOutcome::kGranted);
    }
  }

  TuningParams params_;
  SimClock clock_;
  std::unique_ptr<DatabaseMemory> memory_;
  MemoryHeap* bp_ = nullptr;
  MemoryHeap* lock_heap_ = nullptr;
  PmcModel pmcs_;
  std::unique_ptr<AdaptiveMaxlocksPolicy> policy_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<StmmController> stmm_;
};

TEST_F(StmmTraceTest, OneRecordPerPassMatchingHistory) {
  Build();
  MemoryTraceSink sink;
  stmm_->set_trace_sink(&sink);
  HoldRows(1, 4000);  // drives some GROW decisions
  for (int i = 0; i < 8; ++i) {
    clock_.Advance(params_.tuning_interval);
    stmm_->RunTuningPass();
  }
  ASSERT_EQ(stmm_->history().size(), 8u);
  ASSERT_EQ(sink.records().size(), 8u);
  for (size_t i = 0; i < sink.records().size(); ++i) {
    const TraceRecord& rec = sink.records()[i];
    const StmmIntervalRecord& hist = stmm_->history()[i];
    EXPECT_EQ(rec.kind(), "tuning_pass");
    EXPECT_EQ(rec.time_ms(), hist.time);
    ASSERT_NE(rec.Find("pass"), nullptr);
    EXPECT_EQ(*rec.Find("pass"), std::to_string(i + 1));
    // The traced action sequence is exactly the --stmm-report sequence.
    ASSERT_NE(rec.Find("action"), nullptr);
    EXPECT_EQ(*rec.Find("action"),
              "\"" + std::string(TunerActionName(hist.action)) + "\"");
    EXPECT_EQ(*rec.Find("allocated_after_bytes"),
              std::to_string(hist.lock_allocated));
    EXPECT_EQ(*rec.Find("lmoc_bytes"), std::to_string(hist.lmoc));
    // Every decision carries a non-trivial narrative.
    ASSERT_NE(rec.Find("why"), nullptr);
    EXPECT_GT(rec.Find("why")->size(), 10u);
  }
}

TEST_F(StmmTraceTest, NoSinkMeansNoTracing) {
  Build();
  stmm_->RunTuningPass();  // must not crash without a sink
  EXPECT_EQ(stmm_->history().size(), 1u);
}

TEST_F(StmmTraceTest, RegisterMetricsExposesTunerState) {
  Build();
  MetricsRegistry reg;
  stmm_->RegisterMetrics(&reg);
  HoldRows(1, 4000);
  for (int i = 0; i < 5; ++i) stmm_->RunTuningPass();

  double passes = 0.0;
  double action_sum = 0.0;
  double resize_count = 0.0;
  double lmoc = -1.0;
  bool saw_free_fraction = false;
  for (const MetricSample& s : reg.Collect()) {
    if (s.name == "locktune_stmm_passes_total") passes = s.value;
    if (MetricFamily(s.name) == "locktune_stmm_pass_actions_total") {
      action_sum += s.value;
    }
    if (s.name == "locktune_stmm_resize_bytes") {
      resize_count = static_cast<double>(s.histogram.total);
    }
    if (s.name == "locktune_stmm_lmoc_bytes") lmoc = s.value;
    if (s.name == "locktune_stmm_free_fraction") saw_free_fraction = true;
  }
  EXPECT_DOUBLE_EQ(passes, 5.0);
  // Every pass counts under exactly one action and adds one resize
  // magnitude.
  EXPECT_DOUBLE_EQ(action_sum, 5.0);
  EXPECT_DOUBLE_EQ(resize_count, 5.0);
  EXPECT_DOUBLE_EQ(lmoc, static_cast<double>(stmm_->lmoc()));
  EXPECT_TRUE(saw_free_fraction);
}

}  // namespace
}  // namespace locktune
