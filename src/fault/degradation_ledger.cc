#include "fault/degradation_ledger.h"

#include "common/check.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace locktune {

DegradationLedger::DegradationLedger(const SimClock* clock) : clock_(clock) {
  LOCKTUNE_CHECK(clock != nullptr);
}

void DegradationLedger::RecordInjection(std::string_view site,
                                        std::string_view detail) {
  ++injections_;
  ++by_site_[std::string(site)];
  FlightRecord(EventKind::kFaultInjection, clock_->now(), 0, 0, injections_);
  Trace("fault_injected", site, detail);
}

void DegradationLedger::RecordAbsorbed(std::string_view site,
                                       std::string_view detail) {
  ++absorbed_;
  FlightRecord(EventKind::kFaultAbsorbed, clock_->now(), 0, 0, absorbed_);
  Trace("fault_absorbed", site, detail);
}

void DegradationLedger::RecordRecovery(std::string_view site,
                                       std::string_view detail) {
  ++recoveries_;
  FlightRecord(EventKind::kFaultRecovery, clock_->now(), 0, 0, recoveries_);
  Trace("fault_recovered", site, detail);
}

void DegradationLedger::Trace(const char* kind, std::string_view site,
                              std::string_view detail) {
  if (trace_ == nullptr) return;
  TraceRecord rec(clock_->now(), kind);
  rec.Str("site", site).Str("detail", detail);
  trace_->Append(rec);
}

void DegradationLedger::RegisterMetrics(MetricsRegistry* registry) {
  registry->AddCallbackCounter(
      "locktune_fault_injections_total", "faults the FaultPlan delivered",
      [this] { return injections_; });
  registry->AddCallbackCounter(
      "locktune_fault_absorbed_total",
      "denials met with degraded-but-correct handling",
      [this] { return absorbed_; });
  registry->AddCallbackCounter(
      "locktune_fault_recoveries_total",
      "degraded paths returned to normal service",
      [this] { return recoveries_; });
}

Status DegradationLedger::CheckConsistency() const {
  if (injections_ < 0 || absorbed_ < 0 || recoveries_ < 0) {
    return Status::Internal("negative degradation-ledger counter");
  }
  int64_t site_sum = 0;
  for (const auto& [site, count] : by_site_) {
    if (count < 0) {
      return Status::Internal("negative injection count for site " + site);
    }
    site_sum += count;
  }
  if (site_sum != injections_) {
    return Status::Internal(
        "per-site injection counts do not sum to the injection total");
  }
  return Status::Ok();
}

}  // namespace locktune
