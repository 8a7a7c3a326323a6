// The benchmark's three workloads, each driven through the library's public
// API only (Djvm, TenantContext via ClusterCoordinator, the app classes).
//
//   nbody_governed   Barnes-Hut under the closed-loop governor: the access
//                    path (access check, stack sampler, footprinting).
//   serving_tenants  three request-serving tenants under one arbitrated
//                    budget: arbiter, migration execution, snapshot/timeline
//                    export.
//   shared_fold      a generated driver where every hot object has one
//                    reader per thread each epoch: the daemon's fold.
//
// A Scenario is one episode's state.  The driver calls construct(), build()
// and apply_rates() (the set-up), then step() and run_epoch() once per epoch.
// The same workload also runs in check modes outside the timed window: with
// profiling off (checksum reference), at full fidelity (accuracy oracle) and
// with the GOS record tap on (build_reference replay).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/djvm.hpp"
#include "governor/arbiter.hpp"

namespace perfbench {

enum class Mode : std::uint8_t {
  kMeasured,      ///< the configuration the benchmark times
  kProfilingOff,  ///< no OALs, samplers or governor: the checksum reference
  kOracle,        ///< gap 1, governor off, no migration or export
  kRecordTap,     ///< as measured, plus the GOS record tap
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;        ///< smoke size: seconds-scale, not a measurement
  std::string scratch_dir;  ///< where exports and spans are written
};

/// One tenant's result of one epoch call.
struct TenantEpoch {
  djvm::EpochResult result;
  /// OverheadMeter::profiling_seconds(result.sample) under the tenant's own
  /// governor cost model.
  double profiling_seconds = 0.0;
};

struct EpochOut {
  std::vector<TenantEpoch> tenants;
  std::optional<djvm::ArbitrationOutcome> arbitration;  ///< serving only
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  [[nodiscard]] virtual std::uint32_t epochs() const = 0;
  /// Span name of the epoch call.
  [[nodiscard]] virtual const char* epoch_span() const { return "core.run_epoch"; }

  /// Set-up, in order: the VM(s) with their threads, the workload's shared
  /// data, the starting sampling rates.
  virtual void construct() = 0;
  virtual void build() = 0;
  virtual void apply_rates() = 0;

  /// The workload's application work for one epoch (ends at a barrier).
  virtual void step(std::uint32_t epoch) = 0;
  /// The epoch call: Djvm::run_epoch or ClusterCoordinator::run_epoch.
  virtual EpochOut run_epoch() = 0;

  /// Deterministic digest of what the application computed.
  [[nodiscard]] virtual double checksum() const = 0;
  /// Every tenant VM, in tenant order.
  [[nodiscard]] virtual std::vector<djvm::Djvm*> vms() = 0;
  /// Per-tenant export directories (empty when the workload exports nothing).
  [[nodiscard]] virtual std::vector<std::string> export_dirs() const { return {}; }
};

[[nodiscard]] bool known_workload(std::string_view name);

/// A fresh episode of `opts.workload` in `mode` (nothing is built yet).
[[nodiscard]] std::unique_ptr<Scenario> make_scenario(const Options& opts,
                                                      Mode mode);

}  // namespace perfbench
