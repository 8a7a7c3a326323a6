#include "scenarios.hpp"

#include <filesystem>

#include "apps/barnes_hut.hpp"
#include "apps/request_serving.hpp"
#include "cluster/coordinator.hpp"
#include "common/rng.hpp"

namespace perfbench {

using namespace djvm;

namespace {

/// Retention is on everywhere so the daemon reports its whole-run
/// accumulator population (EpochResult::retained_*).  The idle window is
/// longer than shared_fold's reuse distance, so it never evicts there.
void apply_retention(Config& cfg) {
  cfg.retention.idle_epochs = 16;
  cfg.retention.compact_period = 4;
}

/// Turns the profiling stack off (kProfilingOff) or down to full fidelity
/// without feedback (kOracle); kMeasured and kRecordTap keep `cfg`.
void apply_mode(Config& cfg, Mode mode) {
  if (mode == Mode::kProfilingOff) {
    cfg.oal_transfer = OalTransfer::kDisabled;
    cfg.stack_sampling = false;
    cfg.footprinting = false;
  }
  if (mode == Mode::kProfilingOff || mode == Mode::kOracle) {
    cfg.sampling_rate_x = 0;
    cfg.governor.enabled = false;
    cfg.balance.max_migrations_per_epoch = 2;
    cfg.export_ = ExportKnobs{};
  }
}

EpochOut single_tenant_epoch(Djvm& vm) {
  EpochOut out;
  TenantEpoch te;
  te.result = vm.run_epoch();
  te.profiling_seconds = vm.governor().meter().profiling_seconds(te.result.sample);
  out.tenants.push_back(std::move(te));
  return out;
}

// --- nbody_governed ---------------------------------------------------------

class NbodyGoverned final : public Scenario {
 public:
  NbodyGoverned(const Options& opts, Mode mode) {
    cfg_.nodes = opts.tiny ? 2 : 8;
    cfg_.threads = opts.tiny ? 4 : 16;
    cfg_.seed = opts.seed;
    cfg_.oal_transfer = OalTransfer::kSend;
    // 8X: at 4X the first epoch's map is noisy enough that the governor
    // tightens instead of converging on some seeds (4 of 26 tried), which
    // doubles to quadruples the run's overhead; at 8X every seed tried
    // converges at epoch 1.
    cfg_.sampling_rate_x = 8;
    cfg_.governor.enabled = true;
    cfg_.stack_sampling = true;
    cfg_.footprinting = true;
    apply_retention(cfg_);
    apply_mode(cfg_, mode);
    params_.bodies = opts.tiny ? 256 : 2048;
    params_.rounds = 1;  // one simulation round per epoch
    epochs_ = opts.tiny ? 3 : 12;
  }

  std::uint32_t epochs() const override { return epochs_; }

  void construct() override {
    vm_ = std::make_unique<Djvm>(cfg_);
    vm_->spawn_threads_round_robin(cfg_.threads);
  }
  void build() override {
    app_ = std::make_unique<BarnesHutWorkload>(params_);
    app_->build(*vm_);
  }
  void apply_rates() override { vm_->plan().set_rate_all(cfg_.sampling_rate_x); }
  void step(std::uint32_t) override { app_->run(*vm_); }
  EpochOut run_epoch() override { return single_tenant_epoch(*vm_); }
  double checksum() const override { return app_->checksum(); }
  std::vector<Djvm*> vms() override { return {vm_.get()}; }

 private:
  Config cfg_;
  BarnesHutParams params_;
  std::uint32_t epochs_ = 0;
  std::unique_ptr<Djvm> vm_;
  std::unique_ptr<BarnesHutWorkload> app_;
};

// --- serving_tenants --------------------------------------------------------

class ServingTenants final : public Scenario {
 public:
  static constexpr std::uint32_t kTenants = 3;

  ServingTenants(const Options& opts, Mode mode) {
    epochs_ = opts.tiny ? 4 : 64;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      Config cfg;
      cfg.nodes = opts.tiny ? 2 : 4;
      cfg.threads = opts.tiny ? 4 : 8;
      cfg.seed = opts.seed * kTenants + t;
      cfg.oal_transfer = OalTransfer::kSend;
      cfg.sampling_rate_x = 4;
      cfg.governor.enabled = true;
      cfg.stack_sampling = true;
      cfg.footprinting = true;
      cfg.balance.max_migrations_per_epoch = 2;
      cfg.tenant.id = t;
      cfg.tenant.name = "tenant-" + std::to_string(t);
      apply_retention(cfg);
      const std::string dir =
          opts.scratch_dir + "/export/" + cfg.tenant.name;
      cfg.export_.snapshot_path = dir + "/snapshot.bin";
      cfg.export_.timeline_path = dir + "/timeline.jsonl";
      apply_mode(cfg, mode);
      if (!cfg.export_.snapshot_path.empty()) {
        std::filesystem::create_directories(dir);
        dirs_.push_back(dir);
      }
      cfgs_.push_back(cfg);

      RequestServingParams p;
      p.sessions_per_epoch = opts.tiny ? 32 : 256;
      p.hot_objects = opts.tiny ? 256 : 2048;
      p.epochs = epochs_;
      p.phase_period = epochs_ / 2;  // one diurnal shift inside the run
      p.seed = cfg.seed;
      params_.push_back(p);
    }
  }

  std::uint32_t epochs() const override { return epochs_; }
  const char* epoch_span() const override { return "cluster.round"; }

  /// A tight global budget (0.6%) keeps every tenant's governor
  /// budget-bound: each tenant's overhead settles near its grant whatever
  /// the seed (0.16-0.20% on the sizing seeds), and the arbiter still moves
  /// budget between tenants on some rounds.  Under the library default (2%)
  /// the governors swing between tighten and back-off, and how often
  /// depends on the seed.
  static ArbiterKnobs arbiter_knobs() {
    ArbiterKnobs knobs;
    knobs.global_budget = 0.006;
    return knobs;
  }

  void construct() override {
    cluster_ = std::make_unique<ClusterCoordinator>(arbiter_knobs());
    for (const Config& cfg : cfgs_) {
      TenantContext t = cluster_->add_tenant(cfg);
      t.vm().spawn_threads_round_robin(cfg.threads);
    }
  }
  void build() override {
    apps_.reserve(kTenants);
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      apps_.emplace_back(params_[t]);
      apps_.back().build(cluster_->vm(t));
    }
  }
  void apply_rates() override {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      cluster_->vm(t).plan().set_rate_all(cfgs_[t].sampling_rate_x);
    }
  }
  void step(std::uint32_t) override {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      apps_[t].serve_epoch(cluster_->vm(t));
    }
  }
  EpochOut run_epoch() override {
    ClusterCoordinator::ClusterEpoch round = cluster_->run_epoch();
    EpochOut out;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      TenantEpoch te;
      te.result = std::move(round.tenants[t]);
      te.profiling_seconds =
          cluster_->vm(t).governor().meter().profiling_seconds(te.result.sample);
      out.tenants.push_back(std::move(te));
    }
    out.arbitration = std::move(round.arbitration);
    return out;
  }
  double checksum() const override {
    double sum = 0.0;
    for (const RequestServingApp& app : apps_) sum += app.checksum();
    return sum;
  }
  std::vector<Djvm*> vms() override {
    std::vector<Djvm*> out;
    for (std::uint32_t t = 0; t < kTenants; ++t) out.push_back(&cluster_->vm(t));
    return out;
  }
  std::vector<std::string> export_dirs() const override { return dirs_; }

 private:
  std::uint32_t epochs_ = 0;
  std::vector<Config> cfgs_;
  std::vector<RequestServingParams> params_;
  std::vector<std::string> dirs_;
  std::unique_ptr<ClusterCoordinator> cluster_;
  std::vector<RequestServingApp> apps_;
};

// --- shared_fold ------------------------------------------------------------

class SharedFold final : public Scenario {
 public:
  SharedFold(const Options& opts, Mode mode) : mode_(mode), rng_(opts.seed) {
    cfg_.nodes = opts.tiny ? 4 : 8;
    cfg_.threads = opts.tiny ? 16 : 128;
    cfg_.seed = opts.seed;
    cfg_.oal_transfer = OalTransfer::kLocalOnly;
    cfg_.sampling_rate_x = 0;  // full sampling (gap 1)
    apply_retention(cfg_);
    apply_mode(cfg_, mode);
    pool_size_ = opts.tiny ? 32 : 256;
    tail_size_ = opts.tiny ? 64 : 512;
    epochs_ = opts.tiny ? 3 : 8;
  }

  std::uint32_t epochs() const override { return epochs_; }

  void construct() override {
    vm_ = std::make_unique<Djvm>(cfg_);
    vm_->spawn_threads_round_robin(cfg_.threads);
    if (mode_ == Mode::kRecordTap) vm_->gos().set_record_tap(true);
  }
  void build() override {
    const ClassId pool_class = vm_->registry().register_class("FoldPool", 64);
    const ClassId tail_class = vm_->registry().register_class("FoldTail", 64);
    for (std::uint32_t i = 0; i < pool_size_; ++i) {
      pool_.push_back(vm_->gos().alloc(
          pool_class, static_cast<NodeId>(rng_.next() % cfg_.nodes)));
    }
    tails_.resize(cfg_.threads);
    for (ThreadId t = 0; t < cfg_.threads; ++t) {
      for (std::uint32_t i = 0; i < tail_size_; ++i) {
        tails_[t].push_back(vm_->gos().alloc(tail_class, vm_->gos().thread_node(t)));
      }
    }
  }
  void apply_rates() override { vm_->plan().set_rate_all(cfg_.sampling_rate_x); }
  void step(std::uint32_t epoch) override {
    for (ThreadId t = 0; t < cfg_.threads; ++t) {
      // Each thread starts its pool scan at a seeded offset and computes for
      // a seeded while: the access set is fixed, the timing is not.
      const std::size_t start = rng_.next() % pool_.size();
      for (std::size_t i = 0; i < pool_.size(); ++i) {
        const ObjectId o = pool_[(start + i) % pool_.size()];
        vm_->read(t, o);
        checksum_ += static_cast<double>(o) * (epoch + 1);
      }
      for (const ObjectId o : tails_[t]) vm_->write(t, o);
      vm_->gos().clock(t).advance(sim_us(20 + rng_.next() % 40));
    }
    vm_->barrier_all();
  }
  EpochOut run_epoch() override { return single_tenant_epoch(*vm_); }
  double checksum() const override { return checksum_; }
  std::vector<Djvm*> vms() override { return {vm_.get()}; }

 private:
  Mode mode_;
  Config cfg_;
  SplitMix64 rng_;
  std::uint32_t pool_size_ = 0;
  std::uint32_t tail_size_ = 0;
  std::uint32_t epochs_ = 0;
  std::unique_ptr<Djvm> vm_;
  std::vector<ObjectId> pool_;
  std::vector<std::vector<ObjectId>> tails_;
  double checksum_ = 0.0;
};

}  // namespace

bool known_workload(std::string_view name) {
  return name == "nbody_governed" || name == "serving_tenants" ||
         name == "shared_fold";
}

std::unique_ptr<Scenario> make_scenario(const Options& opts, Mode mode) {
  if (opts.workload == "nbody_governed") {
    return std::make_unique<NbodyGoverned>(opts, mode);
  }
  if (opts.workload == "serving_tenants") {
    return std::make_unique<ServingTenants>(opts, mode);
  }
  if (opts.workload == "shared_fold") {
    return std::make_unique<SharedFold>(opts, mode);
  }
  return nullptr;
}

}  // namespace perfbench
