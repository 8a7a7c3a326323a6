// perfbench: runs one workload for a fixed host-time budget and prints one
// JSON object of raw measurements (per-episode samples, checks, run
// metadata) as its last line.  perfbench/run.py builds this binary, drives
// it and turns the samples into the benchmark's metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--size full|tiny]
//
// A run repeats whole episodes (set-up, then a fixed number of epochs) until
// `--seconds` have passed, so every episode of a seed computes the same
// deterministic outputs and the host timings gain samples.  Each episode
// from the third on is preceded by a short calibration loop
// (calibration_probe) that gauges the host's speed at that moment.  With
// --trace 1
// the episodes alternate untraced and traced; the traced ones call
// pump_daemon() before each epoch call so the pump is its own span, and
// their spans are written to <scratch>/spans.jsonl.  Checks (profiling-off
// checksum, accuracy oracle, build_reference replay) run after the timed
// episodes and never count towards a timing.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "export/exporter.hpp"
#include "governor/snapshot.hpp"
#include "json.hpp"
#include "profiling/accuracy.hpp"
#include "profiling/tcm.hpp"
#include "scenarios.hpp"
#include "trace.hpp"

using namespace djvm;
using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Set-up-only repetitions after the timed episodes (see main).
constexpr int kSetupRepeats = 32;

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Deterministic outputs of one episode: every episode of a seed must agree
/// on all of them, traced or not.
struct Outputs {
  double makespan_s = 0.0;      ///< median tenant's latest thread clock
  double makespan_max_s = 0.0;  ///< latest thread clock of any tenant
  double profiling_s = 0.0;
  double app_s = 0.0;
  double checksum = 0.0;
  std::uint64_t digest = 0;  ///< FNV-1a over every tenant's final map
  std::uint64_t failed = 0;

  bool operator==(const Outputs&) const = default;
};

struct Episode {
  bool traced = false;
  double probe_s = 0.0;  ///< calibration loop just before it (0: none ran)
  double setup_s = 0.0;
  double window_s = 0.0;  ///< workload steps plus epoch calls
  double wall_s = 0.0;    ///< set-up through the final export flush
  std::vector<double> epoch_ms;
  std::uint64_t accesses = 0;
  std::uint64_t attempted = 0;
  Outputs out;
  std::vector<SquareMatrix> maps;  ///< build_full() per tenant
  std::vector<Check> checks;
};

/// Median of a non-empty sample (the mean of the middle two when even).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

ProtocolStats sum_stats(const std::vector<Djvm*>& vms) {
  ProtocolStats s;
  for (Djvm* vm : vms) {
    const ProtocolStats& p = vm->gos().stats();
    s.accesses += p.accesses;
    s.object_faults += p.object_faults;
    s.diffs_sent += p.diffs_sent;
    s.intervals_closed += p.intervals_closed;
    s.oal_entries += p.oal_entries;
    s.stack_samples += p.stack_samples;
    s.footprint_touches += p.footprint_touches;
  }
  return s;
}

IngestCounters sum_ingest(const std::vector<Djvm*>& vms) {
  IngestCounters c;
  for (Djvm* vm : vms) {
    const IngestCounters h = vm->ingest_hub()->counters();
    c.arenas_published += h.arenas_published;
    c.arenas_drained += h.arenas_drained;
    c.entries_drained += h.entries_drained;
  }
  return c;
}

Attrs step_attrs(const ProtocolStats& a, const ProtocolStats& b) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  return {{"accesses", d(a.accesses, b.accesses)},
          {"object_faults", d(a.object_faults, b.object_faults)},
          {"diffs_sent", d(a.diffs_sent, b.diffs_sent)},
          {"intervals_closed", d(a.intervals_closed, b.intervals_closed)},
          {"oal_entries", d(a.oal_entries, b.oal_entries)},
          {"stack_samples", d(a.stack_samples, b.stack_samples)},
          {"footprint_touches", d(a.footprint_touches, b.footprint_touches)}};
}

/// An epoch fails when its ring dropped entries or its map is degraded.
bool epoch_failed(const EpochResult& r) { return r.ring_dropped > 0 || r.degraded; }

Attrs epoch_attrs(const EpochOut& out) {
  double ring_published = 0, ring_backpressure = 0, ring_dropped = 0;
  double densify_s = 0, build_s = 0, retained_objects = 0, retained_readers = 0;
  double tighten = 0, backoff = 0, converge = 0, rate_changes = 0, resampled = 0;
  double suggestions = 0, executed = 0, prefetched = 0, homes = 0, migration_s = 0;
  double bytes[4] = {0, 0, 0, 0};
  double failed = 0;
  for (const TenantEpoch& te : out.tenants) {
    const EpochResult& r = te.result;
    ring_published += static_cast<double>(r.ring_published);
    ring_backpressure += static_cast<double>(r.ring_backpressure);
    ring_dropped += static_cast<double>(r.ring_dropped);
    densify_s += r.densify_seconds;
    build_s += r.build_seconds;
    retained_objects += static_cast<double>(r.retained_objects);
    retained_readers += static_cast<double>(r.retained_readers);
    tighten += r.action == GovernorAction::kTighten;
    backoff += r.action == GovernorAction::kBackOff;
    converge += r.action == GovernorAction::kConverge;
    rate_changes += r.rate_changed;
    resampled += static_cast<double>(r.resampled_objects);
    for (const EpochResult::MigrationEvent& m : r.migrations) {
      suggestions += 1;
      if (!m.executed) continue;
      executed += 1;
      prefetched += static_cast<double>(m.prefetched_bytes);
      homes += static_cast<double>(m.homes_migrated);
    }
    migration_s += r.migration_seconds;
    for (std::size_t c = 0; c < 4 && c < r.traffic_bytes.size(); ++c) {
      bytes[c] += static_cast<double>(r.traffic_bytes[c]);
    }
    failed += epoch_failed(r);
  }
  Attrs a = {{"ring_published", ring_published},
             {"ring_backpressure", ring_backpressure},
             {"ring_dropped", ring_dropped},
             {"densify_s", densify_s},
             {"build_s", build_s},
             {"retained_objects", retained_objects},
             {"retained_readers", retained_readers},
             {"tighten", tighten},
             {"backoff", backoff},
             {"converge", converge},
             {"rate_changes", rate_changes},
             {"resampled_objects", resampled},
             {"suggestions", suggestions},
             {"executed", executed},
             {"deferred", suggestions - executed},
             {"prefetched_bytes", prefetched},
             {"homes_migrated", homes},
             {"migration_s", migration_s},
             {"bytes_object_data", bytes[0]},
             {"bytes_oal", bytes[1]},
             {"bytes_control", bytes[2]},
             {"bytes_migration", bytes[3]},
             {"failed", failed}};
  if (out.arbitration) {
    a.emplace_back("arbiter_s", out.arbitration->decision_seconds);
    a.emplace_back("borrow_round", out.arbitration->borrowers > 0 ? 1.0 : 0.0);
  }
  return a;
}

/// Runs one episode.  `keep` receives the scenario (still alive, exports
/// flushed) when non-null; otherwise it is destroyed before returning.
Episode run_episode(const Options& opts, Mode mode, Tracer& tracer, bool traced,
                    std::unique_ptr<Scenario>* keep = nullptr) {
  std::unique_ptr<Scenario> sc = make_scenario(opts, mode);
  Episode ep;
  ep.traced = traced;
  Tracer off(false);
  Tracer& t = traced ? tracer : off;

  const std::int64_t root = t.open("episode");
  const Clock::time_point t0 = Clock::now();

  // --- set-up ---
  const std::int64_t setup = t.open("setup");
  sc->construct();
  const Clock::time_point t1 = Clock::now();
  sc->build();
  const Clock::time_point t2 = Clock::now();
  sc->apply_rates();
  const Clock::time_point t3 = Clock::now();
  ep.setup_s = seconds(t0, t3);
  const std::vector<Djvm*> vms = sc->vms();
  if (t.enabled()) {
    double objects = 0;
    for (Djvm* vm : vms) objects += static_cast<double>(vm->heap().object_count());
    t.close(setup, {{"vm_s", seconds(t0, t1)},
                    {"build_s", seconds(t1, t2)},
                    {"rates_s", seconds(t2, t3)},
                    {"objects", objects}});
  }

  // --- timed window: steps plus epoch calls ---
  const std::uint64_t accesses0 = sum_stats(vms).accesses;
  for (std::uint32_t e = 0; e < sc->epochs(); ++e) {
    const Clock::time_point s0 = Clock::now();
    if (t.enabled()) {
      const ProtocolStats before = sum_stats(vms);
      const std::int64_t span = t.open("dsm.step", e);
      sc->step(e);
      t.close(span, step_attrs(before, sum_stats(vms)));

      const IngestCounters ib = sum_ingest(vms);
      const std::int64_t pump = t.open("profiling.pump", e);
      for (Djvm* vm : vms) vm->pump_daemon();
      const IngestCounters ia = sum_ingest(vms);
      t.close(pump, {{"arenas", static_cast<double>(ia.arenas_drained - ib.arenas_drained)},
                     {"entries", static_cast<double>(ia.entries_drained - ib.entries_drained)}});
    } else {
      sc->step(e);
    }
    const std::int64_t span = t.open(sc->epoch_span(), e);
    const Clock::time_point e0 = Clock::now();
    EpochOut out = sc->run_epoch();
    const Clock::time_point e1 = Clock::now();
    if (t.enabled()) t.close(span, epoch_attrs(out));
    ep.window_s += seconds(s0, e1);
    ep.epoch_ms.push_back(seconds(e0, e1) * 1e3);
    for (const TenantEpoch& te : out.tenants) {
      ++ep.attempted;
      ep.out.failed += epoch_failed(te.result);
      ep.out.profiling_s += te.profiling_seconds;
      ep.out.app_s += te.result.sample.app_seconds;
    }
  }
  ep.accesses = sum_stats(vms).accesses - accesses0;

  // --- final export flush ---
  const std::int64_t flush = t.open("export.flush");
  double submitted = 0, coalesced = 0, appended = 0, writes = 0;
  for (Djvm* vm : vms) {
    if (SnapshotWriter* w = vm->snapshot_writer()) {
      w->flush();
      submitted += static_cast<double>(w->submitted());
      coalesced += static_cast<double>(w->coalesced());
      appended += static_cast<double>(w->appended());
      writes += static_cast<double>(w->append_writes());
    }
  }
  ep.wall_s = seconds(t0, Clock::now());
  t.close(flush, {{"snapshots_submitted", submitted},
                  {"snapshots_coalesced", coalesced},
                  {"lines_appended", appended},
                  {"append_writes", writes}});
  t.close(root);

  // --- deterministic outputs and structural checks (untimed) ---
  ep.out.checksum = sc->checksum();
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  std::vector<double> makespans;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    Djvm& vm = *vms[i];
    SimTime makespan = 0;
    for (ThreadId th = 0; th < vm.thread_count(); ++th) {
      makespan = std::max(makespan, vm.gos().clock(th).now());
    }
    makespans.push_back(static_cast<double>(makespan) * 1e-9);
    ep.maps.push_back(vm.daemon().build_full());
    const std::vector<double>& raw = ep.maps.back().raw();
    digest = fnv1a(digest, raw.data(), raw.size() * sizeof(double));
    const IngestCounters ic = vm.ingest_hub()->counters();
    if (ic.arenas_published != ic.arenas_drained) {
      ep.checks.push_back({"ring_published_equals_drained", false,
                           "tenant " + std::to_string(i) + ": published " +
                               std::to_string(ic.arenas_published) + ", drained " +
                               std::to_string(ic.arenas_drained)});
    }
    if (SnapshotWriter* w = vm.snapshot_writer()) {
      const std::string tag = "tenant " + std::to_string(i);
      if (!w->all_ok()) ep.checks.push_back({"export_writes_ok", false, tag});
      if (w->submitted() != sc->epochs()) {
        ep.checks.push_back({"export_snapshots_submitted", false,
                             tag + ": " + std::to_string(w->submitted()) +
                                 " submitted for " + std::to_string(sc->epochs()) +
                                 " rounds"});
      }
      bool torn = false;
      const std::size_t lines =
          recover_timeline(vm.config().export_.timeline_path, &torn).size();
      if (lines != sc->epochs() || torn) {
        ep.checks.push_back({"export_timeline_lines", false,
                             tag + ": " + std::to_string(lines) + " lines for " +
                                 std::to_string(sc->epochs()) + " epochs"});
      }
    }
  }
  ep.out.digest = digest;
  ep.out.makespan_s = median(makespans);
  ep.out.makespan_max_s = *std::max_element(makespans.begin(), makespans.end());
  if (keep) *keep = std::move(sc);
  return ep;
}

/// Converts each tenant's final snapshot into the artifacts
/// tools/validate_export.py checks (profile.pb, collapsed.txt,
/// snapshot.json next to timeline.jsonl).
Check convert_exports(Scenario& sc) {
  const std::vector<std::string> dirs = sc.export_dirs();
  const std::vector<Djvm*> vms = sc.vms();
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    std::ifstream in(dirs[i] + "/snapshot.bin", std::ios::binary);
    const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                          std::istreambuf_iterator<char>());
    SnapshotInfo info;
    if (!parse_snapshot(bytes, info)) {
      return {"export_snapshot_parses", false, dirs[i]};
    }
    std::vector<std::string> names;
    for (const Klass& k : vms[i]->registry().all()) {
      if (k.id >= names.size()) names.resize(k.id + 1);
      names[k.id] = k.name;
    }
    const std::vector<std::uint8_t> pb = export_pprof(info, names);
    std::ofstream(dirs[i] + "/profile.pb", std::ios::binary)
        .write(reinterpret_cast<const char*>(pb.data()),
               static_cast<std::streamsize>(pb.size()));
    std::ofstream(dirs[i] + "/collapsed.txt") << export_collapsed(info, names);
    std::ofstream(dirs[i] + "/snapshot.json") << export_snapshot_json(info, names);
  }
  return {"export_artifacts_written", true, std::to_string(dirs.size()) + " tenants"};
}

SquareMatrix unit_mass(SquareMatrix m) {
  const double total = m.total();
  if (total > 0.0) {
    for (double& v : m.raw()) v /= total;
  }
  return m;
}

/// 1 - E_ABS (eq. 2) of `map` against `oracle`, both scaled to unit mass.
/// What placement consumes is the relative sharing structure; the HT-weighted
/// estimate of a governed run can over- or undershoot the whole map's mass
/// (reported separately as the mass ratio), which raw eq. 2 would count as
/// error on every cell.
double map_accuracy(const SquareMatrix& map, const SquareMatrix& oracle) {
  return 1.0 - absolute_error(unit_mass(map), unit_mass(oracle));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return std::nan("");
}

/// Host seconds of a fixed calibration loop: 2^20 pseudo-random
/// read-modify-writes over a 16 MiB array, a working set that sits in the
/// last-level cache like the workloads' own state.  It touches nothing of
/// the library, so a change to the program never moves it; what moves it is
/// the host's speed while it runs, which run.py divides out of the host
/// timings.
double calibration_probe() {
  static std::vector<std::uint64_t> buf(std::size_t{1} << 21, 1);
  static volatile std::uint64_t sink = 0;
  std::uint64_t x = 1;
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k < (1 << 20); ++k) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    buf[(x >> 20) & (buf.size() - 1)] += x;
  }
  const double s = seconds(t0, Clock::now());
  sink = buf[x & (buf.size() - 1)];
  return s;
}

int usage() {
  std::cerr << "usage: perfbench --workload <nbody_governed|serving_tenants|"
               "shared_fold> --seed <n> --seconds <s> --trace <0|1> "
               "--scratch <dir> [--size full|tiny]\n";
  return 2;
}

void write_episode(JsonWriter& w, const Episode& ep) {
  w.begin_object();
  w.key("traced").boolean(ep.traced);
  w.key("probe_s").number(ep.probe_s);
  w.key("setup_s").number(ep.setup_s);
  w.key("window_s").number(ep.window_s);
  w.key("wall_s").number(ep.wall_s);
  w.key("accesses").number(static_cast<double>(ep.accesses));
  w.key("attempted").number(static_cast<double>(ep.attempted));
  w.key("failed").number(static_cast<double>(ep.out.failed));
  w.key("sim_makespan_s").number(ep.out.makespan_s);
  w.key("sim_makespan_max_s").number(ep.out.makespan_max_s);
  w.key("profiling_s").number(ep.out.profiling_s);
  w.key("app_s").number(ep.out.app_s);
  w.key("epoch_ms").begin_array();
  for (const double v : ep.epoch_ms) w.number(v);
  w.end_array();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  double budget_s = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      budget_s = std::stod(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else if (flag == "--scratch") {
      opts.scratch_dir = value;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return usage();
      opts.tiny = value == "tiny";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !known_workload(opts.workload) || budget_s < 0 ||
      (trace != 0 && trace != 1) || opts.scratch_dir.empty()) {
    return usage();
  }
  if (!kOptimized) {
    std::cerr << "perfbench: refusing to report from a non-optimized build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }
  std::filesystem::create_directories(opts.scratch_dir);

  // --- timed episodes ---
  // At least three untraced episodes; traced runs alternate untraced and
  // traced episodes, at least two of each.
  Tracer tracer(trace == 1);
  std::vector<Episode> episodes;
  std::unique_ptr<Scenario> last;
  double rss_mb = 0.0;
  const std::size_t min_episodes = trace == 1 ? 4 : 3;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t k = 0;; ++k) {
    const bool traced = trace == 1 && k % 2 == 1;
    tracer.set_episode(k);
    std::unique_ptr<Scenario> sc;
    // The calibration loop starts once the high-water mark has been read
    // (after two episodes), so its buffer never counts in peak_rss_mb.
    const double probe_s = episodes.size() >= 2 ? calibration_probe() : 0.0;
    episodes.push_back(run_episode(opts, Mode::kMeasured, tracer, traced, &sc));
    episodes.back().probe_s = probe_s;
    // Only the first episode's maps are compared against an oracle; the
    // others are checked through their digest.
    if (episodes.size() > 1) episodes.back().maps.clear();
    // Every episode does the same work, so the high-water mark is reached by
    // the first two (warm-up plus one); later episodes would only add the
    // allocator's fragmentation from tearing down and rebuilding the VMs,
    // which grows with the number of episodes that fit in the budget.
    if (episodes.size() == 2) rss_mb = peak_rss_mb();
    const bool done = episodes.size() >= min_episodes &&
                      seconds(start, Clock::now()) >= budget_s &&
                      (trace == 0 || traced);
    if (done) {
      last = std::move(sc);
      break;
    }
  }

  // More set-up samples: set-up is milliseconds long, so one per episode
  // leaves its median at the mercy of a few slow ones.
  // They get their own scratch directory: constructing a tenant truncates
  // its timeline, and the last episode's exports are still to be checked.
  std::vector<double> extra_setups;
  Options setup_opts = opts;
  setup_opts.scratch_dir += "/setup-only";
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::unique_ptr<Scenario> sc = make_scenario(setup_opts, Mode::kMeasured);
    const Clock::time_point s0 = Clock::now();
    sc->construct();
    sc->build();
    sc->apply_rates();
    extra_setups.push_back(seconds(s0, Clock::now()));
  }

  // --- checks (untimed) ---
  std::vector<Check> checks;
  const Episode& ref = episodes.front();
  bool same = true;
  for (const Episode& ep : episodes) same = same && ep.out == ref.out;
  checks.push_back({trace == 1 ? "traced_matches_untraced" : "episodes_deterministic",
                    same, std::to_string(episodes.size()) + " episodes"});
  for (const Episode& ep : episodes) {
    for (const Check& c : ep.checks) checks.push_back(c);
  }
  const std::vector<std::string> export_dirs = last->export_dirs();
  const std::string epoch_span = last->epoch_span();
  if (!export_dirs.empty()) checks.push_back(convert_exports(*last));
  last.reset();

  Tracer off(false);
  {
    const Episode plain = run_episode(opts, Mode::kProfilingOff, off, false);
    checks.push_back({"checksum_matches_profiling_off",
                      plain.out.checksum == ref.out.checksum, ""});
  }
  // Per-tenant accuracy against the oracle, and the largest raw-mass ratio.
  std::vector<double> accuracies;
  double mass_ratio = 0.0;
  if (opts.workload == "shared_fold") {
    std::unique_ptr<Scenario> replay;
    const Episode tap = run_episode(opts, Mode::kRecordTap, off, false, &replay);
    Djvm& vm = *replay->vms().front();
    const std::vector<IntervalRecord> records = vm.gos().drain_records();
    const SquareMatrix reference =
        TcmBuilder::build_reference(records, vm.thread_count(), true);
    const double err = absolute_error(ref.maps.front(), reference);
    accuracies.push_back(map_accuracy(ref.maps.front(), reference));
    mass_ratio = ref.maps.front().total() / reference.total();
    checks.push_back({"replay_matches_measured", tap.out.digest == ref.out.digest, ""});
    checks.push_back({"map_matches_build_reference", err <= 1e-9,
                      "E_ABS " + std::to_string(err)});
  } else {
    const Episode oracle = run_episode(opts, Mode::kOracle, off, false);
    for (std::size_t i = 0; i < ref.maps.size(); ++i) {
      accuracies.push_back(map_accuracy(ref.maps[i], oracle.maps[i]));
      mass_ratio = std::max(mass_ratio, ref.maps[i].total() / oracle.maps[i].total());
    }
  }

  std::string span_file;
  if (trace == 1) {
    span_file = opts.scratch_dir + "/spans.jsonl";
    checks.push_back({"span_file_written", tracer.write(span_file), span_file});
  }

  JsonWriter w;
  w.begin_object();
  w.key("workload").string(opts.workload);
  w.key("seed").number(static_cast<double>(opts.seed));
  w.key("size").string(opts.tiny ? "tiny" : "full");
  w.key("trace").number(trace);
  w.key("build_type").string(PERFBENCH_BUILD_TYPE);
  w.key("compiler").string(PERFBENCH_COMPILER);
  w.key("optimized").boolean(kOptimized);
  w.key("epoch_span").string(epoch_span);
  w.key("peak_rss_mb").number(rss_mb);
  w.key("tcm_accuracy").number(median(accuracies));
  w.key("tcm_accuracy_min").number(*std::min_element(accuracies.begin(), accuracies.end()));
  w.key("map_mass_ratio").number(mass_ratio);
  w.key("span_file").string(span_file);
  w.key("export_dirs").begin_array();
  for (const std::string& d : export_dirs) w.string(d);
  w.end_array();
  w.key("checks").begin_array();
  for (const Check& c : checks) {
    w.begin_object();
    w.key("name").string(c.name);
    w.key("ok").boolean(c.ok);
    w.key("detail").string(c.detail);
    w.end_object();
  }
  w.end_array();
  w.key("extra_setup_s").begin_array();
  for (const double v : extra_setups) w.number(v);
  w.end_array();
  w.key("episodes").begin_array();
  for (const Episode& ep : episodes) write_episode(w, ep);
  w.end_array();
  w.end_object();
  std::cout << w.str() << std::endl;
  return 0;
}
