// Hand-built snapshot fixtures: one byte blob per documented layout
// version (v1..v7), with knobs for every section a compatibility or
// corruption test needs to vary.  Shared by the compatibility suite and the
// snapshot fuzz corpus.  The blobs name two classes, ids 0 and 1, so a
// registry holding two classes accepts them.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "governor/governor.hpp"
#include "governor/snapshot.hpp"

namespace djvm {

struct FixtureSpec {
  std::uint32_t version = kSnapshotVersionV2;
  bool per_node = true;
  // {nominal, real} per class, in registry order; converged = 0.
  std::uint32_t hot_nominal = 16, hot_real = 17;
  std::uint32_t bulky_nominal = 128, bulky_real = 127;
  // Shift on (node 1, hot); 0 = no shift table rows (v2 only).
  std::uint8_t hot_shift_node1 = 0;
  // v3+: copy summary row for node 0 ({0, 0} = empty table).
  std::uint64_t copy_regs_node0 = 0, copy_visits_node0 = 0;
  // v4: scoring mode + influence table ({class, value} when seen).
  std::uint8_t scoring = 1;  // kInfluenceWeighted
  std::uint8_t influence_seen = 0;
  std::uint16_t v4_reserved = 0;
  double influence_decay = 0.5;
  std::vector<std::pair<std::uint32_t, double>> influence;
  // v5: executed-migration history (epochs fixture field is 7, so entry
  // epochs must be <= 7 and non-decreasing).
  struct FixtureMigration {
    std::uint64_t epoch = 1;
    std::uint32_t thread = 0;
    std::uint16_t from = 0, to = 1;
    double gain_bytes = 1.0, sim_cost_seconds = 0.0;
    std::uint64_t prefetched_bytes = 0;
  };
  std::uint64_t migrations_executed = 0;
  std::vector<FixtureMigration> migrations;
  // v7: tenant budget lease (has_lease = 0 -> no lease payload).
  std::uint8_t has_lease = 0;
  std::uint32_t lease_tenant = 3, lease_tier = 1;
  double lease_weight = 2.0, lease_granted = 0.015;
  double lease_fair = 0.01, lease_floor = 0.0025;
  std::uint64_t lease_borrowed = 4, lease_lent = 2;
};

/// Hand-builds a v1..v7 snapshot from the documented layout.
inline std::vector<std::uint8_t> build_fixture(const FixtureSpec& spec) {
  std::vector<std::uint8_t> bytes;
  const auto put = [&bytes](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(v));
  };
  const bool v1 = spec.version == kSnapshotVersionV1;
  put(kSnapshotMagic);
  put(spec.version);
  bytes.push_back(static_cast<std::uint8_t>(GovernorMode::kClosedLoop));
  bytes.push_back(static_cast<std::uint8_t>(GovernorState::kSentinel));
  bytes.push_back(!v1 && spec.per_node ? 1 : 0);  // v1: reserved padding
  bytes.push_back(0);
  put(0.02);   // overhead_budget
  put(0.05);   // distance_threshold
  put(0.25);   // hysteresis
  put(3.0);    // phase_spike_factor
  if (!v1) put(0.015);          // node_budget            [v2+]
  put(std::uint32_t{2});        // sentinel_coarsen_shifts
  put(std::uint32_t{1u << 16}); // max_nominal_gap
  put(std::uint64_t{7});        // epochs
  put(std::uint64_t{1});        // rearms
  put(std::uint32_t{2});        // class_count
  put(std::uint32_t{0});
  put(spec.hot_nominal);
  put(spec.hot_real);
  put(std::uint32_t{0});  put(std::uint32_t{1});  // hot: rated
  put(std::uint32_t{1});
  put(spec.bulky_nominal);
  put(spec.bulky_real);
  put(std::uint32_t{0});  put(std::uint32_t{1});  // bulky: rated
  if (!v1) {
    if (spec.hot_shift_node1 != 0) {
      put(std::uint32_t{2});          // shift_node_count  [v2+]
      bytes.push_back(0);             // node 0: hot, bulky
      bytes.push_back(0);
      bytes.push_back(spec.hot_shift_node1);  // node 1: hot
      bytes.push_back(0);                     // node 1: bulky
    } else {
      put(std::uint32_t{0});
    }
  }
  if (spec.version >= kSnapshotVersionV3) {
    if (spec.copy_regs_node0 != 0 || spec.copy_visits_node0 != 0) {
      put(std::uint32_t{1});          // copy_node_count   [v3+]
      put(spec.copy_regs_node0);
      put(spec.copy_visits_node0);
    } else {
      put(std::uint32_t{0});
    }
  }
  if (spec.version >= kSnapshotVersionV4) {
    bytes.push_back(spec.scoring);          // backoff_scoring [v4]
    bytes.push_back(spec.influence_seen);
    put(spec.v4_reserved);
    put(spec.influence_decay);
    put(static_cast<std::uint32_t>(spec.influence.size()));
    for (const auto& [id, value] : spec.influence) {
      put(id);
      put(value);
    }
  }
  if (spec.version >= kSnapshotVersionV5) {
    put(spec.migrations_executed);
    put(static_cast<std::uint32_t>(spec.migrations.size()));
    for (const auto& m : spec.migrations) {
      put(m.epoch);
      put(m.thread);
      put(m.from);
      put(m.to);
      put(m.gain_bytes);
      put(m.sim_cost_seconds);
      put(m.prefetched_bytes);
    }
  }
  if (spec.version >= kSnapshotVersionV7) {
    bytes.push_back(spec.has_lease);         // tenant lease      [v7]
    if (spec.has_lease != 0) {
      put(spec.lease_tenant);
      put(spec.lease_tier);
      put(spec.lease_weight);
      put(spec.lease_granted);
      put(spec.lease_fair);
      put(spec.lease_floor);
      put(spec.lease_borrowed);
      put(spec.lease_lent);
    }
  }
  put(std::uint64_t{2});  // tcm dimension
  for (int i = 0; i < 4; ++i) put(double{0.5});
  if (spec.version >= kSnapshotVersionV6) {
    put(crc32(bytes.data(), bytes.size()));  // integrity footer [v6]
  }
  return bytes;
}

}  // namespace djvm
