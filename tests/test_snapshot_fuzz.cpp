// Deterministic mutation fuzzing of the persisted-profile readers.
//
// Corpus: the hand-built v1..v7 fixtures (snapshot_fixture.hpp) plus live
// encodes carrying influence, migration history, a tenant lease, per-node
// shifts and copy bookkeeping.  Mutations: bit flips, byte overwrites,
// typed field overwrites (NaN, infinities, zero, all-ones), truncations and
// splices of two corpus blobs.  The v6+ CRC footer is re-stamped on most
// mutants so the mutation reaches the field parser instead of dying at the
// checksum.  Properties, for every mutant:
//   * nothing crashes (the sanitizer lanes run this suite);
//   * decode_snapshot accepts  =>  parse_snapshot accepts (decode is parse
//     plus registry checks, never more permissive);
//   * a rejected decode leaves the governor and the output map
//     bit-identical (compared through encode_snapshot);
//   * an accepted v5+ decode leaves a state whose re-encoding parses again;
//   * every blob parse_snapshot accepts converts through all three
//     exporters.
// A second test mutates JSONL timelines and checks that recover_timeline
// returns exactly the complete lines, never a partial one.
//
// One fixed seed, no threads; a few seconds under ASan/UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "balance/balancer_feedback.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "export/exporter.hpp"
#include "governor/governor.hpp"
#include "governor/snapshot.hpp"
#include "snapshot_fixture.hpp"

namespace djvm {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr std::uint64_t kSeed = 0x5EED5A4B5107ULL;
constexpr int kSnapshotMutants = 20000;
constexpr int kTimelineMutants = 300;

/// A two-class world: the fixtures name class ids 0 and 1.
struct World {
  World() : heap(reg, 2), plan(heap) {
    const ClassId hot = reg.register_class("Hot", 16);
    const ClassId bulky = reg.register_class("Bulky", 1024);
    for (int i = 0; i < 32; ++i) plan.on_alloc(heap.alloc(hot, 1));
    for (int i = 0; i < 32; ++i) plan.on_alloc(heap.alloc(bulky, 0));
  }
  KlassRegistry reg;
  Heap heap;
  SamplingPlan plan;
};

/// One fixture per layout version, each with every section it can carry
/// filled, plus the minimal fixture of the same version.
std::vector<Bytes> fixture_corpus() {
  std::vector<Bytes> out;
  for (std::uint32_t v = kSnapshotVersionV1; v <= kSnapshotVersion; ++v) {
    FixtureSpec spec;
    spec.version = v;
    out.push_back(build_fixture(spec));
    spec.hot_shift_node1 = 3;
    spec.copy_regs_node0 = 5;
    spec.copy_visits_node0 = 9;
    spec.influence_seen = 1;
    spec.influence = {{0, 0.75}, {1, 0.25}};
    spec.migrations_executed = 4;
    FixtureSpec::FixtureMigration a;
    a.epoch = 2;
    a.thread = 1;
    a.gain_bytes = 2048.0;
    a.prefetched_bytes = 512;
    FixtureSpec::FixtureMigration b;
    b.epoch = 6;
    b.thread = 3;
    b.from = 1;
    b.to = 0;
    b.gain_bytes = 128.0;
    b.sim_cost_seconds = 0.5;
    spec.migrations = {a, b};
    spec.has_lease = 1;
    out.push_back(build_fixture(spec));
  }
  return out;
}

/// Live v7 encodes: a closed-loop per-node governor with influence,
/// migrations, a lease, a shift and copy bookkeeping, and a legacy one.
std::vector<Bytes> live_corpus() {
  World w;
  std::vector<Bytes> out;
  w.plan.set_nominal_gap(0, 16);
  w.plan.set_nominal_gap(1, 64);
  w.plan.resample_all();
  w.plan.set_node_gap_shift(1, 0, 2);
  w.plan.note_copy_registered(0, 0);
  w.plan.note_copy_registered(1, 1);

  Governor gov(w.plan);
  GovernorConfig cfg;
  cfg.per_node = true;
  gov.arm(cfg);
  BalancerFeedback fb;
  fb.influence = {0.25, 0.5};
  fb.mass = {1.0, 1.0};
  fb.total_mass = 2.0;
  fb.valid = true;
  gov.observe_balancer_feedback(fb);
  Governor::ExecutedMigration m;
  m.epoch = 0;
  m.thread = 2;
  m.from = 0;
  m.to = 1;
  m.gain_bytes = 4096.0;
  m.prefetched_bytes = 256;
  gov.record_migration(m);
  m.thread = 5;
  m.from = 1;
  m.to = 0;
  gov.record_migration(m);
  Governor::TenantLease lease;
  lease.tenant = 2;
  lease.tier = 1;
  lease.weight = 1.5;
  lease.granted_budget = 0.012;
  lease.fair_share = 0.01;
  lease.floor = 0.0025;
  lease.borrowed_epochs = 3;
  gov.adopt_lease(lease);
  SquareMatrix tcm(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      tcm.at(i, j) = static_cast<double>(i * 4 + j) * 0.5;
    }
  }
  out.push_back(encode_snapshot(gov, tcm));

  Governor legacy(w.plan);
  legacy.arm(GovernorConfig::legacy(0.1));
  out.push_back(encode_snapshot(legacy, SquareMatrix(2)));
  return out;
}

template <typename T>
void overwrite(Bytes& b, std::size_t at, T v) {
  if (at + sizeof(T) <= b.size()) std::memcpy(&b[at], &v, sizeof(T));
}

/// Re-stamps the v6+ CRC footer so a mutant reaches the field parser.
void restamp(Bytes& b) {
  std::uint32_t version = 0;
  if (b.size() < 12) return;
  std::memcpy(&version, &b[4], sizeof version);
  if (version < kSnapshotVersionV6 || version > kSnapshotVersion) return;
  const std::size_t payload = b.size() - sizeof(std::uint32_t);
  overwrite(b, payload, crc32(b.data(), payload));
}

Bytes mutate(const std::vector<Bytes>& corpus, SplitMix64& rng) {
  Bytes b = corpus[rng.next_below(corpus.size())];
  if (b.empty()) return b;
  switch (rng.next_below(5)) {
    case 0: {  // bit flips
      const std::uint64_t flips = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        b[rng.next_below(b.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      break;
    }
    case 1: {  // byte overwrites, biased to boundary values
      static constexpr std::uint8_t kEdge[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};
      const std::uint64_t n = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        b[rng.next_below(b.size())] =
            rng.next_below(2) == 0
                ? kEdge[rng.next_below(sizeof kEdge)]
                : static_cast<std::uint8_t>(rng.next_below(256));
      }
      break;
    }
    case 2: {  // typed field overwrite at a random offset
      const std::size_t at = rng.next_below(b.size());
      switch (rng.next_below(6)) {
        case 0: overwrite(b, at, std::numeric_limits<double>::quiet_NaN()); break;
        case 1: overwrite(b, at, std::numeric_limits<double>::infinity()); break;
        case 2: overwrite(b, at, -1.0); break;
        case 3: overwrite(b, at, std::uint32_t{0}); break;
        case 4: overwrite(b, at, ~std::uint32_t{0}); break;
        default: overwrite(b, at, ~std::uint64_t{0}); break;
      }
      break;
    }
    case 3:  // truncation
      b.resize(rng.next_below(b.size()));
      break;
    default: {  // splice: a prefix of this blob + a suffix of another
      const Bytes& other = corpus[rng.next_below(corpus.size())];
      const std::size_t cut = rng.next_below(b.size() + 1);
      const std::size_t from = rng.next_below(other.size() + 1);
      b.resize(cut);
      b.insert(b.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
               other.end());
      break;
    }
  }
  if (rng.next_below(16) != 0) restamp(b);
  return b;
}

TEST(SnapshotFuzz, DecodeIsParsePlusRegistryChecksAndFailsAtomically) {
  std::vector<Bytes> corpus = fixture_corpus();
  for (Bytes& b : live_corpus()) corpus.push_back(std::move(b));
  const std::vector<std::string> names = {"Hot", "Bulky"};

  // The unmutated corpus is valid: every seed blob parses and decodes.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    World w;
    Governor gov(w.plan);
    SquareMatrix tcm;
    SnapshotInfo info;
    EXPECT_TRUE(parse_snapshot(corpus[i], info)) << "seed " << i;
    EXPECT_TRUE(decode_snapshot(corpus[i], gov, tcm)) << "seed " << i;
  }

  World w;
  Governor gov(w.plan);
  SquareMatrix out(3);
  out.at(0, 1) = 1.5;
  SplitMix64 rng(kSeed);
  int parsed = 0, decoded = 0;
  for (int i = 0; i < kSnapshotMutants; ++i) {
    const Bytes mutant = mutate(corpus, rng);
    SnapshotInfo info;
    const bool parse_ok = parse_snapshot(mutant, info);
    if (parse_ok) {
      ++parsed;
      // Exporters consume anything the parser accepts.
      (void)export_pprof(info, names);
      (void)export_collapsed(info, names);
      (void)export_snapshot_json(info, names);
    }

    const Bytes before = encode_snapshot(gov, out);
    const bool decode_ok = decode_snapshot(mutant, gov, out);
    if (decode_ok) {
      ++decoded;
      EXPECT_TRUE(parse_ok) << "mutant " << i << ": decode accepted, parse rejected";
      // Pre-v5 files keep the live migration history next to the file's
      // epoch count, which can leave history newer than the restored
      // epochs; from v5 on every history field comes from the file.
      SnapshotInfo again;
      EXPECT_TRUE(info.version < kSnapshotVersionV5 ||
                  parse_snapshot(encode_snapshot(gov, out), again))
          << "mutant " << i << ": restored state does not re-encode validly";
    } else {
      EXPECT_EQ(encode_snapshot(gov, out), before)
          << "mutant " << i << ": rejected decode modified the governor";
    }
    if (HasFailure()) break;  // one reproducer is enough
  }
  // The mutator must reach both verdicts, or the properties are vacuous.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kSnapshotMutants);
}

TEST(SnapshotFuzz, RecoverTimelineReturnsOnlyCompleteLines) {
  std::string base;
  for (int e = 0; e < 12; ++e) {
    base += "{\"epoch\":" + std::to_string(e) +
            ",\"action\":\"tighten\",\"overhead\":0.0" + std::to_string(e) +
            "}\n";
  }
  const std::string path = ::testing::TempDir() + "djvm_fuzz_timeline.jsonl";
  SplitMix64 rng(kSeed ^ 0x7113u);
  for (int i = 0; i < kTimelineMutants; ++i) {
    std::string s = base;
    const std::uint64_t edits = 1 + rng.next_below(3);
    for (std::uint64_t k = 0; k < edits && !s.empty(); ++k) {
      const std::size_t at = rng.next_below(s.size());
      switch (rng.next_below(4)) {
        case 0: s.resize(at); break;                       // torn write
        case 1: s[at] = '\n'; break;                       // split a line
        case 2: s[at] = static_cast<char>(rng.next_below(256)); break;
        default: s.erase(at, 1 + rng.next_below(8)); break;  // lost bytes
      }
    }
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(s.data(), static_cast<std::streamsize>(s.size()));
    }
    bool torn = false;
    const std::vector<std::string> lines = recover_timeline(path, &torn);
    // Exactly the '\n'-terminated prefix comes back, line by line.
    const std::size_t last_nl = s.rfind('\n');
    const std::size_t complete = last_nl == std::string::npos ? 0 : last_nl + 1;
    std::string joined;
    for (const std::string& line : lines) {
      EXPECT_EQ(line.find('\n'), std::string::npos);
      joined += line;
      joined += '\n';
    }
    EXPECT_EQ(joined, s.substr(0, complete)) << "mutant " << i;
    EXPECT_EQ(torn, complete < s.size()) << "mutant " << i;
    if (HasFailure()) break;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace djvm
