// Workload subsystem tests: format round-trips and error reporting,
// graph validation, the built-in generators, dependency-gated replay, the
// run recorder, and the determinism contract — replay and record output are
// bit-identical for any sim_threads / campaign jobs value.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "noc/noc_config.h"
#include "sim/campaign.h"
#include "sim/options_io.h"
#include "sim/results_io.h"
#include "sim/simulator.h"
#include "traffic/traffic.h"
#include "workload/generators.h"
#include "workload/recorder.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace rlftnoc {
namespace {

WorkloadTransfer transfer(std::uint64_t id, NodeId src, NodeId dst, int len = 1,
                          Cycle earliest = 0,
                          std::vector<std::uint64_t> deps = {}) {
  WorkloadTransfer t;
  t.id = id;
  t.src = src;
  t.dst = dst;
  t.len = len;
  t.earliest_cycle = earliest;
  t.deps = std::move(deps);
  return t;
}

Workload sample_workload() {
  Workload wl;
  wl.name = "sample \"quoted\"\n";
  wl.transfers = {transfer(1, 0, 1, 4, 0),
                  transfer(2, 1, 2, 1, 5, {1}),
                  transfer(7, 2, 3, 2, 0, {1, 2})};
  return wl;
}

std::string expect_workload_error(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const WorkloadError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected WorkloadError";
  return "";
}

// ---------------------------------------------------------------------------
// Format round-trips
// ---------------------------------------------------------------------------

TEST(WorkloadFormat, JsonWriteReadWriteIsByteIdentity) {
  const Workload wl = sample_workload();
  const std::string first = workload_to_json(wl);
  std::istringstream in(first);
  const Workload back = read_workload(in);
  EXPECT_EQ(back, wl);
  EXPECT_EQ(workload_to_json(back), first);
}

TEST(WorkloadFormat, BinaryRoundTripsAndSniffsMagic) {
  const Workload wl = sample_workload();
  std::ostringstream os;
  write_workload(os, wl, WorkloadFormat::kBinary);
  const std::string bytes = os.str();
  ASSERT_EQ(bytes.compare(0, 8, kWorkloadBinaryMagic), 0);
  std::istringstream in(bytes);
  EXPECT_EQ(read_workload(in), wl);  // no format hint needed
}

TEST(WorkloadFormat, FileRoundTripPicksFormatFromExtension) {
  const auto dir = std::filesystem::path(testing::TempDir());
  const Workload wl = sample_workload();
  for (const char* name : {"wl_roundtrip.json", "wl_roundtrip.wkb"}) {
    const std::string path = (dir / name).string();
    write_workload_file(path, wl);
    EXPECT_EQ(read_workload_file(path), wl) << path;
  }
  // The .wkb file must actually be binary.
  std::ifstream wkb(dir / "wl_roundtrip.wkb", std::ios::binary);
  char magic[8] = {};
  wkb.read(magic, 8);
  EXPECT_EQ(std::string(magic, 8), kWorkloadBinaryMagic);
}

TEST(WorkloadFormat, MalformedJsonNamesLineAndToken) {
  const std::string bad_int =
      "{\n"
      "  \"schema\": \"rlftnoc-workload-v1\",\n"
      "  \"transfers\": [{\"id\": oops, \"src\": 0, \"dst\": 1}]\n"
      "}\n";
  std::string msg = expect_workload_error([&] {
    std::istringstream in(bad_int);
    read_workload(in);
  });
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'oops'"), std::string::npos) << msg;

  msg = expect_workload_error([] {
    std::istringstream in("{\"schema\": \"rlftnoc-workload-v2\"}");
    read_workload(in);
  });
  EXPECT_NE(msg.find("unsupported schema"), std::string::npos) << msg;

  msg = expect_workload_error([] {
    std::istringstream in(
        "{\"schema\": \"rlftnoc-workload-v1\", \"bogus\": 1}");
    read_workload(in);
  });
  EXPECT_NE(msg.find("unknown top-level key"), std::string::npos) << msg;

  msg = expect_workload_error([] {
    std::istringstream in("{\"schema\": \"rlftnoc-workload-v1\"}");
    read_workload(in);
  });
  EXPECT_NE(msg.find("missing required \"transfers\""), std::string::npos)
      << msg;

  msg = expect_workload_error([] {
    std::istringstream in(
        "{\"schema\": \"rlftnoc-workload-v1\", \"transfers\": "
        "[{\"id\": 1, \"src\": 0}]}");
    read_workload(in);
  });
  EXPECT_NE(msg.find("transfer #1"), std::string::npos) << msg;

  // Floats are not valid cycle / id values.
  msg = expect_workload_error([] {
    std::istringstream in(
        "{\"schema\": \"rlftnoc-workload-v1\", \"transfers\": "
        "[{\"id\": 1, \"src\": 0, \"dst\": 1, \"earliest_cycle\": 1.5}]}");
    read_workload(in);
  });
  EXPECT_NE(msg.find("expected integer"), std::string::npos) << msg;
}

TEST(WorkloadFormat, MalformedBinaryIsRejected) {
  std::ostringstream os;
  write_workload(os, sample_workload(), WorkloadFormat::kBinary);
  const std::string bytes = os.str();

  std::string msg = expect_workload_error([&] {
    std::istringstream in(bytes.substr(0, bytes.size() - 3));
    read_workload(in);
  });
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;

  msg = expect_workload_error([&] {
    std::istringstream in(bytes + "xx");
    read_workload(in);
  });
  EXPECT_NE(msg.find("trailing bytes"), std::string::npos) << msg;
}

TEST(WorkloadFormat, PathSelectorHeuristic) {
  EXPECT_FALSE(looks_like_workload_path("dnn"));
  EXPECT_FALSE(looks_like_workload_path("uniform"));
  EXPECT_TRUE(looks_like_workload_path("capture.json"));
  EXPECT_TRUE(looks_like_workload_path("capture.wkb"));
  EXPECT_TRUE(looks_like_workload_path("runs/capture"));
}

// ---------------------------------------------------------------------------
// Legacy packet-trace import (`cycle src dst len` text, read-only)
// ---------------------------------------------------------------------------

Workload read_text(const std::string& text) {
  std::istringstream in(text);
  return read_workload(in);
}

TEST(WorkloadFormat, LegacyTraceRoundTripsToTransfers) {
  const Workload wl = read_text(
      "# rlftnoc packet trace: cycle src dst len\n"
      "0 1 2 4\n5 3 4 1\n5 0 7 4\n12 6 1 2\n");
  Workload want;
  want.name = "trace";
  want.transfers = {transfer(1, 1, 2, 4, 0), transfer(2, 3, 4, 1, 5),
                    transfer(3, 0, 7, 4, 5), transfer(4, 6, 1, 2, 12)};
  EXPECT_EQ(wl, want);
  // The import is a plain workload: it round-trips through the canonical
  // encodings like any other.
  EXPECT_EQ(read_text(workload_to_json(wl)), wl);
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "legacy.trace").string();
  std::ofstream(path) << "0 1 2 4\n5 3 4 1\n5 0 7 4\n12 6 1 2\n";
  EXPECT_EQ(read_workload_file(path), want);
}

TEST(WorkloadFormat, LegacyTraceRejectsMalformedInput) {
  std::string msg = expect_workload_error([] { read_text("5 0 1 4\n2 0 1 4\n"); });
  EXPECT_NE(msg.find("trace line 2: cycles not sorted"), std::string::npos)
      << msg;
  msg = expect_workload_error([] { read_text("5 0\n"); });
  EXPECT_NE(msg.find("trace line 1: expected dst, got '<end of line>'"),
            std::string::npos)
      << msg;
  msg = expect_workload_error([] { read_text("5 0 1 0\n"); });
  EXPECT_NE(msg.find("trace line 1: non-positive packet length"),
            std::string::npos)
      << msg;
}

TEST(WorkloadFormat, LegacyTraceErrorsNameLineAndOffendingToken) {
  // A garbage token must raise an error quoting line number and token, not
  // be skipped as if the line were a comment.
  std::string msg =
      expect_workload_error([] { read_text("1 0 1 4\ncycel 0 5 1\n"); });
  EXPECT_NE(msg.find("trace line 2: expected cycle, got 'cycel'"),
            std::string::npos)
      << msg;
  // Missing fields report which field was expected.
  msg = expect_workload_error([] { read_text("7 3\n"); });
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dst"), std::string::npos) << msg;
  // Extra fields are an error too, naming the trailing token.
  msg = expect_workload_error([] { read_text("7 3 4 1 bogus\n"); });
  EXPECT_NE(msg.find("trailing token 'bogus' after 'cycle src dst len'"),
            std::string::npos)
      << msg;
}

TEST(WorkloadFormat, LegacyTraceSkipsCommentsAndBlanks) {
  const Workload wl = read_text("# header\n\n1 0 1 4 # inline\n");
  ASSERT_EQ(wl.transfers.size(), 1u);
  EXPECT_EQ(wl.transfers[0], transfer(1, 0, 1, 4, 1));
  // Leading blank lines do not hide the encoding from the sniffer.
  EXPECT_EQ(read_text("\n  \n 3 0 1 1\n").transfers.size(), 1u);
}

TEST(WorkloadFormat, LegacyTraceSelfSendIsRejected) {
  const Workload wl = read_text("0 0 1 1\n4 2 2 1\n");
  const std::string msg =
      expect_workload_error([&] { validate_workload(wl, 4); });
  EXPECT_NE(msg.find("transfer id 2: self-transfer"), std::string::npos)
      << msg;
  EXPECT_THROW(WorkloadReplayTraffic(wl, 4, 3), WorkloadError);
}

const char* const kLegacyTrace = "0 0 1 1\n10 1 2 3\n10 2 3 1\n20 3 0 2\n";

/// Ticks a replay of kLegacyTrace over [first, first + 30].
std::vector<Packet> replay_legacy_from(Cycle first) {
  WorkloadReplayTraffic gen(read_text(kLegacyTrace), 4, /*seed=*/3);
  std::vector<Packet> out;
  for (Cycle t = first; t <= first + 30; ++t) gen.tick(t, out);
  EXPECT_TRUE(gen.exhausted());
  return out;
}

TEST(WorkloadFormat, LegacyTraceReplayFromCycleZeroEmitsItsRecords) {
  const Workload wl = read_text(kLegacyTrace);
  const std::vector<Packet> out = replay_legacy_from(0);
  ASSERT_EQ(out.size(), wl.transfers.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const WorkloadTransfer& t = wl.transfers[i];
    EXPECT_EQ(out[i].id, i + 1);
    EXPECT_EQ(out[i].src, t.src);
    EXPECT_EQ(out[i].dst, t.dst);
    EXPECT_EQ(out[i].flits.size(), static_cast<std::size_t>(t.len));
    EXPECT_EQ(out[i].inject_cycle, t.earliest_cycle);
  }
}

TEST(WorkloadFormat, LegacyTraceCyclesAreRelativeToTheFirstTick) {
  const Workload wl = read_text(kLegacyTrace);
  const std::vector<Packet> out = replay_legacy_from(500);
  ASSERT_EQ(out.size(), wl.transfers.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, i + 1);
    EXPECT_EQ(out[i].inject_cycle,
              500 + wl.transfers[i].earliest_cycle);
  }
}

TEST(WorkloadFormat, LegacyTraceLateTickDeliversBacklog) {
  WorkloadReplayTraffic gen(read_text("0 0 1 1\n10 1 2 1\n20 2 3 1\n"), 4,
                            /*seed=*/1);
  std::vector<Packet> out;
  gen.tick(0, out);
  EXPECT_EQ(out.size(), 1u);
  gen.tick(15, out);  // catches up the record at cycle 10
  EXPECT_EQ(out.size(), 2u);
  gen.tick(25, out);
  EXPECT_EQ(out.size(), 3u);
}

// ---------------------------------------------------------------------------
// Static validation
// ---------------------------------------------------------------------------

TEST(WorkloadValidate, AcceptsWellFormedDag) {
  EXPECT_NO_THROW(validate_workload(sample_workload(), 4));
}

TEST(WorkloadValidate, ReportsOffendingTransferIds) {
  Workload wl;
  wl.transfers = {transfer(1, 0, 1), transfer(1, 1, 2)};
  std::string msg =
      expect_workload_error([&] { validate_workload(wl, 4); });
  EXPECT_NE(msg.find("duplicate transfer id 1"), std::string::npos) << msg;

  wl.transfers = {transfer(0, 0, 1)};
  msg = expect_workload_error([&] { validate_workload(wl, 4); });
  EXPECT_NE(msg.find("id 0 is reserved"), std::string::npos) << msg;

  wl.transfers = {transfer(3, 0, 9)};
  msg = expect_workload_error([&] { validate_workload(wl, 4); });
  EXPECT_NE(msg.find("transfer id 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dst 9"), std::string::npos) << msg;

  wl.transfers = {transfer(4, 2, 2)};
  msg = expect_workload_error([&] { validate_workload(wl, 4); });
  EXPECT_NE(msg.find("self-transfer"), std::string::npos) << msg;

  wl.transfers = {transfer(5, 0, 1, 0)};
  msg = expect_workload_error([&] { validate_workload(wl, 4); });
  EXPECT_NE(msg.find("len must be >= 1"), std::string::npos) << msg;

  // A flit's seq and packet_len are single bytes, capped at 32 flits.
  wl.transfers = {transfer(5, 0, 1, kMaxFlitsPerPacket)};
  EXPECT_NO_THROW(validate_workload(wl, 4));
  wl.transfers = {transfer(5, 0, 1, kMaxFlitsPerPacket + 1)};
  msg = expect_workload_error([&] { validate_workload(wl, 4); });
  EXPECT_NE(msg.find("len must be <= 32 (got 33)"), std::string::npos) << msg;

  wl.transfers = {transfer(6, 0, 1, 1, 0, {99})};
  msg = expect_workload_error([&] { validate_workload(wl, 4); });
  EXPECT_NE(msg.find("unknown dependency id 99"), std::string::npos) << msg;
}

TEST(WorkloadValidate, DetectsDependencyCycles) {
  Workload wl;
  wl.transfers = {transfer(10, 0, 1, 1, 0, {11}),
                  transfer(11, 1, 2, 1, 0, {10}),
                  transfer(12, 2, 3, 1, 0, {10})};
  const std::string msg =
      expect_workload_error([&] { validate_workload(wl, 4); });
  // Both cycle members and the downstream transfer are stuck; ids sorted.
  EXPECT_NE(msg.find("dependency cycle"), std::string::npos) << msg;
  EXPECT_NE(msg.find("10, 11, 12"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// Built-in generators
// ---------------------------------------------------------------------------

TEST(WorkloadGenerators, BuiltinsValidateAndAreDeterministic) {
  NocConfig noc;
  noc.mesh_width = 8;
  noc.mesh_height = 8;
  const Grid grid(noc);
  for (const char* name : {"dnn", "rpc", "nackstorm"}) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(is_builtin_workload(name));
    const Workload a = make_builtin_workload(name, grid, Config{}, 7);
    EXPECT_NO_THROW(validate_workload(a, grid.num_nodes()));
    EXPECT_FALSE(a.transfers.empty());
    // Pure function of (topology, options, seed): byte-identical rebuild.
    const Workload b = make_builtin_workload(name, grid, Config{}, 7);
    EXPECT_EQ(workload_to_json(a), workload_to_json(b));
  }
  EXPECT_FALSE(is_builtin_workload("uniform"));
  EXPECT_THROW(make_builtin_workload("nope", grid, Config{}, 7),
               WorkloadError);
}

TEST(WorkloadGenerators, OptionsComeFromConfig) {
  Config cfg;
  cfg.set("wl.layers", "3");
  cfg.set("wl.fan_in", "1");
  cfg.set("wl.clients", "2");
  cfg.set("wl.requests", "4");
  cfg.set("wl.attackers", "5");
  EXPECT_EQ(dnn_workload_options_from_config(cfg).layers, 3);
  EXPECT_EQ(dnn_workload_options_from_config(cfg).fan_in, 1);
  EXPECT_EQ(rpc_workload_options_from_config(cfg).clients, 2);
  EXPECT_EQ(rpc_workload_options_from_config(cfg).requests_per_client, 4);
  EXPECT_EQ(nack_storm_workload_options_from_config(cfg).attackers, 5);
}

// ---------------------------------------------------------------------------
// Replay gating semantics (driven directly, no network)
// ---------------------------------------------------------------------------

TEST(WorkloadReplay, HoldsTransfersUntilDepsComplete) {
  Workload wl;
  wl.name = "gate";
  wl.transfers = {transfer(1, 0, 1, 2, 0), transfer(2, 1, 2, 3, 0, {1})};
  WorkloadReplayTraffic gen(wl, 4, /*seed=*/3);
  EXPECT_EQ(gen.deps_blocked(), 1u);

  std::vector<Packet> out;
  gen.tick(0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[0].src, 0);
  EXPECT_EQ(out[0].dst, 1);
  EXPECT_EQ(out[0].flits.size(), 2u);
  EXPECT_FALSE(gen.exhausted());

  for (Cycle t = 1; t <= 5; ++t) gen.tick(t, out);
  ASSERT_EQ(out.size(), 1u);  // dependent still gated

  // Completion observed during the step of cycle 5 -> eligible at tick 6.
  gen.on_packet_delivered(5, 0, 1);
  EXPECT_EQ(gen.deps_blocked(), 0u);
  EXPECT_EQ(gen.transfers_retired(), 1u);
  gen.tick(5, out);
  ASSERT_EQ(out.size(), 1u);
  gen.tick(6, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].src, 1);
  EXPECT_EQ(out[1].dst, 2);
  EXPECT_TRUE(gen.exhausted());

  gen.on_packet_delivered(20, 1, 2);
  EXPECT_EQ(gen.transfers_retired(), 2u);
}

TEST(WorkloadReplay, AbandonedDependencyReleasesDependents) {
  Workload wl;
  wl.transfers = {transfer(1, 0, 1, 1, 0), transfer(2, 1, 2, 1, 0, {1})};
  WorkloadReplayTraffic gen(wl, 4, /*seed=*/3);
  std::vector<Packet> out;
  gen.tick(0, out);
  ASSERT_EQ(out.size(), 1u);
  gen.on_packet_abandoned(3, 1);
  EXPECT_EQ(gen.transfers_abandoned(), 1u);
  gen.tick(4, out);
  ASSERT_EQ(out.size(), 2u);  // released instead of deadlocking
}

TEST(WorkloadReplay, OpenLoopModeIgnoresDeps) {
  Workload wl;
  wl.transfers = {transfer(1, 0, 1, 1, 0), transfer(2, 1, 2, 1, 0, {1})};
  WorkloadReplayTraffic::Options ro;
  ro.gate_on_deps = false;
  WorkloadReplayTraffic gen(wl, 4, /*seed=*/3, ro);
  EXPECT_EQ(gen.deps_blocked(), 0u);
  std::vector<Packet> out;
  gen.tick(0, out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(gen.exhausted());
}

TEST(WorkloadReplay, ConstructorValidates) {
  Workload wl;
  wl.transfers = {transfer(1, 0, 1, 1, 0, {2}), transfer(2, 1, 2, 1, 0, {1})};
  EXPECT_THROW(WorkloadReplayTraffic(wl, 4, 3), WorkloadError);
}

// ---------------------------------------------------------------------------
// Simulator integration: record -> replay, determinism
// ---------------------------------------------------------------------------

SimOptions mesh8_options(unsigned sim_threads = 1) {
  SimOptions opt;
  opt.seed = 17;
  opt.noc.mesh_width = 8;
  opt.noc.mesh_height = 8;
  opt.policy = PolicyKind::kStaticArqEcc;
  opt.sim_threads = sim_threads;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 200;
  opt.error_scale = 2.0;  // fault-heavy: retransmission paths must fire
  return opt;
}

SyntheticTraffic::Options mesh8_traffic() {
  SyntheticTraffic::Options t;
  t.injection_rate = 0.08;
  t.total_packets = 300;
  return t;
}

void expect_results_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.execution_cycles, b.execution_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.enqueue_drops, b.enqueue_drops);
  EXPECT_EQ(a.retransmitted_flits, b.retransmitted_flits);
  EXPECT_EQ(a.retx_flits_e2e, b.retx_flits_e2e);
  EXPECT_EQ(a.retx_flits_hop, b.retx_flits_hop);
  EXPECT_EQ(a.crc_packet_failures, b.crc_packet_failures);
  EXPECT_EQ(a.dynamic_energy_pj, b.dynamic_energy_pj);
  EXPECT_EQ(a.total_energy_pj, b.total_energy_pj);
}

TEST(WorkloadRecord, RecorderDoesNotPerturbTheRun) {
  SimResult plain;
  {
    Simulator sim(mesh8_options());
    SyntheticTraffic gen(Grid(mesh8_options().noc), mesh8_traffic(),
                         17);
    plain = sim.run(gen);
  }
  SimOptions opt = mesh8_options();
  opt.record_workload =
      (std::filesystem::path(testing::TempDir()) / "wl_noperturb.json")
          .string();
  Simulator sim(opt);
  SyntheticTraffic gen(Grid(opt.noc), mesh8_traffic(), 17);
  const SimResult recorded = sim.run(gen);
  expect_results_identical(plain, recorded);
}

TEST(WorkloadRecord, RecordThenReplayReproducesSimResult) {
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "wl_capture.wkb").string();
  SimResult original;
  {
    SimOptions opt = mesh8_options();
    opt.record_workload = path;
    Simulator sim(opt);
    SyntheticTraffic gen(Grid(opt.noc), mesh8_traffic(), 17);
    original = sim.run(gen);
  }
  ASSERT_TRUE(original.drained);
  ASSERT_GT(original.packets_delivered, 0u);
  ASSERT_GT(original.retransmitted_flits, 0u);

  const Workload wl = read_workload_file(path);
  // Every generated packet is recorded — including warmup-phase injections,
  // which SimResult's measure-scoped packets_injected does not count.
  EXPECT_EQ(wl.transfers.size(), mesh8_traffic().total_packets);
  ASSERT_NO_THROW(validate_workload(wl, 64));

  // Replaying through the dependency gate reproduces the run: every
  // recorded dependency was satisfied by the transfer's earliest_cycle, so
  // the gated replay injects the exact original packet stream.
  Simulator sim(mesh8_options());
  WorkloadReplayTraffic replay(wl, 64, /*seed=*/17);
  const SimResult replayed = sim.run(replay);
  expect_results_identical(original, replayed);
  EXPECT_EQ(replay.transfers_retired() + replay.transfers_abandoned(),
            replay.transfers_total());
}

TEST(WorkloadRecord, RecorderOutputBytesAreDeterministic) {
  const auto record_to = [](const std::string& path) {
    SimOptions opt = mesh8_options();
    opt.record_workload = path;
    Simulator sim(opt);
    SyntheticTraffic gen(Grid(opt.noc), mesh8_traffic(), 17);
    sim.run(gen);
  };
  const auto dir = std::filesystem::path(testing::TempDir());
  record_to((dir / "wl_det_a.json").string());
  record_to((dir / "wl_det_b.json").string());
  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string a = slurp(dir / "wl_det_a.json");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(dir / "wl_det_b.json"));
}

TEST(WorkloadReplay, BitIdenticalAcrossSimThreads) {
  NocConfig noc;
  noc.mesh_width = 8;
  noc.mesh_height = 8;
  const Grid grid(noc);
  const Workload wl = make_builtin_workload("dnn", grid, Config{}, 17);

  const auto run_threads = [&](unsigned threads,
                               const std::string& telemetry_dir) {
    SimOptions opt = mesh8_options(threads);
    if (!telemetry_dir.empty()) {
      opt.telemetry.enabled = true;
      opt.telemetry.out_dir = telemetry_dir;
      opt.telemetry.metrics_interval = 200;
    }
    Simulator sim(opt);
    WorkloadReplayTraffic replay(wl, grid.num_nodes(), opt.seed);
    return sim.run(replay);
  };

  const auto dir = std::filesystem::path(testing::TempDir());
  const auto tdir = [&dir](unsigned t) {
    const auto d = dir / ("wl_threads" + std::to_string(t));
    std::filesystem::remove_all(d);
    return d.string();
  };
  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  const SimResult serial = run_threads(1, tdir(1));
  ASSERT_TRUE(serial.drained);
  ASSERT_GT(serial.packets_delivered, 0u);
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir / "wl_threads1"))
    names.push_back(entry.path().filename().string());
  ASSERT_FALSE(names.empty());

  for (const unsigned t : {2u, 4u, 8u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    const SimResult threaded = run_threads(t, tdir(t));
    expect_results_identical(serial, threaded);
    // Telemetry export (including the workload.* metric families) must be
    // byte-identical too.
    for (const std::string& name : names) {
      const auto other =
          dir / ("wl_threads" + std::to_string(t)) / name;
      ASSERT_TRUE(std::filesystem::exists(other)) << name;
      EXPECT_EQ(slurp(dir / "wl_threads1" / name), slurp(other)) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Campaign integration
// ---------------------------------------------------------------------------

TEST(WorkloadCampaign, ResultsTsvByteIdenticalAcrossJobs) {
  SimOptions base;
  base.seed = 11;
  base.noc.mesh_width = 4;
  base.noc.mesh_height = 4;
  base.pretrain_cycles = 0;
  base.warmup_cycles = 0;
  const std::vector<std::string> benchmarks = {"dnn", "rpc"};
  const std::vector<PolicyKind> policies = {PolicyKind::kStaticCrc,
                                            PolicyKind::kStaticArqEcc};

  const auto run_jobs = [&](unsigned jobs) {
    SimOptions opt = base;
    opt.jobs = jobs;
    const CampaignResults res = run_campaign(opt, benchmarks, policies);
    std::ostringstream tsv;
    write_results(tsv, res);
    return tsv.str();
  };

  const std::string serial = run_jobs(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_jobs(4));
}

TEST(WorkloadCampaign, RecordPathDerivesPerRunFiles) {
  // Labels are sanitized for filenames ("ARQ+ECC" -> "ARQ_ECC").
  EXPECT_EQ(campaign_record_path("runs/rec.json", "dnn",
                                 PolicyKind::kStaticArqEcc),
            "runs/rec-dnn_ARQ_ECC.json");
  // No extension: the label is appended.
  EXPECT_EQ(campaign_record_path("rec", "rpc", PolicyKind::kStaticCrc),
            "rec-rpc_CRC");

  // End to end: each campaign run captures into its own replayable file.
  const auto dir = std::filesystem::path(testing::TempDir()) / "wl_campaign";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SimOptions base;
  base.seed = 11;
  base.noc.mesh_width = 4;
  base.noc.mesh_height = 4;
  base.pretrain_cycles = 0;
  base.warmup_cycles = 0;
  base.record_workload = (dir / "rec.json").string();
  const std::vector<PolicyKind> policies = {PolicyKind::kStaticArqEcc};
  run_campaign(base, {"dnn"}, policies);
  const std::string expect_path =
      campaign_record_path(base.record_workload, "dnn", policies[0]);
  ASSERT_TRUE(std::filesystem::exists(expect_path)) << expect_path;
  const Workload captured = read_workload_file(expect_path);
  EXPECT_NO_THROW(validate_workload(captured, 16));
  EXPECT_FALSE(captured.transfers.empty());
}

// ---------------------------------------------------------------------------
// Options plumbing
// ---------------------------------------------------------------------------

TEST(WorkloadOptions, ConfigKeysRoundTrip) {
  Config cfg;
  cfg.set("workload", "dnn");
  cfg.set("record_workload", "runs/capture.wkb");
  const SimOptions opt = sim_options_from_config(cfg);
  EXPECT_EQ(opt.workload, "dnn");
  EXPECT_EQ(opt.record_workload, "runs/capture.wkb");
  EXPECT_TRUE(sim_options_from_config(Config{}).workload.empty());
  EXPECT_TRUE(sim_options_from_config(Config{}).record_workload.empty());
}

}  // namespace
}  // namespace rlftnoc
