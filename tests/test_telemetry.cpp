// Telemetry subsystem contract: ring wraparound is counted (never silent),
// exporter output is well-formed (a real JSON parse, not a substring check),
// runs without telemetry carry no collector, and a traced campaign stays
// byte-identical for any --jobs value.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "sim/campaign.h"
#include "sim/options_io.h"
#include "sim/simulator.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to *parse* (not merely grep) exporter
// output: objects, arrays, strings with escapes, numbers, true/false/null.
// ---------------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  bool has(const std::string& k) const { return obj.count(k) > 0; }
  const Json& at(const std::string& k) const { return obj.at(k); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't':
      case 'f': return boolean();
      case 'n': return null();
      default: return number();
    }
  }

  Json object() {
    expect('{');
    Json v;
    v.type = Json::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      Json key = string_value();
      expect(':');
      v.obj.emplace(key.str, value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.type = Json::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json string_value() {
    expect('"');
    Json v;
    v.type = Json::Type::kString;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.str += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': v.str += '"'; break;
        case '\\': v.str += '\\'; break;
        case '/': v.str += '/'; break;
        case 'n': v.str += '\n'; break;
        case 'r': v.str += '\r'; break;
        case 't': v.str += '\t'; break;
        case 'b': v.str += '\b'; break;
        case 'f': v.str += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])))
              fail("bad \\u escape");
          }
          pos_ += 4;
          v.str += '?';  // code point value irrelevant for these tests
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json boolean() {
    Json v;
    v.type = Json::Type::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Json null() {
    if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return Json{};
  }

  Json number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Json v;
    v.type = Json::Type::kNumber;
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Ring buffers
// ---------------------------------------------------------------------------

TEST(TimeSeriesRing, WrapsOldestFirstAndCountsDrops) {
  TimeSeriesRing ring(/*rows=*/4, /*width=*/2);
  double row[2];
  for (int i = 0; i < 6; ++i) {
    row[0] = i;
    row[1] = 10.0 * i;
    ring.push_row(static_cast<Cycle>(100 * i), row);
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped_rows(), 2u);  // rows 0 and 1 were overwritten
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const int logical = static_cast<int>(i) + 2;  // oldest surviving row = 2
    EXPECT_EQ(ring.stamp(i), static_cast<Cycle>(100 * logical));
    EXPECT_EQ(ring.row(i)[0], static_cast<double>(logical));
    EXPECT_EQ(ring.row(i)[1], 10.0 * logical);
  }
}

TEST(EventTracer, WrapsOldestFirstAndCountsDrops) {
  EventTracer tracer(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    tracer.record(TraceEventKind::kNackSent, static_cast<Cycle>(i),
                  static_cast<NodeId>(i), /*port=*/1, /*arg=*/i);
  }
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.dropped(), 2u);
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    EXPECT_EQ(tracer.at(i).cycle, static_cast<Cycle>(i + 2));
    EXPECT_EQ(tracer.at(i).arg, static_cast<std::int32_t>(i + 2));
  }
}

TEST(MetricsRegistry, CountersSampleAsDeltasAndSurviveSourceResets) {
  MetricsRegistry reg(/*num_routers=*/2, /*series_rows=*/8);
  const MetricId c = reg.add(MetricKind::kCounter, MetricScope::kGlobal, "c");
  const MetricId g = reg.add(MetricKind::kGauge, MetricScope::kPerRouter, "g");
  reg.freeze();

  reg.set(c, 5.0);
  reg.set(g, NodeId{1}, 42.0);
  reg.sample(10);
  reg.set(c, 8.0);
  reg.sample(20);
  reg.set(c, 2.0);  // cumulative source reset (counter moved backwards)
  reg.sample(30);

  const TimeSeriesRing& ring = reg.series();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.row(0)[0], 5.0);  // first interval: 5 - 0
  EXPECT_EQ(ring.row(1)[0], 3.0);  // 8 - 5
  EXPECT_EQ(ring.row(2)[0], 2.0);  // reset: the new cumulative IS the delta
  EXPECT_EQ(ring.row(0)[2], 42.0);  // gauge verbatim, slot [c, g(r0), g(r1)]
  EXPECT_EQ(ring.row(2)[2], 42.0);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TelemetryExportInfo tiny_info() {
  TelemetryExportInfo info;
  info.workload = "unit";
  info.policy = "RL";
  info.label = sanitize_run_label("unit_RL");
  info.seed = 9;
  info.mesh_width = 2;
  info.mesh_height = 2;
  info.measure_start = 100;
  info.end_cycle = 400;
  info.options = {{"seed", "9"}};
  return info;
}

TEST(ChromeTraceExport, ProducesParsableSchemaCorrectJson) {
  EventTracer tracer(64);
  tracer.record(TraceEventKind::kModeSwitch, 10, 0, -1, /*mode=*/2);
  tracer.record(TraceEventKind::kPhaseBegin, 20, kInvalidNode, -1, 2);
  tracer.record(TraceEventKind::kNackSent, 30, 3, 1, 1);
  tracer.record(TraceEventKind::kEpochReward, 40, 1, -1, 0, 1.5);
  tracer.record(TraceEventKind::kModeSwitch, 50, 0, -1, /*mode=*/0);

  std::ostringstream out;
  write_chrome_trace(out, tracer, tiny_info());

  const Json doc = JsonParser(out.str()).parse();
  ASSERT_EQ(doc.type, Json::Type::kObject);
  ASSERT_TRUE(doc.has("traceEvents"));
  ASSERT_TRUE(doc.has("otherData"));
  EXPECT_EQ(doc.at("otherData").at("workload").str, "unit");
  EXPECT_EQ(doc.at("otherData").at("dropped_events").number, 0.0);

  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.type, Json::Type::kArray);
  ASSERT_FALSE(events.arr.empty());
  int slices_begin = 0, slices_end = 0, counters = 0, instants = 0;
  for (const Json& e : events.arr) {
    ASSERT_EQ(e.type, Json::Type::kObject);
    ASSERT_TRUE(e.has("ph"));
    const std::string& ph = e.at("ph").str;
    EXPECT_TRUE(ph == "B" || ph == "E" || ph == "i" || ph == "C" || ph == "M")
        << "unexpected phase " << ph;
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    if (ph != "M") {
      ASSERT_TRUE(e.has("ts"));
    }
    if (ph == "B" || ph == "i" || ph == "C" || ph == "M") {
      EXPECT_TRUE(e.has("name"));
    }
    if (ph == "B") ++slices_begin;
    if (ph == "E") ++slices_end;
    if (ph == "C") ++counters;
    if (ph == "i") ++instants;
  }
  // Two kModeSwitch records: two slices, the last closed at export time.
  EXPECT_EQ(slices_begin, 2);
  EXPECT_EQ(slices_end, 2);
  EXPECT_EQ(counters, 1);
  EXPECT_EQ(instants, 2);  // phase_begin + nack_sent
}

TEST(ManifestExport, ContainsSchemaGitShaAndFileList) {
  const std::filesystem::path dir = fresh_dir("rlftnoc_manifest_unit");
  Telemetry telemetry(TelemetryOptions{}, /*num_routers=*/4);
  const MetricId gauge = telemetry.metrics().add(
      MetricKind::kGauge, MetricScope::kGlobal, "unit.gauge");
  telemetry.metrics().freeze();
  telemetry.metrics().set(gauge, 1.0);
  telemetry.sample(0);

  TelemetryExportInfo info = tiny_info();
  info.out_dir = dir.string();
  const std::vector<std::string> files =
      export_run_telemetry(telemetry, info, {});
  ASSERT_FALSE(files.empty());
  EXPECT_EQ(files.back(), "unit_RL.manifest.json");

  const Json m = JsonParser(read_file(dir / files.back())).parse();
  EXPECT_EQ(m.at("schema").str, "rlftnoc-telemetry-manifest-v1");
  EXPECT_FALSE(m.at("git_sha").str.empty());
  EXPECT_EQ(m.at("seed").number, 9.0);
  EXPECT_EQ(m.at("mesh").at("width").number, 2.0);
  ASSERT_EQ(m.at("files").type, Json::Type::kArray);
  // The manifest lists every file written before it (not itself).
  EXPECT_EQ(m.at("files").arr.size(), files.size() - 1);
  for (const Json& f : m.at("files").arr) {
    EXPECT_TRUE(std::filesystem::exists(dir / f.str)) << f.str;
  }
}

TEST(RunLabel, SanitizesHostileCharacters) {
  EXPECT_EQ(sanitize_run_label("a b/c\\d:e"), "a_b_c_d_e");
  EXPECT_EQ(sanitize_run_label(""), "run");
  EXPECT_EQ(sanitize_run_label("ok-1.2_x"), "ok-1.2_x");
}

// ---------------------------------------------------------------------------
// Options plumbing
// ---------------------------------------------------------------------------

TEST(OptionsIo, TelemetryKeysReachSimOptions) {
  Config cfg;
  cfg.set("telemetry", "true");
  cfg.set("telemetry.dir", "some/dir");
  cfg.set("metrics_interval", "250");
  cfg.set("telemetry.series_rows", "64");
  cfg.set("telemetry.trace_capacity", "1024");
  const SimOptions opt = sim_options_from_config(cfg);
  EXPECT_TRUE(opt.telemetry.enabled);
  EXPECT_EQ(opt.telemetry.out_dir, "some/dir");
  EXPECT_EQ(opt.telemetry.metrics_interval, 250u);
  EXPECT_EQ(opt.telemetry.series_rows, 64u);
  EXPECT_EQ(opt.telemetry.trace_capacity, 1024u);

  // Defaults stay off / at documented values.
  const SimOptions defaults = sim_options_from_config(Config{});
  EXPECT_FALSE(defaults.telemetry.enabled);
  EXPECT_EQ(defaults.telemetry.metrics_interval, 1000u);
}

// ---------------------------------------------------------------------------
// Simulator integration
// ---------------------------------------------------------------------------

SimOptions tiny_sim(bool telemetry) {
  SimOptions opt;
  opt.seed = 11;
  opt.noc.mesh_width = 2;
  opt.noc.mesh_height = 2;
  opt.policy = PolicyKind::kStaticArqEcc;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 500;
  opt.error_scale = 3.0;  // fault-heavy so ARQ events actually fire
  opt.telemetry.enabled = telemetry;
  opt.telemetry.metrics_interval = 200;
  return opt;
}

SyntheticTraffic::Options tiny_traffic() {
  SyntheticTraffic::Options t;
  t.total_packets = 300;
  t.injection_rate = 0.1;
  return t;
}

TEST(SimulatorTelemetry, DisabledRunCarriesNoCollectorAndWritesNothing) {
  SimOptions opt = tiny_sim(/*telemetry=*/false);
  Simulator sim(opt);
  EXPECT_EQ(sim.telemetry(), nullptr);
  SyntheticTraffic traffic(Grid(opt.noc), tiny_traffic(), opt.seed);
  const SimResult res = sim.run(traffic);
  EXPECT_GT(res.packets_delivered, 0u);
  EXPECT_TRUE(sim.telemetry_files().empty());
  EXPECT_EQ(sim.telemetry_manifest_path(), "");
}

TEST(SimulatorTelemetry, TracedRunExportsLoadableFileSet) {
  const std::filesystem::path dir = fresh_dir("rlftnoc_sim_telemetry");
  SimOptions opt = tiny_sim(/*telemetry=*/true);
  opt.telemetry.out_dir = dir.string();

  Simulator sim(opt);
  ASSERT_NE(sim.telemetry(), nullptr);
  SyntheticTraffic traffic(Grid(opt.noc), tiny_traffic(), opt.seed);
  const SimResult res = sim.run(traffic);
  EXPECT_GT(res.packets_delivered, 0u);

  ASSERT_FALSE(sim.telemetry_files().empty());
  const Json trace =
      JsonParser(read_file(dir / (sanitize_run_label(res.workload + "_" +
                                                     res.policy) +
                                  ".trace.json")))
          .parse();
  ASSERT_TRUE(trace.has("traceEvents"));
#ifndef RLFTNOC_TELEMETRY_DISABLED
  // With hooks compiled in, a fault-heavy ARQ run must have produced events
  // (at minimum the initial mode switches and the phase markers).
  EXPECT_GT(trace.at("traceEvents").arr.size(), 4u);
#endif
  const Json manifest = JsonParser(read_file(sim.telemetry_manifest_path())).parse();
  EXPECT_EQ(manifest.at("schema").str, "rlftnoc-telemetry-manifest-v1");
  EXPECT_EQ(manifest.at("measure").at("end_cycle").number,
            static_cast<double>(sim.network().now()));

  // The metrics TSV has the documented header and one row per slot/sample.
  const std::string metrics = read_file(
      dir / (sanitize_run_label(res.workload + "_" + res.policy) +
             ".metrics.tsv"));
  EXPECT_EQ(metrics.rfind("cycle\tmetric\trouter\tport\tvalue\n", 0), 0u);
  EXPECT_NE(metrics.find("router.mode"), std::string::npos);
  EXPECT_NE(metrics.find("net.packets_delivered"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Campaign integration
// ---------------------------------------------------------------------------

SimOptions tiny_campaign_base() {
  SimOptions base;
  base.seed = 7;
  base.noc.mesh_width = 4;
  base.noc.mesh_height = 4;
  base.pretrain_cycles = 100000;  // scaled by the 2% budget below
  base.warmup_cycles = 50000;
  return base;
}

TEST(Campaign, DuplicateBenchmarkPolicyPairIsRejected) {
  const SimOptions base = tiny_campaign_base();
  EXPECT_THROW(run_campaign(base, {"swaptions", "swaptions"},
                            {PolicyKind::kStaticCrc}, 2),
               std::invalid_argument);
  EXPECT_THROW(run_campaign(base, {"swaptions"},
                            {PolicyKind::kStaticCrc, PolicyKind::kStaticCrc}, 2),
               std::invalid_argument);
}

TEST(CampaignTelemetry, JobsDoNotChangeTelemetryBytes) {
  const std::vector<std::string> benches = {"swaptions"};
  const std::vector<PolicyKind> policies = {PolicyKind::kStaticCrc,
                                            PolicyKind::kRl};

  const std::filesystem::path dir1 = fresh_dir("rlftnoc_tele_jobs1");
  SimOptions serial = tiny_campaign_base();
  serial.jobs = 1;
  serial.telemetry.enabled = true;
  serial.telemetry.out_dir = dir1.string();
  run_campaign(serial, benches, policies, 2);

  const std::filesystem::path dir4 = fresh_dir("rlftnoc_tele_jobs4");
  SimOptions parallel = tiny_campaign_base();
  parallel.jobs = 4;
  parallel.telemetry.enabled = true;
  parallel.telemetry.out_dir = dir4.string();
  run_campaign(parallel, benches, policies, 2);

  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir1))
    names.push_back(entry.path().filename().string());
  std::sort(names.begin(), names.end());
  ASSERT_FALSE(names.empty());
  // One complete file set per (benchmark, policy) pair.
  int manifests = 0;
  for (const std::string& n : names)
    if (n.find(".manifest.json") != std::string::npos) ++manifests;
  EXPECT_EQ(manifests, 2);

  for (const std::string& name : names) {
    ASSERT_TRUE(std::filesystem::exists(dir4 / name)) << name;
    EXPECT_EQ(read_file(dir1 / name), read_file(dir4 / name))
        << name << " differs between jobs=1 and jobs=4";
  }
}

}  // namespace
}  // namespace rlftnoc
