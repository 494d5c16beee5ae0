// E6 / Table II — simulation parameters. Prints the effective configuration
// of the default experiment next to the paper's values and fails (non-zero
// exit) if any headline parameter drifts from Table II.
#include <cstdio>
#include <string>

#include "sim/simulator.h"
#include "traffic/parsec.h"

using namespace rlftnoc;

namespace {

int g_failures = 0;

void row(const char* name, const std::string& paper, const std::string& ours,
         bool must_match = true) {
  const bool ok = !must_match || paper == ours;
  if (!ok) ++g_failures;
  std::printf("%-28s %-28s %-28s %s\n", name, paper.c_str(), ours.c_str(),
              ok ? "" : "<-- MISMATCH");
}

}  // namespace

int main() {
  const SimOptions opt;  // defaults = the campaign configuration

  std::printf("== Table II: simulation parameters ==\n");
  std::printf("%-28s %-28s %-28s\n", "parameter", "paper", "this build");
  std::printf("%.88s\n",
              "----------------------------------------------------------------"
              "------------------------------");

  row("# of cores", "64 out-of-order",
      std::to_string(opt.noc.num_nodes()) + " (traffic endpoints)", false);
  row("technology", "32 nm", "32 nm (ORION-lite coefficients)", false);
  row("voltage", "1.0 V", std::to_string(opt.controller.voltage).substr(0, 3) + " V");
  row("frequency", "2.0 GHz",
      std::to_string(opt.power.clock_hz / 1e9).substr(0, 3) + " GHz");
  row("topology", "8x8 2D mesh",
      std::to_string(opt.noc.mesh_width) + "x" + std::to_string(opt.noc.mesh_height) +
          " 2D mesh");
  row("routing", "X-Y", "X-Y (dimension ordered)", false);
  row("router pipeline", "4-stage", "RC/VA/SA+ST + link (see DESIGN.md)", false);
  row("VCs per port", "4", std::to_string(opt.noc.vcs_per_port));
  row("flit size", "128 bits",
      std::to_string(BitVec128::kBits) + " bits");
  // Packet length is a property of the traffic: the PARSEC profiles' data
  // packets (1-flit control packets aside).
  const int data_len = parsec_suite().front().data_packet_len;
  std::string packet_size = std::to_string(data_len) + " flits";
  for (const ParsecProfile& p : parsec_suite())
    if (p.data_packet_len != data_len) packet_size = "mixed";
  row("packet size", "4 flits", packet_size);
  row("RL time-step", "1000 cycles",
      std::to_string(opt.controller.step_cycles) + " cycles");
  row("RL alpha", "0.1", std::to_string(opt.rl.alpha).substr(0, 3));
  row("RL epsilon", "0.1", std::to_string(opt.rl.epsilon).substr(0, 3));
  row("pre-training", "1M cycles",
      std::to_string(opt.pretrain_cycles) + " cycles (--full: 1M)", false);
  row("warm-up", "300K cycles",
      std::to_string(opt.warmup_cycles) + " cycles (--full: 300K)", false);
  row("temperature band", "50-100 C",
      "ambient " + std::to_string(static_cast<int>(opt.thermal.ambient_c)) +
          " C, throttle " + std::to_string(static_cast<int>(opt.thermal.max_temp_c)) +
          " C", false);

  if (g_failures != 0) {
    std::printf("\n%d headline parameter(s) drifted from Table II\n", g_failures);
    return 1;
  }
  std::printf("\nall checked parameters match Table II\n");
  return 0;
}
