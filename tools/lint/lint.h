// rlftnoc_lint — project-specific determinism & hot-path discipline checker.
//
// The simulator's core contract is bit-identical results for any --jobs and
// --sim-threads value. That contract is enforced dynamically by byte-diff
// tests; this tool enforces it *statically*, at review time, with rules that
// generic clang-tidy cannot express (see DESIGN.md "Determinism discipline"):
//
//   R1 no-unordered-iteration   iterating std::unordered_{map,set,...} in
//                               determinism-critical dirs (iteration order is
//                               libstdc++-version- and insertion-dependent)
//   R2 no-ambient-entropy       std::random_device / rand / time() / chrono
//                               clocks outside the seeded Rng layer
//   R3 no-bare-assert           assert() vanishes under NDEBUG; use
//                               RLFTNOC_CHECK (always-on invariant layer)
//   R4 hot-path-container-bans  std::deque/map/list and throwing .at() in
//                               per-cycle-path files (PR 4 purged these)
//   R5 float-accumulation-order float/double += in range-for bodies without
//                               an explicit `// rlftnoc-lint: ordered`
//                               attestation that the iteration order is
//                               deterministic and intended
//
// In-source directives (all spelled inside comments):
//   // rlftnoc-lint: allow(R1,R2) <reason>   suppress on this + next line
//   // rlftnoc-lint: ordered                 R5 attestation, this + next line
//   // rlftnoc-lint: hot-path                mark this file per-cycle-path
//   // rlftnoc-lint: determinism-critical    opt this file into R1/R5 scope
//
// A malformed directive (unknown rule, missing reason) is itself reported as
// rule R0 so typos cannot silently disable checking.
#pragma once

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rlftnoc::lint {

struct Finding {
  std::string rule;     // "R0".."R5"
  std::string path;     // repo-relative when under the root, else as given
  int line = 0;
  int col = 0;
  std::string message;
  bool suppressed = false;  // matched an inline allow() directive
  bool baselined = false;   // absorbed by the committed baseline
};

/// Stable ordering: path, then line/col, then rule. All tool output
/// (text, JSON, baseline) is emitted in this order so reruns are
/// byte-identical — the linter holds itself to the determinism rules it
/// enforces.
bool finding_order(const Finding& a, const Finding& b);

struct LintConfig {
  std::string repo_root;  // absolute or cwd-relative; "" = cwd

  /// Directories (repo-relative prefixes) scanned when no explicit file list
  /// is given, and used for rule scoping.
  std::vector<std::string> scan_dirs = {"src", "apps", "bench"};

  /// R1/R5 scope: determinism-critical directory prefixes.
  std::vector<std::string> determinism_dirs = {
      "src/noc", "src/sim", "src/telemetry", "src/rl", "src/dt",
      "src/workload"};

  /// R2 allowlist: the seeded-RNG layer owns all entropy.
  std::vector<std::string> entropy_allow_files = {"src/common/rng.h",
                                                  "src/common/rng.cpp"};

  /// R4 scope: files on the per-cycle Network::step path. Kept as an
  /// explicit committed list (plus the in-file `hot-path` marker) so
  /// deleting a marker comment cannot silently shrink the scope.
  std::vector<std::string> hot_path_files = {
      "src/noc/router.h",      "src/noc/router.cpp", "src/noc/ni.h",
      "src/noc/ni.cpp",        "src/noc/channel.h",  "src/noc/network.h",
      "src/noc/network.cpp",   "src/noc/flit.h",     "src/noc/retention.h",
      "src/noc/step_effects.h", "src/common/ring_buffer.h",
      "src/noc/node_hot.h",    "src/fault/injector.h",
      "src/fault/injector.cpp", "src/common/rng.h",
      "src/noc/topology.h",    "src/noc/routing.cpp"};
};

/// One file's worth of findings (path must already be repo-relative where
/// possible). `source` is the file contents. `sibling_header_source`, when
/// non-empty, is lexed for *declarations only* (unordered/float members of
/// the class this .cpp implements) so iteration in the implementation file
/// over members declared in the header is still caught.
std::vector<Finding> lint_source(const std::string& rel_path,
                                 const std::string& source,
                                 const LintConfig& cfg,
                                 const std::string& sibling_header_source = {});

/// Lints `rel_path` on disk; a sibling header (foo.cpp -> foo.h) is lexed
/// too so iteration over unordered *members* declared in the header is
/// caught in the implementation file.
std::vector<Finding> lint_file(const std::string& rel_path,
                               const LintConfig& cfg);

/// Discovers *.h/*.cpp under cfg.scan_dirs (sorted, deterministic).
std::vector<std::string> discover_files(const LintConfig& cfg);

// -- baseline -------------------------------------------------------------
//
// Format: one `RULE<space>PATH<space>COUNT` line per (rule, file) pair,
// sorted; '#' comments. The baseline grandfathers up to COUNT findings of
// RULE in PATH. It is required to shrink monotonically: with
// `require_tight`, an entry whose budget exceeds the live finding count (or
// names a file/rule with no findings at all) is an error, so fixing a
// violation forces the baseline entry down in the same commit.

struct Baseline {
  std::map<std::pair<std::string, std::string>, int> budget;  // (rule,path)->n
};

Baseline read_baseline(std::istream& in);
Baseline read_baseline_file(const std::string& path);
void write_baseline(std::ostream& out, const std::vector<Finding>& findings);

/// Marks up to budget findings per (rule, path) as baselined, in
/// finding_order. Returns the list of stale entries (budget exceeds live
/// count), each formatted "RULE PATH have=H budget=B".
std::vector<std::string> apply_baseline(std::vector<Finding>& findings,
                                        const Baseline& b);

// -- output ---------------------------------------------------------------

/// Machine-readable report, schema "rlftnoc-lint-v1". Deterministic bytes.
void write_json(std::ostream& out, const std::vector<Finding>& findings,
                const std::vector<std::string>& stale,
                std::size_t files_scanned);

/// Human-readable `path:line:col: rule: message` lines (suppressed and
/// baselined findings are tagged, not hidden, under verbose).
void write_text(std::ostream& out, const std::vector<Finding>& findings,
                bool verbose);

}  // namespace rlftnoc::lint
