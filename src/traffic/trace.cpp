#include "traffic/trace.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "noc/ni.h"

namespace rlftnoc {

std::vector<TraceRecord> read_trace(std::istream& in) {
  std::vector<TraceRecord> out;
  std::string line;
  std::size_t line_no = 0;
  Cycle prev = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos)
      continue;  // blank / comment-only line
    std::istringstream ls(line);
    TraceRecord rec;
    // A line with content must parse as exactly 'cycle src dst len'. On a
    // field that fails, re-extract it as a string so the error can quote the
    // offending token instead of silently skipping the line (which used to
    // hide typos like 'cycel 0 5 1' as if the line were a comment).
    const auto fail = [&](const char* field) -> std::runtime_error {
      ls.clear();
      std::string token;
      if (!(ls >> token)) token = "<end of line>";
      return std::runtime_error("trace line " + std::to_string(line_no) +
                                ": expected " + field + ", got '" + token +
                                "'");
    };
    if (!(ls >> rec.cycle)) throw fail("cycle");
    if (!(ls >> rec.src)) throw fail("src");
    if (!(ls >> rec.dst)) throw fail("dst");
    if (!(ls >> rec.len)) throw fail("len");
    std::string trailing;
    if (ls >> trailing)
      throw std::runtime_error("trace line " + std::to_string(line_no) +
                               ": trailing token '" + trailing +
                               "' after 'cycle src dst len'");
    if (rec.cycle < prev)
      throw std::runtime_error("trace line " + std::to_string(line_no) +
                               ": cycles not sorted");
    if (rec.len < 1)
      throw std::runtime_error("trace line " + std::to_string(line_no) +
                               ": non-positive packet length");
    prev = rec.cycle;
    out.push_back(rec);
  }
  return out;
}

std::vector<TraceRecord> read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

void write_trace(std::ostream& out, const std::vector<TraceRecord>& records) {
  out << "# rlftnoc packet trace: cycle src dst len\n";
  for (const TraceRecord& r : records) {
    out << r.cycle << ' ' << r.src << ' ' << r.dst << ' ' << r.len << '\n';
  }
}

void write_trace_file(const std::string& path, const std::vector<TraceRecord>& records) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file for write: " + path);
  write_trace(out, records);
}

std::vector<TraceRecord> capture_trace(TrafficGenerator& gen, Cycle cycles) {
  if (gen.exhausted())
    throw std::invalid_argument("capture_trace: generator '" + gen.name() +
                                "' is already exhausted; capturing it would "
                                "produce an empty trace");
  std::vector<TraceRecord> out;
  std::vector<Packet> batch;
  for (Cycle t = 0; t < cycles && !gen.exhausted(); ++t) {
    batch.clear();
    gen.tick(t, batch);
    for (const Packet& p : batch) {
      out.push_back(TraceRecord{t, p.src, p.dst, static_cast<int>(p.flits.size())});
    }
  }
  return out;
}

TraceTraffic::TraceTraffic(std::vector<TraceRecord> records, std::uint64_t seed,
                           std::string name)
    : records_(std::move(records)), rng_(seed, "trace"), name_(std::move(name)) {}

void TraceTraffic::tick(Cycle now, std::vector<Packet>& out) {
  while (next_ < records_.size() && records_[next_].cycle <= now) {
    const TraceRecord& r = records_[next_++];
    out.push_back(make_packet(next_id_++, r.src, r.dst, r.len, now, rng_));
  }
}

}  // namespace rlftnoc
