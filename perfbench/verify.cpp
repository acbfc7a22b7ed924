#include "verify.hpp"

#include <cstdio>

namespace perfbench {

namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

const Expected& expected_default_seed() {
  static const Expected table = {
#include "expected_seed1.inc"
  };
  return table;
}

Verdict verify_rows(const std::vector<Row>& rows,
                    const std::vector<Row>& reference,
                    const Expected& expected, bool use_expected) {
  Verdict v;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::string why;
    if (!row.gate_ok) why += " gate failed;";
    if (!reference.empty() &&
        (i >= reference.size() || reference[i].key != row.key ||
         reference[i].outputs != row.outputs)) {
      why += " differs from the run's first pass;";
    }
    if (use_expected || row.seed_independent) {
      for (const auto& [name, value] : row.outputs) {
        const auto it = expected.find(row.key + "/" + name);
        if (it == expected.end()) {
          why += " no expected " + name + ";";
        } else if (it->second != value) {
          why += " " + name + " " + hex(value) + " != expected " +
                 hex(it->second) + ";";
        }
      }
    }
    if (!why.empty()) {
      ++v.failed;
      v.reasons.push_back(row.key + ":" + why);
    }
  }
  return v;
}

std::string expected_lines(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const auto& [name, value] : row.outputs) {
      out += "{\"" + row.key + "/" + name + "\", " + hex(value) + "ULL},\n";
    }
  }
  return out;
}

}  // namespace perfbench
