// Memoized referee calibration (DESIGN.md §14). The distributed testers
// that calibrate empirically (threshold, robust threshold — which shares
// the threshold tester's entries — multibit, asymmetric) burn
// thousands of protocol trials in their CONSTRUCTORS — and sweeps, dual
// adaptive/full probes, and warm-start reruns rebuild the same tester for
// the same (n, k, q, eps, calib_trials, seed) many times over. The memo
// caches the calibration RESULT keyed by the full construction identity.
//
// Deterministic-RNG accounting is preserved exactly: the memo key embeds
// the calibration RNG's ENTRY state, and the payload carries its EXIT
// state, which is restored on a hit — so a memoized construction leaves
// the caller's RNG (and therefore every downstream draw) bit-identical to
// a fresh construction. Keys also embed the RESOLVED trial count, so
// `calib_trials = 0 /* auto */` and the equivalent explicit count can
// never alias to different results (the resolution rule could change).
//
// Process-wide and thread-safe. Cross-process persistence is layered on
// top via install_hooks: the stats layer (which owns the ProbeCache
// session files) registers load/store callbacks here — a dependency
// inversion, because testers/ sits below stats/ and cannot include it.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace duti {

/// Round-trip doubles through the integer payload bit-exactly.
[[nodiscard]] inline std::uint64_t calib_pack_double(double x) {
  return std::bit_cast<std::uint64_t>(x);
}
[[nodiscard]] inline double calib_unpack_double(std::uint64_t bits) {
  return std::bit_cast<double>(bits);
}

/// Hex tag of the RNG's four state words, for embedding the calibration
/// stream's entry state in a memo id.
[[nodiscard]] std::string calib_rng_tag(const Rng& rng);

class CalibMemo {
 public:
  /// Hooks for a persistence backend (installed by the stats layer).
  /// `load` returns the payload for an id, or nullopt; `store` records it.
  struct Hooks {
    std::function<std::optional<std::vector<std::uint64_t>>(
        const std::string& id)>
        load;
    std::function<void(const std::string& id,
                       const std::vector<std::uint64_t>& payload)>
        store;
  };

  struct Stats {
    std::uint64_t hits = 0;      // in-memory map hits
    std::uint64_t loads = 0;     // misses served by the persistence hook
    std::uint64_t misses = 0;    // full recomputations
    std::uint64_t inserts = 0;   // results recorded
  };

  /// The process-wide memo used by the testers.
  [[nodiscard]] static CalibMemo& global();

  /// Payload for `id`, consulting memory then the load hook. Hook results
  /// are promoted into memory so repeat lookups are map hits.
  [[nodiscard]] std::optional<std::vector<std::uint64_t>> lookup(
      const std::string& id);

  /// Record a freshly computed payload (and forward to the store hook).
  void insert(const std::string& id, std::vector<std::uint64_t> payload);

  /// Install (or clear, with default-constructed Hooks) the persistence
  /// backend. Replaces any previous hooks.
  void install_hooks(Hooks hooks);

  [[nodiscard]] Stats stats() const;
  void reset_stats();

  /// Drop all memoized entries (tests; keeps hooks and stats).
  void clear();

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<std::uint64_t>> map_;
  Hooks hooks_;
  Stats stats_;
};

}  // namespace duti
