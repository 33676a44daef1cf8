#include "calibration.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "spans.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kMul = 6364136223846793005ULL;
constexpr std::uint64_t kAdd = 1442695040888963407ULL;

// Keeps the kernels' results observable so they are not optimized away.
volatile std::uint64_t g_sink = 0;

// The maps allocate from this page-aligned buffer, from its start, in every
// round: their nodes land at the same offsets whatever the workload has
// done to the heap, so the round's cache behaviour does not drift with it.
// (The page is touched only by calibration rounds, after peak_rss_mb is
// read.) The kernels need about 5 MB; running out throws.
alignas(4096) std::byte g_arena[8 << 20];

struct Arena {
  std::pmr::monotonic_buffer_resource resource{g_arena, sizeof g_arena,
                                               std::pmr::null_memory_resource()};
};

void hash_kernel() {
  Arena arena;
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&arena.resource);
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < 60000; ++i) {
    x = x * kMul + kAdd;
    map[x >> 20] += i;
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < 60000; ++i) {
    x = x * kMul + kAdd;
    const auto it = map.find(x >> 20);
    if (it != map.end()) sum += it->second;
  }
  g_sink = g_sink + sum;
}

void tree_kernel() {
  Arena arena;
  std::pmr::map<std::uint32_t, std::uint32_t> map(&arena.resource);
  std::uint64_t x = 3;
  for (std::uint32_t i = 0; i < 40000; ++i) {
    x = x * kMul + kAdd;
    map.emplace(static_cast<std::uint32_t>(x >> 33), i);
  }
  std::uint64_t sum = 0;
  for (const auto& kv : map) sum += kv.second;
  g_sink = g_sink + sum;
}

void alu_kernel() {
  std::uint64_t lanes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 2000000; ++i) {
    for (std::uint64_t& v : lanes) {
      v = v * kMul + kAdd;
      v ^= v >> 29;
    }
  }
  std::uint64_t sum = 0;
  for (const std::uint64_t v : lanes) sum += v;
  g_sink = g_sink + sum;
}

}  // namespace

double calibration_round_s() {
  const std::int64_t start = now_ns();
  hash_kernel();
  alu_kernel();
  tree_kernel();
  return static_cast<double>(now_ns() - start) * 1e-9;
}

double host_speed(int rounds) {
  std::vector<double> s;
  for (int i = 0; i < rounds; ++i) s.push_back(calibration_round_s());
  std::sort(s.begin(), s.end());
  return kNominalRoundS / s[s.size() / 2];
}

void Pacer::begin_unit() {
  raw_s_ = 0.0;
  scaled_s_ = 0.0;
  segment_start_ns_ = now_ns();
}

void Pacer::checkpoint() {
  const double segment_s = static_cast<double>(now_ns() - segment_start_ns_) * 1e-9;
  const double round_s = calibration_round_s();
  const double speed = kNominalRoundS / (0.5 * (last_round_s_ + round_s));
  last_round_s_ = round_s;
  raw_s_ += segment_s;
  scaled_s_ += segment_s * speed;
  segment_start_ns_ = now_ns();
}

}  // namespace perfbench
