// Set of logical CPUs.
//
// Four 64-bit words sized for the largest host we model (the paper's
// Dell R830 exposes 112 logical CPUs; 256 leaves headroom). Used for
// task affinity masks, cgroup cpusets, pinning plans — and, since the
// scheduler hot-path overhaul, for the kernel's incrementally-updated
// idle/busy masks. All queries are ctz/popcount word scans; hot-path
// callers iterate set bits via for_each / first_set_after / nth_set and
// never materialize a std::vector<CpuId> (to_vector is for tests and
// reporting only).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace pinsim::hw {

using CpuId = int;

class CpuSet {
 public:
  static constexpr int kMaxCpus = 256;
  static constexpr int kWords = kMaxCpus / 64;

  CpuSet() = default;

  /// The set {0, 1, ..., n-1}.
  static CpuSet first_n(int n);

  /// The contiguous range [lo, hi).
  static CpuSet range(int lo, int hi);

  /// A set from explicit ids.
  static CpuSet of(std::initializer_list<CpuId> ids);

  void add(CpuId cpu) {
    PINSIM_CHECK(cpu >= 0 && cpu < kMaxCpus);
    words_[static_cast<std::size_t>(cpu / 64)] |= std::uint64_t{1}
                                                  << (cpu % 64);
  }
  void remove(CpuId cpu) {
    PINSIM_CHECK(cpu >= 0 && cpu < kMaxCpus);
    words_[static_cast<std::size_t>(cpu / 64)] &=
        ~(std::uint64_t{1} << (cpu % 64));
  }
  /// False for ids outside [0, kMaxCpus).
  bool contains(CpuId cpu) const {
    if (cpu < 0 || cpu >= kMaxCpus) return false;
    return (words_[static_cast<std::size_t>(cpu / 64)] >> (cpu % 64)) & 1;
  }

  int count() const {
    int total = 0;
    for (const std::uint64_t word : words_) total += popcount64(word);
    return total;
  }
  bool empty() const {
    return (words_[0] | words_[1] | words_[2] | words_[3]) == 0;
  }

  CpuSet operator&(const CpuSet& other) const;
  CpuSet operator|(const CpuSet& other) const;
  /// Complement over the full kMaxCpus universe; intersect with a
  /// bounded set to subtract (`a & ~b`).
  CpuSet operator~() const;
  bool operator==(const CpuSet& other) const { return words_ == other.words_; }

  /// True when every cpu in this set is also in `other`.
  bool subset_of(const CpuSet& other) const;

  /// Lowest cpu id in the set; requires non-empty.
  CpuId first() const;

  /// Next set bit strictly after `cpu` (pass -1 to start a scan), or -1
  /// when none remain. `for (c = s.first_set_after(-1); c >= 0;
  /// c = s.first_set_after(c))` visits the set in ascending order with
  /// early exit available.
  CpuId first_set_after(CpuId cpu) const;

  /// k-th set bit in ascending order (0-based); requires k < count().
  /// Gives random-pick-by-index over the set without a vector.
  CpuId nth_set(int k) const;

  /// Raw word `i` of the bitmap (bit b of word i is cpu 64*i + b).
  std::uint64_t word(int i) const {
    return words_[static_cast<std::size_t>(i)];
  }

  /// Visit every set bit in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (int w = 0; w < kWords; ++w) {
      std::uint64_t bits = words_[static_cast<std::size_t>(w)];
      while (bits != 0) {
        fn(static_cast<CpuId>(w * 64 + std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  }

  /// Materialize as a sorted vector of ids (tests/reporting only — hot
  /// paths iterate set bits instead).
  std::vector<CpuId> to_vector() const;

  /// Human-readable "0-3,8,10" style rendering.
  std::string to_string() const;

 private:
  /// Set bits of one word, by word-wise bit arithmetic: std::popcount
  /// compiles to a libgcc call on targets built without a popcount
  /// instruction.
  static constexpr int popcount64(std::uint64_t word) {
    word -= (word >> 1) & 0x5555555555555555u;
    word = (word & 0x3333333333333333u) + ((word >> 2) & 0x3333333333333333u);
    word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0fu;
    return static_cast<int>((word * 0x0101010101010101u) >> 56);
  }

  std::array<std::uint64_t, kWords> words_{};
};

}  // namespace pinsim::hw
