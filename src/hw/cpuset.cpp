#include "hw/cpuset.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace pinsim::hw {

CpuSet CpuSet::first_n(int n) { return range(0, n); }

CpuSet CpuSet::range(int lo, int hi) {
  PINSIM_CHECK(lo >= 0 && hi <= kMaxCpus && lo <= hi);
  // Word w gets the bits of [max(lo, 64w), min(hi, 64w + 64)) in one
  // step. Shift counts stay in [0, 63]: a word filled to its top bit
  // takes ~0 instead of (1 << 64) - 1.
  CpuSet set;
  for (int w = 0; w < kWords; ++w) {
    const int base = w * 64;
    const int from = std::max(lo, base);
    const int to = std::min(hi, base + 64);
    if (from >= to) continue;
    const std::uint64_t below_to = to - base == 64
                                       ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << (to - base)) - 1;
    set.words_[static_cast<std::size_t>(w)] =
        below_to & (~std::uint64_t{0} << (from - base));
  }
  return set;
}

CpuSet CpuSet::of(std::initializer_list<CpuId> ids) {
  CpuSet set;
  for (CpuId id : ids) set.add(id);
  return set;
}

CpuSet CpuSet::operator&(const CpuSet& other) const {
  CpuSet result;
  for (std::size_t w = 0; w < static_cast<std::size_t>(kWords); ++w) {
    result.words_[w] = words_[w] & other.words_[w];
  }
  return result;
}

CpuSet CpuSet::operator|(const CpuSet& other) const {
  CpuSet result;
  for (std::size_t w = 0; w < static_cast<std::size_t>(kWords); ++w) {
    result.words_[w] = words_[w] | other.words_[w];
  }
  return result;
}

CpuSet CpuSet::operator~() const {
  CpuSet result;
  for (std::size_t w = 0; w < static_cast<std::size_t>(kWords); ++w) {
    result.words_[w] = ~words_[w];
  }
  return result;
}

bool CpuSet::subset_of(const CpuSet& other) const {
  for (std::size_t w = 0; w < static_cast<std::size_t>(kWords); ++w) {
    if ((words_[w] & ~other.words_[w]) != 0) return false;
  }
  return true;
}

CpuId CpuSet::first() const {
  PINSIM_CHECK(!empty());
  return first_set_after(-1);
}

CpuId CpuSet::first_set_after(CpuId cpu) const {
  const int start = cpu + 1;
  if (start >= kMaxCpus) return -1;
  std::size_t w = static_cast<std::size_t>(start / 64);
  std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (start % 64));
  while (true) {
    if (bits != 0) {
      return static_cast<CpuId>(w) * 64 + std::countr_zero(bits);
    }
    if (++w >= static_cast<std::size_t>(kWords)) return -1;
    bits = words_[w];
  }
}

CpuId CpuSet::nth_set(int k) const {
  PINSIM_CHECK(k >= 0);
  for (std::size_t w = 0; w < static_cast<std::size_t>(kWords); ++w) {
    std::uint64_t bits = words_[w];
    const int in_word = popcount64(bits);
    if (k >= in_word) {
      k -= in_word;
      continue;
    }
    while (k-- > 0) bits &= bits - 1;  // drop the k lowest set bits
    return static_cast<CpuId>(w) * 64 + std::countr_zero(bits);
  }
  PINSIM_CHECK_MSG(false, "nth_set past the end of the set");
  return -1;
}

std::vector<CpuId> CpuSet::to_vector() const {
  std::vector<CpuId> ids;
  ids.reserve(static_cast<std::size_t>(count()));
  for_each([&](CpuId cpu) { ids.push_back(cpu); });
  return ids;
}

std::string CpuSet::to_string() const {
  std::ostringstream os;
  bool first_group = true;
  int cpu = 0;
  while (cpu < kMaxCpus) {
    if (!contains(cpu)) {
      ++cpu;
      continue;
    }
    int end = cpu;
    while (end + 1 < kMaxCpus && contains(end + 1)) ++end;
    if (!first_group) os << ',';
    first_group = false;
    if (end == cpu) {
      os << cpu;
    } else {
      os << cpu << '-' << end;
    }
    cpu = end + 1;
  }
  if (first_group) os << "(empty)";
  return os.str();
}

}  // namespace pinsim::hw
