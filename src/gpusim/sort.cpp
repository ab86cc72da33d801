#include "gpusim/sort.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/fault.hpp"

namespace sj::gpu {

namespace {

/// Target pairs per MSD bucket: a bucket plus its share of the scratch
/// (2 x 32 KiB) stays cache-resident while it is LSD-sorted. A sort of n
/// pairs uses 2^bit_width((n - 1) / kBucketPairs) buckets.
constexpr std::size_t kBucketPairs = 4096;
/// Buckets at or below this size take a comparison sort: clearing and
/// scanning the digit histograms would cost more than sorting them.
constexpr std::size_t kTinyBucket = 96;
constexpr int kMaxDigitBits = 11;
constexpr int kMaxPasses = (64 + kMaxDigitBits - 1) / kMaxDigitBits;
constexpr int kMaxMsdBits = 16;

/// Order-preserving packing of a pair into its significant bits:
/// (key - kmin) << vbits | (value - vmin), where vbits covers the value
/// range. Comparing packed words is comparing (key, value).
struct Packing {
  std::uint32_t kmin = 0;
  std::uint32_t vmin = 0;
  int vbits = 0;
  int bits = 0;  ///< significant bits of a packed word (<= 64)

  std::uint64_t operator()(const Pair& p) const {
    return (static_cast<std::uint64_t>(p.key - kmin) << vbits) |
           (p.value - vmin);
  }
};

Packing make_packing(const Pair* data, std::size_t n) {
  std::uint32_t kmin = data[0].key, kmax = kmin;
  std::uint32_t vmin = data[0].value, vmax = vmin;
  for (std::size_t i = 1; i < n; ++i) {
    kmin = std::min(kmin, data[i].key);
    kmax = std::max(kmax, data[i].key);
    vmin = std::min(vmin, data[i].value);
    vmax = std::max(vmax, data[i].value);
  }
  Packing pk;
  pk.kmin = kmin;
  pk.vmin = vmin;
  pk.vbits = std::bit_width(vmax - vmin);
  pk.bits = pk.vbits + std::bit_width(kmax - kmin);
  return pk;
}

/// LSD radix sort of `n` pairs over the low `low_bits` bits of their
/// packed words. All digit histograms come from one read of `src`; each
/// pass whose digit is not constant scatters between `src` and `dst`.
/// Returns whichever of the two holds the sorted pairs. `hist` is room
/// for kMaxPasses histograms of 2^kMaxDigitBits counts.
Pair* lsd_sort(Pair* src, Pair* dst, std::size_t n, int low_bits,
               const Packing& pk, std::uint32_t* hist) {
  const int passes = (low_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (low_bits + passes - 1) / passes;
  const std::size_t radix = std::size_t{1} << digit_bits;
  const std::uint64_t mask = radix - 1;
  auto count_of = [hist](int p) {
    return hist + (static_cast<std::size_t>(p) << kMaxDigitBits);
  };
  for (int p = 0; p < passes; ++p) std::fill_n(count_of(p), radix, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w = pk(src[i]);
    for (int p = 0; p < passes; ++p) {
      ++count_of(p)[(w >> (p * digit_bits)) & mask];
    }
  }
  const std::uint64_t first = pk(src[0]);
  for (int p = 0; p < passes; ++p) {
    std::uint32_t* count = count_of(p);
    const int shift = p * digit_bits;
    // Pass elision: a digit shared by every pair leaves the order as is.
    if (count[(first >> shift) & mask] == n) continue;
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < radix; ++b) {
      const std::uint32_t c = count[b];
      count[b] = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[count[(pk(src[i]) >> shift) & mask]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace

void sort_pairs_by_key(Pair* data, std::size_t n, Pair* tmp) {
  SJ_FAULT_POINT(kSort);  // before any pass: data is untouched on failure
  if (n < 2) return;
  if (n <= kTinyBucket || n > std::numeric_limits<std::uint32_t>::max()) {
    std::sort(data, data + n);
    return;
  }
  const Packing pk = make_packing(data, n);
  std::vector<std::uint32_t> hist(std::size_t{kMaxPasses} << kMaxDigitBits);

  const int msd_bits = std::min(
      {pk.bits, kMaxMsdBits,
       static_cast<int>(std::bit_width((n - 1) / kBucketPairs))});
  const int low_bits = pk.bits - msd_bits;
  if (msd_bits == 0) {
    if (low_bits == 0) return;  // every pair is the same pair
    const Pair* sorted = lsd_sort(data, tmp, n, low_bits, pk, hist.data());
    if (sorted != data) std::memcpy(data, sorted, n * sizeof(Pair));
    return;
  }

  // MSD counting scatter on the top `msd_bits` into `tmp`...
  const std::size_t buckets = std::size_t{1} << msd_bits;
  std::vector<std::size_t> start(buckets + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++start[(pk(data[i]) >> low_bits) + 1];
  for (std::size_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[next[pk(data[i]) >> low_bits]++] = data[i];
    }
  }
  // ...then each bucket is sorted on its low bits while it is in cache and
  // lands back in `data` at the same offset.
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t off = start[b];
    const std::size_t len = start[b + 1] - off;
    if (len == 0) continue;
    if (len <= kTinyBucket || low_bits == 0) {
      std::memcpy(data + off, tmp + off, len * sizeof(Pair));
      if (low_bits != 0) std::sort(data + off, data + off + len);
      continue;
    }
    const Pair* sorted = lsd_sort(tmp + off, data + off, len, low_bits, pk,
                                 hist.data());
    if (sorted != data + off) {
      std::memcpy(data + off, sorted, len * sizeof(Pair));
    }
  }
}

}  // namespace sj::gpu
