// Device key/value sort — the stand-in for thrust::sort_by_key, which the
// paper applies to each batch's (query id, neighbour id) pairs before
// transferring them to the host (Section IV-E). Thrust dispatches integer
// keys to a radix sort; this is a serial, cache-blocked equivalent:
//
//   1. one read finds the key and value ranges, and each pair is packed
//      as (key - kmin) << bits(value range) | (value - vmin), so only the
//      significant bits are sorted (ids below 2^21 give 42, not 64);
//   2. one MSD counting scatter on the top bits moves the pairs into the
//      scratch, in buckets of about 4096 pairs;
//   3. each bucket is LSD-sorted over its low bits while it is in cache
//      (digits of at most 11 bits, every digit histogram from one read,
//      constant digits skipped) and written back in place; buckets of a
//      few dozen pairs take a comparison sort.
//
// The result is the total (key, value) order, so it is the same bytes any
// correct sort would produce. Any key is accepted: a UNICOMP batch also
// emits reverse pairs whose keys lie outside its own query slots.
#pragma once

#include <cstddef>

#include "common/result.hpp"

namespace sj::gpu {

/// Sort pairs lexicographically by (key, value). `tmp` must hold at least
/// `n` elements (the analogue of thrust's O(n) temporary device storage).
/// An injected kSort fault throws before either buffer is written.
void sort_pairs_by_key(Pair* data, std::size_t n, Pair* tmp);

}  // namespace sj::gpu
