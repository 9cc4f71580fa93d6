#include "imm/rrr_collection.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/checkpoint.hpp"

namespace ripples {

namespace {

[[nodiscard]] std::uint32_t crc_bytes(const void *data, std::size_t bytes,
                                      std::uint32_t seed = 0) {
  return checkpoint::crc32(
      {static_cast<const std::uint8_t *>(data), bytes}, seed);
}

/// Shared growth screen: the collections are grown from theta-derived
/// totals, so a corrupted or absurd request must surface as a catchable
/// diagnostic naming the sizes, not as a bad_alloc (or a silent size_t
/// wrap) deep inside a parallel sampling region.
void check_growth(const char *what, std::size_t current, std::size_t extra,
                  std::size_t limit) {
  if (extra > limit - current)
    throw std::length_error(std::string(what) + " growth overflows: " +
                            std::to_string(current) + " + " +
                            std::to_string(extra) + " exceeds " +
                            std::to_string(limit));
}

} // namespace

std::size_t RRRCollection::grow(std::size_t count) {
  std::size_t first = sets_.size();
  // max_size is the allocator's theoretical ceiling; on overflow of
  // first + count it also catches the size_t wrap.
  check_growth("RRRCollection", first, count, sets_.max_size());
  sets_.resize(first + count);
  return first;
}

void FlatRRRCollection::append(std::span<const vertex_t> members) {
  check_growth("FlatRRRCollection payload", payload_.size(), members.size(),
               payload_.max_size());
  payload_.insert(payload_.end(), members.begin(), members.end());
  offsets_.push_back(payload_.size());
  if (checksums_) extend_page_crcs();
}

void FlatRRRCollection::enable_checksums() {
  if (checksums_) return;
  checksums_ = true;
  extend_page_crcs();
}

/// Hashes payload bytes [hashed_bytes_, total) into the page structure —
/// CRC chaining lets the open page accumulate across appends and finalize
/// exactly at each kPageBytes boundary.
void FlatRRRCollection::extend_page_crcs() {
  const auto *bytes = reinterpret_cast<const std::uint8_t *>(payload_.data());
  const std::size_t total = payload_.size() * sizeof(vertex_t);
  while (hashed_bytes_ < total) {
    const std::size_t page_end = (page_crcs_.size() + 1) * kPageBytes;
    const std::size_t upto = std::min(total, page_end);
    tail_crc_ = checkpoint::crc32({bytes + hashed_bytes_, upto - hashed_bytes_},
                                  tail_crc_);
    hashed_bytes_ = upto;
    if (hashed_bytes_ == page_end) {
      page_crcs_.push_back(tail_crc_);
      tail_crc_ = 0;
    }
  }
}

std::vector<std::size_t> FlatRRRCollection::verify_pages() const {
  std::vector<std::size_t> corrupt;
  if (!checksums_) return corrupt;
  const auto *bytes = reinterpret_cast<const std::uint8_t *>(payload_.data());
  for (std::size_t page = 0; page < page_crcs_.size(); ++page) {
    if (crc_bytes(bytes + page * kPageBytes, kPageBytes) != page_crcs_[page])
      corrupt.push_back(page);
  }
  const std::size_t tail_begin = page_crcs_.size() * kPageBytes;
  if (tail_begin < hashed_bytes_ &&
      crc_bytes(bytes + tail_begin, hashed_bytes_ - tail_begin) != tail_crc_)
    corrupt.push_back(page_crcs_.size());
  return corrupt;
}

void FlatRRRCollection::flip_payload_bit(std::size_t bit) {
  auto *bytes = reinterpret_cast<std::uint8_t *>(payload_.data());
  const std::size_t total = payload_.size() * sizeof(vertex_t);
  RIPPLES_ASSERT(total > 0);
  bit %= total * 8;
  bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

void FlatRRRCollection::rehash_page(std::size_t page) {
  const auto *bytes = reinterpret_cast<const std::uint8_t *>(payload_.data());
  const std::size_t begin = page * kPageBytes;
  if (page < page_crcs_.size()) {
    page_crcs_[page] = crc_bytes(bytes + begin, kPageBytes);
  } else if (begin < hashed_bytes_) {
    tail_crc_ = crc_bytes(bytes + begin, hashed_bytes_ - begin);
  }
}

void FlatRRRCollection::overwrite(std::size_t offset,
                                  std::span<const vertex_t> values) {
  RIPPLES_ASSERT(offset + values.size() <= payload_.size());
  if (values.empty()) return;
  std::memcpy(payload_.data() + offset, values.data(),
              values.size() * sizeof(vertex_t));
  if (!checksums_) return;
  const std::size_t first_page = offset * sizeof(vertex_t) / kPageBytes;
  const std::size_t last_byte = (offset + values.size()) * sizeof(vertex_t) - 1;
  for (std::size_t page = first_page; page <= last_byte / kPageBytes; ++page)
    rehash_page(page);
}

std::size_t RRRCollection::footprint_bytes() const {
  std::size_t bytes = sets_.capacity() * sizeof(RRRSet);
  for (const RRRSet &set : sets_) bytes += set.capacity() * sizeof(vertex_t);
  return bytes;
}

std::size_t RRRCollection::total_associations() const {
  std::size_t total = 0;
  for (const RRRSet &set : sets_) total += set.size();
  return total;
}

// --- CompressedRRRCollection ------------------------------------------------

void CompressedRRRCollection::encode_record(std::vector<std::uint8_t> &out,
                                            std::span<const vertex_t> members) {
  auto put = [&out](std::uint64_t value) {
    while (value >= 0x80) {
      out.push_back(static_cast<std::uint8_t>(value) | 0x80);
      value >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(value));
  };
  vertex_t previous = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    RIPPLES_DEBUG_ASSERT(i == 0 || members[i] > previous);
    put(i == 0 ? static_cast<std::uint64_t>(members[i])
               : static_cast<std::uint64_t>(members[i]) - previous);
    previous = members[i];
  }
}

void CompressedRRRCollection::append(std::span<const vertex_t> members) {
  // Worst case: 5 bytes per uint32 varint.
  check_growth("CompressedRRRCollection payload", payload_.size(),
               5 * members.size(), payload_.max_size());
  reserve_sets(1);
  if (num_sets_ % kBlockSize == 0) {
    if (checksums_ && num_sets_ != 0) block_crcs_.push_back(tail_crc_);
    tail_crc_ = 0;
    block_offsets_.push_back(payload_.size());
  }
  const std::size_t start = payload_.size();
  check_growth("CompressedRRRCollection block", 0,
               start - block_offsets_.back(),
               std::numeric_limits<std::uint32_t>::max());
  set_offsets_.push_back(
      static_cast<std::uint32_t>(start - block_offsets_.back()));
  encode_record(payload_, members);
  if (checksums_)
    tail_crc_ =
        crc_bytes(payload_.data() + start, payload_.size() - start, tail_crc_);
  ++num_sets_;
  total_associations_ += members.size();
}

void CompressedRRRCollection::reserve_sets(std::size_t count) {
  // Budgets charge the index's capacity, so it grows by an eighth instead
  // of doubling, which would add up to 4 more bytes per set.  (The payload
  // keeps the vector's doubling: copying it more often leaves freed buffers
  // resident and raises peak RSS.)
  if (set_offsets_.capacity() - set_offsets_.size() < count)
    set_offsets_.reserve(set_offsets_.size() +
                         std::max(set_offsets_.size() / 8, count));
}

void CompressedRRRCollection::enable_checksums() {
  if (checksums_) return;
  checksums_ = true;
  // Catch up on anything encoded before the switch: one CRC per closed
  // block, the running tail for the open one.
  block_crcs_.clear();
  tail_crc_ = 0;
  for (std::size_t b = 0; b < num_blocks(); ++b) {
    const auto [begin, end] = block_byte_range(b);
    const std::uint32_t crc = crc_bytes(payload_.data() + begin, end - begin);
    if (b + 1 < num_blocks())
      block_crcs_.push_back(crc);
    else
      tail_crc_ = crc;
  }
}

std::vector<std::size_t> CompressedRRRCollection::verify_blocks() const {
  std::vector<std::size_t> corrupt;
  if (!checksums_) return corrupt;
  for (std::size_t b = 0; b < num_blocks(); ++b) {
    const auto [begin, end] = block_byte_range(b);
    if (crc_bytes(payload_.data() + begin, end - begin) != stored_block_crc(b))
      corrupt.push_back(b);
  }
  return corrupt;
}

void CompressedRRRCollection::repair_block(std::size_t b,
                                           std::span<const RRRSet> sets) {
  RIPPLES_ASSERT(b < num_blocks());
  const auto [set_first, set_last] = block_set_range(b);
  if (sets.size() != set_last - set_first)
    throw std::runtime_error(
        "CompressedRRRCollection: repair_block(" + std::to_string(b) +
        ") got " + std::to_string(sets.size()) + " sets for a block of " +
        std::to_string(set_last - set_first));
  const auto [begin, end] = block_byte_range(b);
  std::vector<std::uint8_t> encoded;
  encoded.reserve(end - begin);
  for (const RRRSet &set : sets) encode_record(encoded, set);
  if (encoded.size() != end - begin)
    throw std::runtime_error(
        "CompressedRRRCollection: regenerated block " + std::to_string(b) +
        " re-encodes to " + std::to_string(encoded.size()) +
        " bytes where the stored block holds " + std::to_string(end - begin) +
        " — regeneration was not bit-identical, damage is unrepairable");
  std::memcpy(payload_.data() + begin, encoded.data(), encoded.size());
  const std::uint32_t crc = crc_bytes(payload_.data() + begin, end - begin);
  if (b < block_crcs_.size())
    block_crcs_[b] = crc;
  else
    tail_crc_ = crc;
}

void CompressedRRRCollection::flip_payload_bit(std::size_t bit) {
  RIPPLES_ASSERT(!payload_.empty());
  bit %= payload_.size() * 8;
  payload_[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

void CompressedRRRCollection::throw_corrupt_record() {
  throw std::runtime_error(
      "CompressedRRRCollection: varint overruns its record or exceeds 64 "
      "bits (truncated or corrupt block)");
}

std::size_t CompressedRRRCollection::set_size(std::size_t j) const {
  RIPPLES_DEBUG_ASSERT(j < num_sets_);
  // Each varint ends at the one byte without a continuation bit.
  return static_cast<std::size_t>(
      std::count_if(payload_.data() + record_begin(j),
                    payload_.data() + record_end(j),
                    [](std::uint8_t byte) { return (byte & 0x80) == 0; }));
}

void CompressedRRRCollection::decode_set(std::size_t j,
                                         std::vector<vertex_t> &out) const {
  out.clear();
  SetReader reader = read_set(j);
  for (vertex_t v; reader.next(v);) out.push_back(v);
}

void HypergraphCollection::add(RRRSet &&set) {
  check_growth("HypergraphCollection sample ids", sets_.size(), 1,
               std::size_t{std::numeric_limits<std::uint32_t>::max()});
  auto sample_id = static_cast<std::uint32_t>(sets_.size());
  for (vertex_t v : set) incidence_[v].push_back(sample_id);
  sets_.push_back(std::move(set));
}

std::size_t HypergraphCollection::footprint_bytes() const {
  std::size_t bytes = sets_.capacity() * sizeof(RRRSet);
  for (const RRRSet &set : sets_) bytes += set.capacity() * sizeof(vertex_t);
  bytes += incidence_.capacity() * sizeof(std::vector<std::uint32_t>);
  for (const auto &list : incidence_)
    bytes += list.capacity() * sizeof(std::uint32_t);
  return bytes;
}

std::size_t HypergraphCollection::total_associations() const {
  std::size_t total = 0;
  for (const RRRSet &set : sets_) total += set.size();
  for (const auto &list : incidence_) total += list.size();
  return total;
}

} // namespace ripples
