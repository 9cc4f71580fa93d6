/// \file rrr_collection.hpp
/// \brief The two RRR-set storage representations compared in Table 2.
///
/// The paper's key memory optimization (Section 3.1): previous
/// implementations store the sample/vertex incidence "in two directions
/// using the notion of a hypergraph ... each association between a sample
/// and a vertex is stored twice", which speeds up seed selection but can
/// exhaust memory.  IMMOPT stores only one direction — each sample as a
/// sorted vertex list — and compensates during selection with binary search
/// over the sorted lists.
///
///  * RRRCollection       — the paper's compact representation (IMMOPT).
///  * HypergraphCollection — the dual-direction baseline (Tang et al.'s IMM),
///    built here to reproduce Table 2's time and memory comparison.
///
/// Scrubbing (DESIGN.md §14): the two arena representations optionally carry
/// checksums over their contiguous payloads — per-block CRC-32 for the
/// compressed arena, 64 KiB pages for the flat arena — maintained
/// incrementally on append and verified before the selection kernels consume
/// the bytes.  Because every stored sample is a pure function of its RNG
/// coordinates, a damaged block is *repairable*: the owner regenerates the
/// block's sets bit-identically and re-encodes them in place.  Checksums are
/// opt-in (enable_checksums) so the default path pays nothing.
#ifndef RIPPLES_IMM_RRR_COLLECTION_HPP
#define RIPPLES_IMM_RRR_COLLECTION_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "imm/rrr.hpp"

namespace ripples {

/// Compact storage: samples only, each a sorted vertex list.
class RRRCollection {
public:
  [[nodiscard]] std::size_t size() const { return sets_.size(); }
  [[nodiscard]] const std::vector<RRRSet> &sets() const { return sets_; }
  [[nodiscard]] std::vector<RRRSet> &mutable_sets() { return sets_; }

  void add(RRRSet &&set) { sets_.push_back(std::move(set)); }

  /// Appends \p count empty slots and returns the index of the first, so a
  /// parallel sampler can fill disjoint slots without synchronization.
  /// Throws std::length_error with the offending sizes if the request
  /// cannot be represented — the callers grow before entering their
  /// parallel fill regions, so an absurd theta surfaces here as one
  /// catchable diagnostic instead of a bad_alloc on a worker thread.
  std::size_t grow(std::size_t count);

  /// Exact heap bytes held by the representation (vector headers + vertex
  /// payload capacity) — the quantity Table 2 reports per implementation.
  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Total number of (sample, vertex) associations.
  [[nodiscard]] std::size_t total_associations() const;

  void clear() { sets_.clear(); }

private:
  std::vector<RRRSet> sets_;
};

/// Arena storage: all samples concatenated in one vertex array with an
/// offsets index — the logical next step of the paper's compact
/// representation.  Removes the per-sample vector header (24 bytes) and
/// capacity slack, improves counting locality (one linear array), at the
/// price of append-only semantics.  Compared against RRRCollection in
/// ablation_storage.
class FlatRRRCollection {
public:
  /// Scrub granularity: one CRC-32 per this many payload bytes.  Large
  /// enough that the checksum array is negligible, small enough that one
  /// flipped bit damages (and re-derives) a bounded byte range.
  static constexpr std::size_t kPageBytes = 64 * 1024;

  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }

  /// Sorted members of sample \p j.
  [[nodiscard]] std::span<const vertex_t> sample(std::size_t j) const {
    RIPPLES_DEBUG_ASSERT(j + 1 < offsets_.size());
    return {payload_.data() + offsets_[j],
            static_cast<std::size_t>(offsets_[j + 1] - offsets_[j])};
  }

  /// Appends one sample (members already sorted).  Throws std::length_error
  /// when the concatenated payload would no longer be representable.
  void append(std::span<const vertex_t> members);

  [[nodiscard]] std::size_t footprint_bytes() const {
    return payload_.capacity() * sizeof(vertex_t) +
           offsets_.capacity() * sizeof(std::uint64_t) +
           page_crcs_.capacity() * sizeof(std::uint32_t);
  }

  [[nodiscard]] std::size_t total_associations() const {
    return payload_.size();
  }

  /// Releases growth slack after the collection stops growing.
  void shrink_to_fit() {
    payload_.shrink_to_fit();
    offsets_.shrink_to_fit();
    page_crcs_.shrink_to_fit();
  }

  /// Turns on page checksums (idempotent).  Already-appended payload is
  /// hashed on the spot; subsequent appends extend the page CRCs
  /// incrementally.  Off by default so the ungoverned path pays nothing.
  void enable_checksums();
  [[nodiscard]] bool checksums_enabled() const { return checksums_; }

  /// Recomputes every page CRC and returns the indices of pages whose
  /// payload no longer matches.  Empty when checksums are disabled.
  [[nodiscard]] std::vector<std::size_t> verify_pages() const;

  /// Deterministic fault-injection surface (the storage-level analogue of
  /// mpsim's kind=corrupt): flips one payload bit, leaving the stored page
  /// CRC describing the clean bytes.
  void flip_payload_bit(std::size_t bit);

  /// Repair: overwrites payload vertices [offset, offset + values.size())
  /// with regenerated (bit-identical) values and rehashes the touched
  /// pages, so a subsequent verify_pages() reflects the restored bytes.
  void overwrite(std::size_t offset, std::span<const vertex_t> values);

private:
  void extend_page_crcs();
  void rehash_page(std::size_t page);

  std::vector<vertex_t> payload_;
  std::vector<std::uint64_t> offsets_{0};
  std::vector<std::uint32_t> page_crcs_; // finalized (full) pages
  std::uint32_t tail_crc_ = 0;           // running CRC of the partial page
  std::size_t hashed_bytes_ = 0;
  bool checksums_ = false;
};

/// Delta+varint compressed arena (DESIGN.md §12): each sample is one record
/// `[varint first][varint deltas...]` — members are sorted and unique, so
/// consecutive differences are small positive integers that LEB128 encodes
/// in 1-2 bytes on the paper's graphs (HBMax, arXiv 2208.00613, and Wang et
/// al., arXiv 2311.07554, report 3-10x on exactly this structure).  The
/// index holds one 64-bit byte offset per kBlockSize sets plus one 32-bit
/// offset per set relative to its block, so any record is one seek away and
/// ends where the next begins: selection touches only the live sets it
/// reads, decodes each only up to the bound it needs, and a retired set
/// costs nothing.  The budget governor switches RRR storage to this
/// representation when the uncompressed arena would exceed the budget.
class CompressedRRRCollection {
public:
  /// Sets per index block (and per scrub checksum).
  static constexpr std::size_t kBlockSize = 256;

  [[nodiscard]] std::size_t size() const { return num_sets_; }
  [[nodiscard]] std::size_t total_associations() const {
    return total_associations_;
  }
  [[nodiscard]] std::size_t footprint_bytes() const {
    return payload_.capacity() * sizeof(std::uint8_t) +
           block_offsets_.capacity() * sizeof(std::uint64_t) +
           set_offsets_.capacity() * sizeof(std::uint32_t) +
           block_crcs_.capacity() * sizeof(std::uint32_t);
  }

  /// Appends one sample (members sorted ascending, unique).  Throws
  /// std::length_error when the encoded payload would no longer be
  /// representable, mirroring FlatRRRCollection::append.
  void append(std::span<const vertex_t> members);

  /// Makes room in the offset index for \p count more sets (at least an
  /// eighth of the current size), so a caller appending a known window
  /// leaves no index slack behind it.
  void reserve_sets(std::size_t count);

  /// Decodes the members of one sample in ascending order, one per next().
  /// Reads never leave the record's own bytes: a truncated or corrupt
  /// record throws std::runtime_error (release builds included) instead of
  /// reading past it.
  class SetReader {
  public:
    /// Stores the next member in \p v; false once the record is exhausted.
    bool next(vertex_t &v) {
      if (p_ == end_) return false;
      value_ += read_varint(p_, end_);
      v = static_cast<vertex_t>(value_);
      return true;
    }

  private:
    friend class CompressedRRRCollection;
    SetReader(const std::uint8_t *p, const std::uint8_t *end)
        : p_(p), end_(end) {}
    const std::uint8_t *p_;
    const std::uint8_t *end_;
    std::uint64_t value_ = 0;
  };

  /// A reader positioned before the first member of sample \p j.
  [[nodiscard]] SetReader read_set(std::size_t j) const {
    RIPPLES_DEBUG_ASSERT(j < num_sets_);
    return {payload_.data() + record_begin(j), payload_.data() + record_end(j)};
  }

  /// Member count of sample \p j: the varints of its record, counted
  /// without decoding.
  [[nodiscard]] std::size_t set_size(std::size_t j) const;

  /// Decodes sample \p j into \p out (cleared first).
  void decode_set(std::size_t j, std::vector<vertex_t> &out) const;

  /// Releases growth slack after the collection stops growing.
  void shrink_to_fit() {
    payload_.shrink_to_fit();
    block_offsets_.shrink_to_fit();
    set_offsets_.shrink_to_fit();
    block_crcs_.shrink_to_fit();
  }

  void clear() {
    payload_.clear();
    block_offsets_.clear();
    set_offsets_.clear();
    block_crcs_.clear();
    tail_crc_ = 0;
    num_sets_ = 0;
    total_associations_ = 0;
  }

  /// Turns on per-block checksums (idempotent).  Already-encoded payload is
  /// hashed on the spot; subsequent appends maintain a running CRC of the
  /// open block, finalized when the block fills.  Off by default so the
  /// budget-without-scrub path pays nothing.
  void enable_checksums();
  [[nodiscard]] bool checksums_enabled() const { return checksums_; }

  [[nodiscard]] std::size_t num_blocks() const {
    return block_offsets_.size();
  }

  /// The half-open set-index range [first, last) encoded by block \p b.
  [[nodiscard]] std::pair<std::size_t, std::size_t>
  block_set_range(std::size_t b) const {
    return {b * kBlockSize, std::min(num_sets_, (b + 1) * kBlockSize)};
  }

  /// Recomputes every block CRC and returns the indices of blocks whose
  /// encoded bytes no longer match.  Empty when checksums are disabled.
  [[nodiscard]] std::vector<std::size_t> verify_blocks() const;

  /// Repair: re-encodes block \p b from \p sets (the block's samples in
  /// set-index order, regenerated bit-identically from their RNG
  /// coordinates), overwrites the damaged bytes in place, and refreshes the
  /// block CRC.  The re-encoding is byte-identical, so the offset index
  /// stays valid.  Throws std::runtime_error when the re-encoding does not
  /// match the block's byte length — regeneration was not bit-identical, so
  /// the damage is not repairable and must escalate.
  void repair_block(std::size_t b, std::span<const RRRSet> sets);

  /// Deterministic fault-injection surface (the storage-level analogue of
  /// mpsim's kind=corrupt): flips one payload bit, leaving the stored block
  /// CRC describing the clean bytes.
  void flip_payload_bit(std::size_t bit);

private:
  /// Byte range [record_begin(j), record_end(j)) of sample \p j's record.
  [[nodiscard]] std::size_t record_begin(std::size_t j) const {
    return block_offsets_[j / kBlockSize] + set_offsets_[j];
  }
  [[nodiscard]] std::size_t record_end(std::size_t j) const {
    return j + 1 < num_sets_ ? record_begin(j + 1) : payload_.size();
  }
  /// Reads one LEB128 varint at \p p, bounded by \p end.
  static std::uint64_t read_varint(const std::uint8_t *&p,
                                   const std::uint8_t *end) {
    std::uint64_t value = 0;
    for (unsigned shift = 0; p != end && shift < 64; shift += 7) {
      const std::uint8_t byte = *p++;
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
    }
    throw_corrupt_record();
  }
  [[noreturn]] static void throw_corrupt_record();
  /// Encodes one record (the delta varints) into \p out —
  /// shared by append and repair_block so a repaired block is byte-for-byte
  /// what append would have produced.
  static void encode_record(std::vector<std::uint8_t> &out,
                            std::span<const vertex_t> members);
  /// Byte range [begin, end) of block \p b in payload_.
  [[nodiscard]] std::pair<std::size_t, std::size_t>
  block_byte_range(std::size_t b) const {
    return {block_offsets_[b], b + 1 < block_offsets_.size()
                                   ? block_offsets_[b + 1]
                                   : payload_.size()};
  }
  [[nodiscard]] std::uint32_t stored_block_crc(std::size_t b) const {
    return b < block_crcs_.size() ? block_crcs_[b] : tail_crc_;
  }

  std::vector<std::uint8_t> payload_;
  std::vector<std::uint64_t> block_offsets_; // byte offset of set kBlockSize*i
  std::vector<std::uint32_t> set_offsets_;   // per set, from its block's base
  std::vector<std::uint32_t> block_crcs_;    // finalized (closed) blocks
  std::uint32_t tail_crc_ = 0;               // running CRC of the open block
  std::size_t num_sets_ = 0;
  std::size_t total_associations_ = 0;
  bool checksums_ = false;
};

/// Dual-direction storage: samples plus, per vertex, the ids of the samples
/// containing it.  ~2x the associations of RRRCollection, as the paper
/// describes for prior implementations.
class HypergraphCollection {
public:
  explicit HypergraphCollection(vertex_t num_vertices)
      : incidence_(num_vertices) {}

  [[nodiscard]] std::size_t size() const { return sets_.size(); }
  [[nodiscard]] const std::vector<RRRSet> &sets() const { return sets_; }
  [[nodiscard]] const std::vector<std::uint32_t> &
  samples_containing(vertex_t v) const {
    return incidence_[v];
  }

  /// Adds a sample and indexes every member vertex back to it.  Throws
  /// std::length_error past 2^32 samples: incidence ids are stored as
  /// uint32_t (the representation under comparison), so a larger collection
  /// would silently alias sample ids.
  void add(RRRSet &&set);

  [[nodiscard]] std::size_t footprint_bytes() const;
  [[nodiscard]] std::size_t total_associations() const;

private:
  std::vector<RRRSet> sets_;
  std::vector<std::vector<std::uint32_t>> incidence_;
};

} // namespace ripples

#endif // RIPPLES_IMM_RRR_COLLECTION_HPP
