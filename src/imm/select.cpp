#include "imm/select.hpp"

#include <algorithm>
#include <concepts>
#include <exception>
#include <memory>
#include <omp.h>

#include "support/assert.hpp"
#include "support/memory.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "support/tsan.hpp"

namespace ripples {

namespace {

// --- sample sources ---------------------------------------------------------
// Besides size(), the kernels read a source through two operations: visit
// the members of sample j inside [vl, vh), and do so only when sample j
// contains a given seed.  Sorted sources hold each sample as one ascending
// vertex list, searched directly; the compressed arena decodes the sample
// only up to the bound it needs.

template <class Source>
constexpr bool kSortedSource = !std::same_as<Source, CompressedRRRCollection>;

template <class Sets>
std::span<const vertex_t> sorted_members(const Sets &samples, std::size_t j) {
  return samples[j];
}

std::span<const vertex_t> sorted_members(const FlatRRRCollection &samples,
                                         std::size_t j) {
  return samples.sample(j);
}

template <class Source, class Visit>
void for_members_in(const Source &samples, std::size_t j, vertex_t vl,
                    vertex_t vh, Visit &&visit) {
  const std::span<const vertex_t> members = sorted_members(samples, j);
  auto it = std::lower_bound(members.begin(), members.end(), vl);
  for (; it != members.end() && *it < vh; ++it) visit(*it);
}

template <class Visit>
void for_members_in(const CompressedRRRCollection &samples, std::size_t j,
                    vertex_t vl, vertex_t vh, Visit &&visit) {
  CompressedRRRCollection::SetReader reader = samples.read_set(j);
  for (vertex_t u; reader.next(u) && u < vh;)
    if (u >= vl) visit(u);
}

/// When sample j contains \p seed, visits its members inside [vl, vh) and
/// returns true.  A sorted sample is binary-searched for the seed, then for
/// vl.  A compressed one is decoded once, up to max(seed + 1, vh): its
/// interval members below the seed wait in \p scratch until the seed is
/// seen, the rest are visited as they are decoded, and the decode stops at
/// the first member past an absent seed.
template <class Source, class Visit>
bool visit_if_contains(const Source &samples, std::size_t j, vertex_t seed,
                       vertex_t vl, vertex_t vh, std::vector<vertex_t> &,
                       Visit &&visit) {
  const std::span<const vertex_t> members = sorted_members(samples, j);
  if (!std::binary_search(members.begin(), members.end(), seed)) return false;
  for_members_in(samples, j, vl, vh, visit);
  return true;
}

template <class Visit>
bool visit_if_contains(const CompressedRRRCollection &samples, std::size_t j,
                       vertex_t seed, vertex_t vl, vertex_t vh,
                       std::vector<vertex_t> &scratch, Visit &&visit) {
  CompressedRRRCollection::SetReader reader = samples.read_set(j);
  scratch.clear();
  vertex_t u = 0;
  bool more = false;
  while ((more = reader.next(u)) && u < seed)
    if (u >= vl && u < vh) scratch.push_back(u);
  if (!more || u != seed) return false;
  for (vertex_t w : scratch) visit(w);
  do {
    if (u >= vh) break;
    if (u >= vl) visit(u);
  } while (reader.next(u));
  return true;
}

// --- the kernel's passes, over one vertex interval [vl, vh) -----------------

/// Counting: every sample's members inside the interval.
template <class Source>
void count_interval(const Source &samples, vertex_t vl, vertex_t vh,
                    std::span<std::uint32_t> counters) {
  for (std::size_t j = 0; j < samples.size(); ++j)
    for_members_in(samples, j, vl, vh, [&](vertex_t u) { ++counters[u]; });
}

/// The decrement of one member of a retired sample, logged when \p log is
/// set.
auto decrementer(std::span<std::uint32_t> counters, DecrementLog *log) {
  return [counters, log](vertex_t u) {
    RIPPLES_DEBUG_ASSERT(counters[u] > 0);
    --counters[u];
    if (log != nullptr && log->pending[u]++ == 0) log->touched.push_back(u);
  };
}

/// Decrementing by scan, with retirement fused in: for every live sample
/// containing \p seed, decrements (and logs, when \p log is set) the
/// sample's members inside the interval, then calls \p hit(j).
template <class Source, class Hit>
void decrement_interval(const Source &samples, vertex_t seed, vertex_t vl,
                        vertex_t vh, std::span<std::uint32_t> counters,
                        std::span<const std::uint8_t> retired,
                        DecrementLog *log, Hit &&hit) {
  std::vector<vertex_t> scratch;
  const auto decrement = decrementer(counters, log);
  for (std::size_t j = 0; j < samples.size(); ++j)
    if (!retired[j] &&
        visit_if_contains(samples, j, seed, vl, vh, scratch, decrement))
      hit(j);
}

// --- the transient vertex -> sample index (DESIGN.md §4, item 7) ------------

/// The index-or-scan rule of select_seeds_multithreaded on a sorted source
/// outside a memory budget: build the index when k scans of the samples
/// would cost more than the index holds, and its ids and offsets fit in 32
/// bits.
bool index_pays(std::uint32_t k, std::uint64_t samples,
                std::uint64_t associations) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 32;
  return samples < kLimit && associations < kLimit &&
         std::uint64_t{k} * samples > associations;
}

/// CSR over the vertices: `samples_containing(v)` lists, in ascending order,
/// the ids of the samples containing v.  Each thread fills the rows of its
/// own interval, so the fill needs no atomics.  Charged to the
/// MemoryTracker as plain accounting (no reservation, no fault site) while
/// it lives.
class SampleIndex {
public:
  SampleIndex() = default;
  SampleIndex(const SampleIndex &) = delete;
  SampleIndex &operator=(const SampleIndex &) = delete;
  ~SampleIndex() {
    if (bytes_ != 0) MemoryTracker::instance().deallocate(bytes_);
  }

  void allocate(vertex_t num_vertices, std::uint64_t associations) {
    offsets_ = std::make_unique_for_overwrite<std::uint32_t[]>(
        std::size_t{num_vertices} + 1);
    ids_ = std::make_unique_for_overwrite<std::uint32_t[]>(associations);
    offsets_[0] = 0;
    bytes_ = sizeof(std::uint32_t) * (std::size_t{num_vertices} + 1 +
                                      associations);
    MemoryTracker::instance().allocate(bytes_);
  }

  [[nodiscard]] bool ready() const { return ids_ != nullptr; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

  /// Fills the rows of [vl, vh), whose entries start at \p base:
  /// prefix-sums the interval's counters into row starts, then walks the
  /// samples in order, appending each to the rows of its members.  Every
  /// row start ends as the next row's start, so the rows of the last vertex
  /// before vl are another thread's to end.
  template <class Source>
  void fill(const Source &samples, vertex_t vl, vertex_t vh,
            std::uint64_t base, std::span<const std::uint32_t> counters) {
    auto start = static_cast<std::uint32_t>(base);
    for (vertex_t v = vl; v < vh; ++v) {
      offsets_[v + 1] = start;
      start += counters[v];
    }
    for (std::size_t j = 0; j < samples.size(); ++j) {
      const auto id = static_cast<std::uint32_t>(j);
      for_members_in(samples, j, vl, vh,
                     [&](vertex_t u) { ids_[offsets_[u + 1]++] = id; });
    }
  }

  [[nodiscard]] std::span<const std::uint32_t>
  samples_containing(vertex_t v) const {
    return {ids_.get() + offsets_[v], ids_.get() + offsets_[v + 1]};
  }

private:
  std::unique_ptr<std::uint32_t[]> offsets_;
  std::unique_ptr<std::uint32_t[]> ids_;
  std::size_t bytes_ = 0;
};

metrics::Counter &index_bytes_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.select.index_bytes");
  return c;
}

} // namespace

template <SampleSource Source>
void count_memberships(const Source &samples,
                       std::span<std::uint32_t> counters) {
  // The sequential callers own the whole vertex range.
  count_interval(samples, 0, static_cast<vertex_t>(counters.size()), counters);
}

template <SampleSource Source>
std::uint64_t retire_samples_containing(vertex_t seed, const Source &samples,
                                        std::span<std::uint32_t> counters,
                                        std::vector<std::uint8_t> &retired,
                                        DecrementLog *log) {
  std::uint64_t retired_count = 0;
  decrement_interval(samples, seed, 0, static_cast<vertex_t>(counters.size()),
                     counters, retired, log, [&](std::size_t j) {
                       retired[j] = 1;
                       ++retired_count;
                     });
  RIPPLES_DEBUG_ASSERT(counters[seed] == 0);
  return retired_count;
}

vertex_t argmax_counter(std::span<const std::uint32_t> counters,
                        std::span<const std::uint8_t> selected) {
  vertex_t best = 0;
  std::uint32_t best_count = 0;
  bool found = false;
  for (vertex_t v = 0; v < counters.size(); ++v) {
    if (selected[v]) continue;
    if (!found || counters[v] > best_count) {
      best = v;
      best_count = counters[v];
      found = true;
    }
  }
  RIPPLES_ASSERT_MSG(found, "k exceeds the number of vertices");
  return best;
}

SelectionResult select_seeds(vertex_t num_vertices, std::uint32_t k,
                             std::span<const RRRSet> samples) {
  RIPPLES_ASSERT(k >= 1 && k <= num_vertices);
  trace::Span span("select", "select.greedy", "k", k, "samples",
                   samples.size());
  std::vector<std::uint32_t> counters(num_vertices, 0);
  {
    trace::Span count_span("select", "select.count_memberships");
    count_memberships(samples, counters);
  }

  std::vector<std::uint8_t> retired(samples.size(), 0);
  std::vector<std::uint8_t> selected(num_vertices, 0);

  SelectionResult result;
  result.total_samples = samples.size();
  result.seeds.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    trace::Span round("select", "select.round", "round", i);
    vertex_t seed = argmax_counter(counters, selected);
    selected[seed] = 1;
    result.seeds.push_back(seed);
    std::uint64_t covered =
        retire_samples_containing(seed, samples, counters, retired);
    result.covered_samples += covered;
    round.arg("covered", covered);
  }
  return result;
}

template <SampleSource Source>
SelectionResult select_seeds_multithreaded(vertex_t num_vertices,
                                           std::uint32_t k,
                                           const Source &samples,
                                           unsigned num_threads) {
  RIPPLES_ASSERT(k >= 1 && k <= num_vertices);
  RIPPLES_ASSERT(num_threads >= 1);
  trace::Span span("select", "select.multithreaded", "k", k, "samples",
                   samples.size());

  std::vector<std::uint32_t> counters(num_vertices, 0);
  std::vector<std::uint8_t> retired(samples.size(), 0);
  std::vector<std::uint8_t> selected(num_vertices, 0);

  SelectionResult result;
  result.total_samples = samples.size();
  result.seeds.reserve(k);

  // One cache line per entry: every thread writes its own slot each round,
  // so unpadded entries would false-share the reduction array.
  struct alignas(64) Candidate {
    std::uint32_t count;
    vertex_t vertex;
  };
  std::vector<Candidate> local_best(num_threads);
  // Associations inside each thread's interval, from the counting pass.
  struct alignas(64) IntervalTotal {
    std::uint64_t associations;
  };
  std::vector<IntervalTotal> interval_totals(num_threads);
  // The index never runs under a memory budget: the budget cannot see it.
  const bool may_index =
      kSortedSource<Source> && MemoryTracker::instance().budget() == 0;
  SampleIndex index;
  vertex_t chosen = 0;
  // An exception must not leave a parallel region, and a thread that skips
  // a barrier hangs the others: each thread parks its first failure (a
  // corrupt compressed record, an allocation failure) in its own slot and
  // keeps meeting the barriers; the first one is rethrown after the join.
  std::vector<std::exception_ptr> failures(num_threads);

  tsan_release(&chosen);
#pragma omp parallel num_threads(static_cast<int>(num_threads))
  {
    tsan_acquire(&chosen);
    const auto t = static_cast<unsigned>(omp_get_thread_num());
    const auto p = static_cast<unsigned>(omp_get_num_threads());
    auto guarded = [&](auto &&pass) {
      try {
        pass();
      } catch (...) {
        if (!failures[t]) failures[t] = std::current_exception();
      }
    };
    const auto decrement = decrementer(counters, nullptr);
    // Samples this thread retires (owner-computes: j % p == t).  Collected
    // during the decrement pass, flagged only after the barrier so other
    // threads never observe a mid-round `retired` update.
    std::vector<std::size_t> my_retired;
    std::uint64_t my_covered = 0;
    // Vertex interval owned by this thread rank (Alg. 4: vl, vh).
    const auto vl = static_cast<vertex_t>(
        (static_cast<std::uint64_t>(num_vertices) * t) / p);
    const auto vh = static_cast<vertex_t>(
        (static_cast<std::uint64_t>(num_vertices) * (t + 1)) / p);

    // Counting step: every thread visits all samples but touches only the
    // counters it owns, reading each sample from vl up to vh (Section 3.1).
    {
      // Per-thread span ending before the barrier, so interval imbalance in
      // the counting pass is visible as ragged span ends.
      trace::Span count_span("select", "select.count", "thread", t);
      guarded([&] { count_interval(samples, vl, vh, counters); });
      std::uint64_t total = 0;
      for (vertex_t v = vl; v < vh; ++v) total += counters[v];
      interval_totals[t].associations = total;
    }
#pragma omp barrier

    // Index or scan: decided from the shared totals, so every thread takes
    // the same path.  The index lists, for every vertex, the samples
    // containing it; each thread fills the rows of its own interval.
    std::uint64_t associations = 0;
    std::uint64_t base = 0; // index entries of the intervals before this one
    for (unsigned u = 0; u < p; ++u) {
      if (u == t) base = associations;
      associations += interval_totals[u].associations;
    }
    const bool any_failure =
        std::any_of(failures.begin(), failures.end(),
                    [](const std::exception_ptr &f) { return bool(f); });
    if (may_index && !any_failure &&
        index_pays(k, samples.size(), associations)) {
      // Allocated on the calling thread, which also frees it: buffers a
      // worker allocates land in its own malloc arena, and one solve after
      // another the process kept more of them resident.
#pragma omp master
      guarded([&] { index.allocate(num_vertices, associations); });
#pragma omp barrier
      if (index.ready()) {
        trace::Span index_span("select", "select.index", "thread", t);
        guarded([&] { index.fill(samples, vl, vh, base, counters); });
      }
#pragma omp barrier
    }

    for (std::uint32_t i = 0; i < k; ++i) {
      // Parallel argmax reduction: local candidate per interval...
      Candidate best{0, vh};
      bool found = false;
      for (vertex_t v = vl; v < vh; ++v) {
        if (selected[v]) continue;
        if (!found || counters[v] > best.count) {
          best = {counters[v], v};
          found = true;
        }
      }
      local_best[t] = found ? best : Candidate{0, num_vertices};
#pragma omp barrier
      // ...then one thread combines (higher count wins, ties to smaller id).
#pragma omp single
      {
        Candidate global{0, num_vertices};
        for (const Candidate &c : local_best) {
          if (c.vertex >= num_vertices) continue;
          if (global.vertex >= num_vertices || c.count > global.count ||
              (c.count == global.count && c.vertex < global.vertex))
            global = c;
        }
        RIPPLES_ASSERT_MSG(global.vertex < num_vertices,
                           "k exceeds the number of vertices");
        chosen = global.vertex;
        selected[chosen] = 1;
        result.seeds.push_back(chosen);
        trace::instant("select", "select.round", "round", i, "seed", chosen);
      } // implicit barrier: `chosen` is visible to all threads

      // Decrement phase, with retirement fused in: for every live sample
      // containing the seed, each thread decrements the members inside its
      // own interval — no atomics (Alg. 4) — and the sample's owner
      // (j % p == t) queues it for retirement.  The index names those
      // samples; without it every thread tests every sample.  `retired` is
      // only read during this pass; the queued flags are written after the
      // barrier below, so all threads see a consistent view.
      my_retired.clear();
      auto hit = [&](std::size_t j) {
        if (j % p == t) my_retired.push_back(j);
      };
      {
        trace::Span decrement_span("select", "select.decrement", "round", i,
                                   "thread", t);
        if (index.ready()) {
          for (std::uint32_t j : index.samples_containing(chosen)) {
            if (retired[j]) continue;
            for_members_in(samples, j, vl, vh, decrement);
            hit(j);
          }
        } else {
          guarded([&] {
            decrement_interval(samples, chosen, vl, vh, counters, retired,
                               nullptr, hit);
          });
        }
      }
#pragma omp barrier
      // Flag the queued samples (disjoint writes: ownership partitions j).
      // The next round's pre-argmax barrier orders these writes before any
      // thread reads `retired` again.
      for (std::size_t j : my_retired) retired[j] = 1;
      my_covered += my_retired.size();
    }

#pragma omp atomic
    result.covered_samples += my_covered;
    tsan_release(&chosen);
  }
  tsan_acquire(&chosen);
  span.arg("index", index.ready() ? 1 : 0);
  span.arg("index_bytes", index.bytes());
  if (index.ready() && metrics::enabled())
    index_bytes_counter().add(index.bytes());
  for (const std::exception_ptr &failure : failures)
    if (failure) std::rethrow_exception(failure);
  return result;
}

// The sources every kernel is built for (the SampleSource concept).
#define RIPPLES_SELECT_SOURCE(Source)                                          \
  template SelectionResult select_seeds_multithreaded(                         \
      vertex_t, std::uint32_t, const Source &, unsigned);                      \
  template void count_memberships(const Source &, std::span<std::uint32_t>);   \
  template std::uint64_t retire_samples_containing(                            \
      vertex_t, const Source &, std::span<std::uint32_t>,                      \
      std::vector<std::uint8_t> &, DecrementLog *);
RIPPLES_SELECT_SOURCE(std::vector<RRRSet>)
RIPPLES_SELECT_SOURCE(std::span<const RRRSet>)
RIPPLES_SELECT_SOURCE(FlatRRRCollection)
RIPPLES_SELECT_SOURCE(CompressedRRRCollection)
#undef RIPPLES_SELECT_SOURCE

SelectionResult select_seeds_lazy(vertex_t num_vertices, std::uint32_t k,
                                  std::span<const RRRSet> samples) {
  RIPPLES_ASSERT(k >= 1 && k <= num_vertices);
  trace::Span span("select", "select.lazy", "k", k, "samples", samples.size());
  std::vector<std::uint32_t> counters(num_vertices, 0);
  {
    trace::Span count_span("select", "select.count_memberships");
    count_memberships(samples, counters);
  }

  // Max-heap of (cached count, vertex), higher count first, ties to the
  // smaller vertex id so the output matches the eager implementations.
  struct Entry {
    std::uint32_t count;
    vertex_t vertex;
  };
  auto lower_priority = [](const Entry &a, const Entry &b) {
    return a.count < b.count || (a.count == b.count && a.vertex > b.vertex);
  };
  std::vector<Entry> heap;
  heap.reserve(num_vertices);
  for (vertex_t v = 0; v < num_vertices; ++v) heap.push_back({counters[v], v});
  std::make_heap(heap.begin(), heap.end(), lower_priority);

  std::vector<std::uint8_t> retired(samples.size(), 0);
  SelectionResult result;
  result.total_samples = samples.size();
  result.seeds.reserve(k);
  std::uint64_t stale_refreshes = 0;
  while (result.seeds.size() < k) {
    trace::Span round("select", "select.round", "round", result.seeds.size());
    std::uint64_t round_stale = 0;
    for (;;) {
      RIPPLES_ASSERT_MSG(!heap.empty(), "k exceeds the number of vertices");
      std::pop_heap(heap.begin(), heap.end(), lower_priority);
      Entry top = heap.back();
      heap.pop_back();
      if (top.count != counters[top.vertex]) {
        // Stale cache: counters only decrease, so refresh and reinsert.
        heap.push_back({counters[top.vertex], top.vertex});
        std::push_heap(heap.begin(), heap.end(), lower_priority);
        ++round_stale;
        continue;
      }
      result.seeds.push_back(top.vertex);
      result.covered_samples +=
          retire_samples_containing(top.vertex, samples, counters, retired);
      break;
    }
    stale_refreshes += round_stale;
    round.arg("stale", round_stale);
  }
  trace::instant("select", "select.lazy_done", "stale_refreshes",
                 stale_refreshes);
  return result;
}

SelectionResult select_seeds_hypergraph(vertex_t num_vertices, std::uint32_t k,
                                        const HypergraphCollection &collection) {
  RIPPLES_ASSERT(k >= 1 && k <= num_vertices);
  trace::Span span("select", "select.hypergraph", "k", k, "samples",
                   collection.size());
  // The vertex -> samples index gives the initial counters for free and
  // makes retirement proportional to the retired samples only — the
  // selection-speed advantage the paper attributes to the hypergraph
  // representation (bought with ~2x memory).
  std::vector<std::uint32_t> counters(num_vertices, 0);
  for (vertex_t v = 0; v < num_vertices; ++v)
    counters[v] =
        static_cast<std::uint32_t>(collection.samples_containing(v).size());

  std::vector<std::uint8_t> retired(collection.size(), 0);
  std::vector<std::uint8_t> selected(num_vertices, 0);

  SelectionResult result;
  result.total_samples = collection.size();
  result.seeds.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    vertex_t seed = argmax_counter(counters, selected);
    selected[seed] = 1;
    result.seeds.push_back(seed);
    for (std::uint32_t j : collection.samples_containing(seed)) {
      if (retired[j]) continue;
      retired[j] = 1;
      ++result.covered_samples;
      for (vertex_t u : collection.sets()[j]) {
        RIPPLES_DEBUG_ASSERT(counters[u] > 0);
        --counters[u];
      }
    }
  }
  return result;
}

// --- sparse selection exchange ----------------------------------------------

TopmSummary sparse_topm(std::span<const std::uint32_t> counters,
                        std::span<const std::uint8_t> selected,
                        std::uint32_t m) {
  RIPPLES_ASSERT(m >= 1);
  RIPPLES_ASSERT(counters.size() == selected.size());
  TopmSummary summary;
  summary.top.reserve(m);
  // Bounded "best m" heap ordered worst-first, so the root is the entry a
  // better candidate evicts.  Everything rejected or evicted feeds the
  // outside bound: the exact maximum count among unreported unselected
  // vertices.
  auto worse = [](const CounterPair &a, const CounterPair &b) {
    return a.count > b.count || (a.count == b.count && a.vertex < b.vertex);
  };
  std::vector<CounterPair> &heap = summary.top;
  std::uint32_t outside = 0;
  bool any_outside = false;
  for (vertex_t v = 0; v < counters.size(); ++v) {
    if (selected[v]) continue;
    const CounterPair entry{v, counters[v]};
    if (heap.size() < m) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end(), worse);
      continue;
    }
    const CounterPair &weakest = heap.front();
    if (worse(entry, weakest)) {
      // Evict the weakest in favour of this entry.
      std::pop_heap(heap.begin(), heap.end(), worse);
      const CounterPair evicted = heap.back();
      heap.back() = entry;
      std::push_heap(heap.begin(), heap.end(), worse);
      outside = std::max(outside, evicted.count);
      any_outside = true;
    } else {
      outside = std::max(outside, entry.count);
      any_outside = true;
    }
  }
  summary.outside_bound = any_outside ? outside : 0;
  // Wire and merge order: count descending, ties to the smaller id —
  // the dense argmax preference order.
  std::sort(heap.begin(), heap.end(), [](const CounterPair &a,
                                         const CounterPair &b) {
    return a.count > b.count || (a.count == b.count && a.vertex < b.vertex);
  });
  return summary;
}

SparseMergeResult sparse_merge(std::span<const TopmSummary> summaries) {
  // Candidate accumulation: LB = sum of reported counts; the reporters'
  // outside bounds are summed per candidate so UB = LB + (T - reported_T)
  // without needing per-rank membership bitmaps.
  struct Candidate {
    vertex_t vertex;
    std::uint64_t lb = 0;
    std::uint64_t reported_outside = 0; // sum of outside_bound over reporters
    std::uint32_t reporters = 0;
  };
  std::uint64_t total_outside = 0; // T: bound on any unreported vertex
  std::vector<Candidate> candidates;
  std::size_t total_pairs = 0;
  for (const TopmSummary &summary : summaries) {
    total_outside += summary.outside_bound;
    total_pairs += summary.top.size();
  }
  candidates.reserve(total_pairs);
  for (const TopmSummary &summary : summaries)
    for (const CounterPair &pair : summary.top)
      candidates.push_back({pair.vertex, pair.count, summary.outside_bound, 1});
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate &a, const Candidate &b) {
              return a.vertex < b.vertex;
            });
  // Merge duplicate vertices (reported by several ranks) in place.
  std::size_t unique = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (unique > 0 && candidates[unique - 1].vertex == candidates[i].vertex) {
      candidates[unique - 1].lb += candidates[i].lb;
      candidates[unique - 1].reported_outside += candidates[i].reported_outside;
      candidates[unique - 1].reporters += 1;
    } else {
      candidates[unique++] = candidates[i];
    }
  }
  candidates.resize(unique);

  SparseMergeResult result;
  result.candidates.reserve(unique);
  for (const Candidate &c : candidates) result.candidates.push_back(c.vertex);
  if (candidates.empty()) return result; // nothing reported: cannot certify

  const std::uint32_t num_ranks = static_cast<std::uint32_t>(summaries.size());
  auto ub_of = [&](const Candidate &c) {
    return c.lb + (total_outside - c.reported_outside);
  };
  auto exact = [&](const Candidate &c) {
    // Fully known iff every rank reported it, or the missing ranks can
    // only contribute zero.
    return c.reporters == num_ranks || ub_of(c) == c.lb;
  };

  // Winner preference: LB descending, ties to the smaller id (the ids of
  // sorted candidates ascend, so the first maximum wins ties for free).
  const Candidate *best = &candidates.front();
  for (const Candidate &c : candidates)
    if (c.lb > best->lb) best = &c;
  result.winner = best->vertex;

  // Certification (see the header's bound derivation).
  if (total_outside >= best->lb) return result; // (ii) violated
  for (const Candidate &c : candidates) {
    if (&c == best) continue;
    const std::uint64_t ub = ub_of(c);
    if (ub < best->lb) continue;
    const bool exact_tie = ub == best->lb && exact(c) && exact(*best) &&
                           best->vertex < c.vertex;
    if (!exact_tie) return result; // (i) violated
  }
  result.certified = true;
  return result;
}

SparseExactResult sparse_certify_exact(std::span<const vertex_t> candidates,
                                       std::span<const std::uint32_t> exact_counts,
                                       std::uint64_t outside_sum) {
  RIPPLES_ASSERT(candidates.size() == exact_counts.size());
  RIPPLES_ASSERT(!candidates.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (exact_counts[i] > exact_counts[best] ||
        (exact_counts[i] == exact_counts[best] &&
         candidates[i] < candidates[best]))
      best = i;
  }
  SparseExactResult result;
  result.winner = candidates[best];
  // Strict: a vertex outside the candidate set with count == the winner's
  // could have a smaller id and win the dense tie-break.
  result.certified = exact_counts[best] > outside_sum;
  return result;
}

namespace detail {

namespace {
metrics::Counter &exchange_words_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.select.exchange_words");
  return c;
}
metrics::Counter &sparse_rounds_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.select.sparse_rounds");
  return c;
}
metrics::Counter &sparse_certified_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.select.sparse_certified");
  return c;
}
metrics::Counter &candidate_fallbacks_counter() {
  static metrics::Counter &c = metrics::Registry::instance().counter(
      "imm.select.sparse_candidate_fallbacks");
  return c;
}
metrics::Counter &dense_fallbacks_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.select.sparse_dense_fallbacks");
  return c;
}
} // namespace

void record_exchange_words(std::uint64_t words) {
  if (metrics::enabled()) exchange_words_counter().add(words);
}

void record_sparse_round(bool certified) {
  if (!metrics::enabled()) return;
  sparse_rounds_counter().increment();
  if (certified) sparse_certified_counter().increment();
}

void record_candidate_fallback() {
  if (metrics::enabled()) candidate_fallbacks_counter().increment();
}

void record_dense_fallback() {
  if (metrics::enabled()) dense_fallbacks_counter().increment();
}

} // namespace detail

} // namespace ripples
