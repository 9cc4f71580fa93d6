#include "imm/sampler.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <numeric>
#include <omp.h>

#include "imm/sampler_fused.hpp"
#include "imm/steal.hpp"
#include "support/assert.hpp"
#include "support/memory.hpp"
#include "support/metrics.hpp"
#include "support/steal_schedule.hpp"
#include "support/trace.hpp"
#include "support/tsan.hpp"

namespace ripples {

namespace {

/// Registry accounting for one extend call (a batch of samples).  The
/// counter lookup happens once per process; the disabled path is a single
/// relaxed load in metrics::enabled().
void count_generated(std::uint64_t batch) {
  if (!metrics::enabled()) return;
  static metrics::Counter &generated =
      metrics::Registry::instance().counter("sampler.samples_generated");
  generated.add(batch);
}

/// Fused-kernel instrumentation: distinct lane-mask words touched and
/// frontier passes executed.  Accumulated per FusedSampler and flushed once
/// per worker to keep atomic traffic off the traversal.
void flush_fused_counters(const FusedSampler &sampler) {
  if (!metrics::enabled()) return;
  static metrics::Counter &words =
      metrics::Registry::instance().counter("sampler.fused.words");
  static metrics::Counter &passes =
      metrics::Registry::instance().counter("sampler.fused.passes");
  words.add(sampler.words_touched());
  passes.add(sampler.passes());
}

constexpr std::uint64_t kBlock = FusedSampler::kLanes;

/// Mean walk work (vertices reached plus in-edges scanned) per IC sample
/// above which the fused lanes beat the scalar walk.  Measured on the
/// soc-Epinions1 surrogate at constant edge weights, one thread: the
/// engines tie near 200-700, and below ~100 the lanes are ~1.2x slower
/// (their per-lane Philox refills outweigh a few-edge walk).
constexpr std::uint64_t kMinLaneWork = 256;

/// The counter-mode block kernel, one instance per thread, built lazily:
/// a thread that gets no block allocates nothing.  The model picks the
/// engine.  LT runs the scalar RRRGenerator walk one index at a time, since
/// an LT walk is a path with one draw per step and the lane layout only
/// adds its 16 B/edge tables.  IC starts on the scalar walk too and moves
/// to the fused lane-mask BFS — mid-block if need be — once the walks it
/// has run cost at least the lanes' O(n + m) build and average at least
/// kMinLaneWork each, so the build costs about what the walks already run
/// did, and tiny cascades or a small batch of modest ones (RIS's 8-sample
/// loop, a distributed 64-draw chunk) never build it.  With \p lanes false
/// (a governed IC batch whose lane reservation was refused) IC stays
/// scalar.  Every path emits
/// RRRGenerator::generate_random_root's bytes for sample_stream(seed, i).
class BlockKernel {
public:
  BlockKernel(const CsrGraph &graph, DiffusionModel model, bool lanes)
      : graph_(graph), model_(model),
        lanes_(lanes && model == DiffusionModel::IndependentCascade),
        lane_cost_(graph.num_vertices() + graph.num_edges()) {}
  ~BlockKernel() {
    if (fused_) flush_fused_counters(*fused_);
  }

  /// Writes the set of indices[l] into outs[l], at most kBlock indices.
  void run(std::uint64_t seed, std::span<const std::uint64_t> indices,
           RRRSet *outs) {
    std::size_t l = 0;
    for (; l < indices.size() && !use_lanes_; ++l) {
      if (!scalar_) scalar_ = std::make_unique<RRRGenerator>(graph_);
      Philox4x32 rng = sample_stream(seed, indices[l]);
      scalar_->generate_random_root(model_, rng, outs[l]);
      if (lanes_) account_walk(outs[l]);
    }
    if (l == indices.size()) return;
    if (!fused_) fused_ = std::make_unique<FusedSampler>(graph_);
    fused_->generate(seed, indices.subspan(l), outs + l);
  }

private:
  /// An IC reverse BFS scans the in-edges of every vertex it reaches.
  void account_walk(const RRRSet &set) {
    const edge_offset_t *offsets = graph_.in_offsets().data();
    walk_work_ += set.size();
    for (vertex_t v : set) walk_work_ += offsets[v + 1] - offsets[v];
    ++walks_;
    use_lanes_ =
        walk_work_ >= lane_cost_ && walk_work_ >= kMinLaneWork * walks_;
  }

  const CsrGraph &graph_;
  DiffusionModel model_;
  bool lanes_;
  std::uint64_t lane_cost_;
  std::uint64_t walk_work_ = 0;
  std::uint64_t walks_ = 0;
  bool use_lanes_ = false;
  std::unique_ptr<RRRGenerator> scalar_;
  std::unique_ptr<FusedSampler> fused_;
};

/// Global sample indices of one call: \p list when set, else the
/// contiguous run [first, first + count).
struct IndexSource {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  const std::uint64_t *list = nullptr;
};

/// Writes the set of every position j of \p source into outs[j] with
/// \p num_threads block kernels.  \p steal_chunk == 0 deals kBlock-position
/// blocks through a dynamic schedule — set sizes are heavy-tailed under IC,
/// so static chunking would leave threads idle behind one giant traversal.
/// steal_chunk > 0 deals steal_chunk-position chunks round-robin to
/// per-thread queues and runs the intra-rank steal loop (DESIGN.md §13).
/// Either way position j lands in outs[j], so placement never changes bytes.
void run_blocks(const CsrGraph &graph, DiffusionModel model,
                std::uint64_t seed, const IndexSource &source,
                unsigned num_threads, std::uint64_t steal_chunk, bool lanes,
                RRRSet *outs) {
  RIPPLES_ASSERT(num_threads >= 1);
  // ChunkRange bounds are *positions* here (the global stream index comes
  // from the source); the stream field records the queue the chunk was
  // dealt to, which is bookkeeping only.
  const std::size_t nq = num_threads;
  std::vector<detail::ChunkQueue> queues(steal_chunk > 0 ? nq : 0);
  for (std::uint64_t lo = 0, q = 0; steal_chunk > 0 && lo < source.count;
       q = (q + 1) % nq) {
    const std::uint64_t hi = lo + std::min(steal_chunk, source.count - lo);
    queues[q].push({q, lo, hi});
    lo = hi;
  }

  // `work` uses no OpenMP construct, so it runs the same inline or inside
  // the region below, and a caller's own enclosing region cannot capture it.
  std::atomic<std::uint64_t> next_block{0};
  auto work = [&](std::size_t tid) {
    BlockKernel kernel(graph, model, lanes);
    // One span per worker covering its share of the batch, ended when the
    // thread finishes its own blocks, so RRR-size imbalance shows as ragged
    // span ends instead of being hidden behind the join.
    trace::Span worker("sampler", "sampler.worker");
    std::uint64_t generated = 0;
    std::array<std::uint64_t, kBlock> block;
    auto execute = [&](std::uint64_t lo, std::uint64_t hi) {
      generated += hi - lo;
      for (std::uint64_t len = 0; lo < hi; lo += len) {
        len = std::min(kBlock, hi - lo);
        const std::uint64_t *ids = block.data();
        if (source.list != nullptr)
          ids = source.list + lo;
        else
          std::iota(block.begin(), block.begin() + len, source.first + lo);
        kernel.run(seed, std::span(ids, len), outs + lo);
      }
    };

    if (steal_chunk == 0) {
      // A dynamic schedule, one block at a time.
      for (std::uint64_t lo = next_block++ * kBlock; lo < source.count;
           lo = next_block++ * kBlock)
        execute(lo, std::min(lo + kBlock, source.count));
    } else {
      std::uint64_t step = 0;
      std::vector<detail::ChunkRange> grabbed;
      for (;;) {
        const steal_schedule::Decision d =
            steal_schedule::decide(static_cast<int>(tid), step++);
        detail::ChunkRange item;
        bool have = false;
        bool tried_steal = false;
        auto try_steal = [&]() -> bool {
          tried_steal = true;
          for (std::size_t off = 0; off < nq; ++off) {
            const std::size_t victim =
                (tid + 1 + static_cast<std::size_t>(d.victim_offset % nq) +
                 off) %
                nq;
            if (victim == tid) continue;
            grabbed.clear();
            if (queues[victim].steal_half(grabbed) > 0) {
              item = grabbed.front();
              for (std::size_t g = 1; g < grabbed.size(); ++g)
                queues[tid].push(grabbed[g]);
              return true;
            }
          }
          return false;
        };
        if (d.allow_steal && d.steal_first && nq > 1) have = try_steal();
        if (!have) have = queues[tid].pop(item);
        if (!have && d.allow_steal && !tried_steal && nq > 1)
          have = try_steal();
        if (!have) break;
        execute(item.begin, item.end);
      }
    }
    worker.arg("sets", generated);
  };

  // One thread runs inline: entering an OpenMP region per call cost the
  // 8-sample batches of ris_threshold about 10% on small cascades.
  if (num_threads == 1) {
    work(0);
    return;
  }
  tsan_release(outs);
#pragma omp parallel num_threads(static_cast<int>(num_threads))
  {
    tsan_acquire(outs);
    work(static_cast<std::size_t>(omp_get_thread_num()));
    tsan_release(outs);
  }
  tsan_acquire(outs);
}

/// Appends the sets of \p indices to \p collection through run_blocks.
std::uint64_t append_indices(const CsrGraph &graph, DiffusionModel model,
                             std::uint64_t seed,
                             std::span<const std::uint64_t> indices,
                             unsigned num_threads, std::uint64_t steal_chunk,
                             bool lanes, RRRCollection &collection) {
  if (indices.empty()) return 0;
  const std::uint64_t first_slot = collection.grow(indices.size());
  run_blocks(graph, model, seed, {0, indices.size(), indices.data()},
             num_threads, steal_chunk, lanes,
             collection.mutable_sets().data() + first_slot);
  count_generated(indices.size());
  return indices.size();
}

} // namespace

void sample_sequential(const CsrGraph &graph, DiffusionModel model,
                       std::uint64_t target_total, std::uint64_t seed,
                       RRRCollection &collection) {
  sample_multithreaded(graph, model, target_total, seed, 1, collection);
}

void sample_multithreaded(const CsrGraph &graph, DiffusionModel model,
                          std::uint64_t target_total, std::uint64_t seed,
                          unsigned num_threads, RRRCollection &collection) {
  if (collection.size() >= target_total) return;
  trace::Span span("sampler", "sampler.batch", "first", collection.size(),
                   "count", target_total - collection.size());
  const std::uint64_t first =
      collection.grow(target_total - collection.size());
  run_blocks(graph, model, seed, {first, target_total - first, nullptr},
             num_threads, 0, true, collection.mutable_sets().data() + first);
  count_generated(target_total - first);
  trace::counter("rrr_sets", collection.size());
}

void sample_sequential_flat(const CsrGraph &graph, DiffusionModel model,
                            std::uint64_t target_total, std::uint64_t seed,
                            FlatRRRCollection &collection) {
  RRRGenerator generator(graph);
  RRRSet scratch;
  std::uint64_t first = collection.size();
  if (first >= target_total) return;
  trace::Span span("sampler", "sampler.batch_flat", "first", first, "count",
                   target_total - first);
  for (std::uint64_t i = first; i < target_total; ++i) {
    Philox4x32 rng = sample_stream(seed, i);
    generator.generate_random_root(model, rng, scratch);
    collection.append(scratch);
  }
  count_generated(target_total - first);
  trace::counter("rrr_sets", collection.size());
}

void sample_hypergraph(const CsrGraph &graph, DiffusionModel model,
                       std::uint64_t target_total, std::uint64_t seed,
                       HypergraphCollection &collection) {
  RRRGenerator generator(graph);
  RRRSet scratch;
  std::uint64_t first = collection.size();
  if (first >= target_total) return;
  trace::Span span("sampler", "sampler.batch_hypergraph", "first", first,
                   "count", target_total - first);
  for (std::uint64_t i = first; i < target_total; ++i) {
    Philox4x32 rng = sample_stream(seed, i);
    generator.generate_random_root(model, rng, scratch);
    collection.add(std::move(scratch));
    scratch = {};
  }
  count_generated(target_total - first);
  trace::counter("rrr_sets", collection.size());
}

std::vector<std::uint64_t>
leapfrog_indices(std::span<const std::uint64_t> streams, std::uint64_t from,
                 std::uint64_t to, std::uint64_t num_streams) {
  std::vector<std::uint64_t> indices;
  for (std::uint64_t s : streams)
    for (std::uint64_t i = leapfrog_first_index(from, s, num_streams); i < to;
         i += num_streams) {
      indices.push_back(i);
      // i + num_streams may wrap; a wrapped index would re-enter the range.
      if (num_streams > std::numeric_limits<std::uint64_t>::max() - i) break;
    }
  return indices;
}

std::uint64_t sample_counter_indices(const CsrGraph &graph,
                                     DiffusionModel model, std::uint64_t seed,
                                     std::span<const std::uint64_t> indices,
                                     unsigned num_threads,
                                     RRRCollection &collection) {
  return append_indices(graph, model, seed, indices, num_threads, 0, true,
                        collection);
}

std::uint64_t sample_counter_governed(const CsrGraph &graph,
                                      DiffusionModel model, std::uint64_t seed,
                                      std::span<const std::uint64_t> indices,
                                      unsigned num_threads,
                                      std::uint64_t steal_chunk,
                                      RRRCollection &collection) {
  if (indices.empty()) return 0;
  // The lane arrays are real memory the budget must see.
  const std::size_t lane_bytes =
      model == DiffusionModel::IndependentCascade
          ? FusedSampler::lane_bytes(graph) * num_threads
          : 0;
  const bool lanes =
      lane_bytes > 0 &&
      MemoryTracker::instance().try_reserve(lane_bytes, "sampler.fused_lanes");
  const std::uint64_t generated =
      append_indices(graph, model, seed, indices, num_threads, steal_chunk,
                     lanes, collection);
  if (lanes) MemoryTracker::instance().release(lane_bytes);
  return generated;
}

namespace detail {

std::uint64_t sample_counter_chunked(const CsrGraph &graph,
                                     DiffusionModel model, std::uint64_t seed,
                                     std::span<const std::uint64_t> indices,
                                     unsigned num_threads, std::uint64_t chunk,
                                     RRRCollection &collection) {
  return append_indices(graph, model, seed, indices, num_threads,
                        std::max<std::uint64_t>(chunk, 1), true, collection);
}

} // namespace detail

} // namespace ripples
