/// \file bench_common.hpp
/// \brief Shared plumbing for the table/figure reproduction binaries.
///
/// Every bench binary follows the same pattern: build SNAP-surrogate inputs
/// at a configurable scale, run one or more IMM drivers, and print the rows
/// the corresponding table or figure in the paper reports (aligned table +
/// optional CSV via --csv <path>).  Absolute numbers are not comparable to
/// the paper's (different hardware, scaled-down surrogates); the *shape* —
/// who wins, how phases decompose, how curves trend — is the reproduction
/// target, and EXPERIMENTS.md records the comparison.
///
/// Common options:
///   --scale <f>     fraction of the original dataset size (per-bench default)
///   --seed <n>      experiment seed (default 2019, the paper's year)
///   --threads <n>   OpenMP threads for _mt drivers (default: hardware)
///   --snap-dir <d>  directory with genuine SNAP .txt files (optional)
///   --csv <path>    also write the table as CSV
///   --json-report <path>  enable metrics and write the structured run
///                   reports (one per driver execution) at process exit
///   --trace <path>  enable span tracing and write a Chrome trace-event
///                   JSON timeline (Perfetto-loadable) at process exit
///   --profile-mem   arm the background resource sampler: every driver run's
///                   report carries the memory timeline, and the trace (when
///                   enabled) gains mem.* counter tracks
///   --profile-mem-hz <hz>  sampling rate (default 10)
///   --checkpoint-dir <d>  snapshot martingale state of the mpsim drivers
///                   (plus --checkpoint-every/--checkpoint-keep/--resume);
///                   exported to RIPPLES_CHECKPOINT_* so every driver run
///                   the bench makes picks them up
///   --full          run the paper's full parameter grid instead of the
///                   time-budgeted default subset
#ifndef RIPPLES_BENCH_COMMON_HPP
#define RIPPLES_BENCH_COMMON_HPP

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <omp.h>
#include <string>

#include "ripples/ripples.hpp"

namespace ripples::bench {

/// Options shared by every bench binary, parsed from the command line.
struct BenchConfig {
  double scale;
  std::uint64_t seed;
  unsigned threads;
  std::string snap_dir;
  std::string csv_path;
  std::string json_report;
  std::string trace_path;
  bool full;

  static BenchConfig parse(const CommandLine &cli, double default_scale) {
    BenchConfig config;
    config.scale = cli.get("scale", default_scale);
    config.seed =
        static_cast<std::uint64_t>(cli.get_bounded("seed", 2019, 0, INT64_MAX));
    config.threads = static_cast<unsigned>(cli.get_bounded(
        "threads", omp_get_max_threads(), 1, UINT32_MAX));
    config.snap_dir = cli.get("snap-dir", std::string());
    config.csv_path = cli.get("csv", std::string());
    config.json_report = cli.get("json-report", std::string());
    config.trace_path = cli.get("trace", std::string());
    config.full = cli.has_flag("full");
    // Every driver run appends its RunReport to the process-wide log; the
    // atexit hook flushes them all, so each bench binary gets structured
    // output from this one line.
    if (!config.json_report.empty())
      metrics::write_reports_at_exit(config.json_report);
    // Same pattern for the timeline: spans buffer during the run and the
    // atexit hook writes one Chrome trace-event document.
    if (!config.trace_path.empty()) trace::start(config.trace_path);
    // Resource sampler: benches run drivers in-process, so one start() here
    // covers every run; the atexit stop (registered by start, LIFO before
    // the flush hooks) makes it quiescent before the artifacts are written.
    if (cli.has_flag("profile-mem") || cli.value_of("profile-mem-hz"))
      ResourceSampler::instance().start(
          cli.get_bounded("profile-mem-hz", 10.0, 0.1, 1000.0));
    // Checkpoint flags travel via the environment: ImmOptions defaults from
    // RIPPLES_CHECKPOINT_*, so exporting here covers every driver the bench
    // constructs without threading options through each table loop.
    if (auto dir = cli.value_of("checkpoint-dir"))
      setenv("RIPPLES_CHECKPOINT_DIR", dir->c_str(), 1);
    if (auto every = cli.value_of("checkpoint-every"))
      setenv("RIPPLES_CHECKPOINT_EVERY", every->c_str(), 1);
    if (auto keep = cli.value_of("checkpoint-keep"))
      setenv("RIPPLES_CHECKPOINT_KEEP", keep->c_str(), 1);
    if (cli.has_flag("resume")) setenv("RIPPLES_CHECKPOINT_RESUME", "1", 1);
    // Data-integrity knobs ride the same environment path (ImmOptions
    // defaults from RIPPLES_VERIFY_COLLECTIVES / RIPPLES_SCRUB_RRR), so the
    // overhead benches flip them without touching each table loop.
    if (cli.has_flag("verify-collectives"))
      setenv("RIPPLES_VERIFY_COLLECTIVES", "1", 1);
    if (auto scrub = cli.value_of("scrub-rrr")) {
      if (*scrub != "off" && *scrub != "on" && *scrub != "paranoid") {
        std::fprintf(stderr, "unknown --scrub-rrr '%s' (off|on|paranoid)\n",
                     scrub->c_str());
        std::exit(2);
      }
      setenv("RIPPLES_SCRUB_RRR", scrub->c_str(), 1);
    }
    // Graceful shutdown: SIGINT/SIGTERM writes any pending checkpoint and
    // flushes the report log + trace buffers before exiting 128+signum.
    checkpoint::install_signal_flush();
    // atexit hooks never run when an uncaught exception reaches
    // std::terminate, which would lose the report log and trace buffers of
    // a crashed bench.  A terminate handler flushes both (marking the
    // report log with a failed entry) before the default abort.
    if (!config.json_report.empty() || !config.trace_path.empty()) {
      static std::terminate_handler previous = std::set_terminate([] {
        if (std::exception_ptr error = std::current_exception()) {
          try {
            std::rethrow_exception(error);
          } catch (const std::exception &e) {
            metrics::mark_run_failed("terminate", e.what());
          } catch (...) {
            metrics::mark_run_failed("terminate", "unknown exception");
          }
        }
        metrics::flush_reports_now();
        trace::flush_now();
        if (previous) previous();
        std::abort();
      });
    }
    return config;
  }
};

/// Builds the input for one dataset exactly as the paper's experimental
/// setup prescribes: surrogate (or genuine SNAP file) + uniform [0,1)
/// weights, LT-renormalized when the LT model is requested.
inline CsrGraph build_input(const std::string &dataset,
                            const BenchConfig &config, DiffusionModel model) {
  CsrGraph graph = materialize(find_dataset(dataset), config.scale,
                               config.seed, config.snap_dir);
  assign_uniform_weights(graph, config.seed + 1);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  return graph;
}

/// Prints the dataset banner line used by every bench.
inline void print_input_banner(const std::string &dataset,
                               const CsrGraph &graph,
                               const BenchConfig &config) {
  GraphStats stats = compute_stats(graph);
  std::printf("[input] %-18s scale=%-6.4f n=%-8u m=%-10llu avg_deg=%.2f\n",
              dataset.c_str(), config.scale, stats.num_vertices,
              static_cast<unsigned long long>(stats.num_edges),
              stats.avg_total_degree);
}

/// Appends the four phase columns of an ImmResult to a table row (the
/// decomposition every runtime figure plots).
inline TableRow &add_phase_columns(TableRow &row, const ImmResult &result) {
  return row.add(result.timers.total(Phase::EstimateTheta), 3)
      .add(result.timers.total(Phase::Sample), 3)
      .add(result.timers.total(Phase::SelectSeeds), 3)
      .add(result.timers.total(Phase::Other), 3)
      .add(result.timers.total(), 3);
}

inline const std::vector<std::string> kPhaseHeader = {
    "EstimateTheta(s)", "Sample(s)", "SelectSeeds(s)", "Other(s)", "Total(s)"};

} // namespace ripples::bench

#endif // RIPPLES_BENCH_COMMON_HPP
