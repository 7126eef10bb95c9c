// Hot-path scalability: the buffer pool and the chunk pool, each in turn.
//
//   pool_stress  a raw Fetch stress loop: W threads hammer one warm
//                128-frame pool (the pool mutex isolated from all query
//                work), reporting fetch throughput and the pool's lock
//                counters (acquisitions, contended share, blocked time).
//                Every Fetch takes the mutex exactly once and a page
//                release takes none, so acquisitions must equal the Fetch
//                calls; any other count fails the process.
//   chunk_pool   global TupleChunk pool off vs on over a mixed batch of
//                selections and aggregations at the largest worker count:
//                QPS plus pool pressure (acquires / reuses / allocs). Every
//                result checksum is verified against a serial (workers=1)
//                ground-truth run; any mismatch fails the process.
//
//   ./build/bench_scaling --sf=0.05 --workers=1,2,4 --runs=1 --disk=0
//
// Emits BENCH_scaling.json next to the other bench JSON artifacts. Note:
// on a single-core host threads never truly overlap, so the contended
// share is ~0 at every worker count.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/connection.h"
#include "bench_common.h"
#include "exec/chunk_pool.h"
#include "sched/scheduler.h"
#include "storage/buffer_pool.h"
#include "util/stopwatch.h"

namespace cstore {
namespace bench {
namespace {

struct QuerySpec {
  std::string name;
  plan::PlanTemplate tmpl;
  // Serial (workers=1) ground truth.
  uint64_t checksum = 0;
  uint64_t output_tuples = 0;
};

/// A small strategy-diverse batch over lineitem: enough scan pressure to
/// make buffer-pool lock traffic visible, no joins (they are covered by
/// bench_throughput; here we want the pool hot path isolated).
std::vector<QuerySpec> BuildSpecs(const tpch::LineitemColumns& li) {
  plan::SelectionQuery sel;
  Value mid =
      (li.shipdate->meta().min_value + li.shipdate->meta().max_value) / 2;
  sel.columns.push_back({li.shipdate, codec::Predicate::LessThan(mid)});
  sel.columns.push_back({li.quantity, codec::Predicate::LessThan(30)});

  plan::AggQuery agg;
  agg.selection = sel;
  agg.group_index = 0;  // GROUP BY shipdate
  agg.agg_index = 1;    // SUM(quantity)
  agg.func = exec::AggFunc::kSum;

  std::vector<QuerySpec> specs;
  for (plan::Strategy s : plan::kAllStrategies) {
    QuerySpec spec;
    spec.name = std::string("sel/") + StrategyName(s);
    spec.tmpl = plan::PlanTemplate::Selection(sel, s);
    specs.push_back(spec);
    spec.name = std::string("agg/") + StrategyName(s);
    spec.tmpl = plan::PlanTemplate::Agg(agg, s);
    specs.push_back(spec);
  }
  return specs;
}

/// Serial ground truth (doubles as pool warm-up so the timed batches
/// measure the hit path, not first-touch I/O).
void FillGroundTruth(db::Database* db, std::vector<QuerySpec>* specs) {
  api::Connection conn(db);
  for (QuerySpec& spec : *specs) {
    plan::PlanTemplate tmpl = spec.tmpl;
    tmpl.config.num_workers = 1;
    auto r = conn.Query(tmpl);
    CSTORE_CHECK(r.ok()) << spec.name << ": " << r.status().ToString();
    spec.checksum = r->stats.checksum;
    spec.output_tuples = r->stats.output_tuples;
  }
}

/// Contention numbers from one raw Fetch stress run: `threads` workers
/// each sweep the (pre-warmed) pool's blocks `rounds` times from a
/// different starting offset. Returns wall ms; counters land in `*stats`.
double StressPool(storage::BufferPool* pool, storage::FileId file,
                  uint64_t num_blocks, int threads, int rounds,
                  storage::IoStats* stats, int* mismatches) {
  pool->ResetStats();
  std::atomic<int> bad{0};
  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      const uint64_t start = t * num_blocks / threads;
      for (int round = 0; round < rounds; ++round) {
        for (uint64_t i = 0; i < num_blocks; ++i) {
          const uint64_t b = (start + i) % num_blocks;
          auto r = pool->Fetch(file, b);
          if (!r.ok() || r->header()->num_values != b) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  double ms = wall.ElapsedMillis();
  *stats = pool->stats();
  if (bad.load() != 0) {
    std::fprintf(stderr, "MISMATCH (pool stress): %d bad fetches\n",
                 bad.load());
    *mismatches += bad.load();
  }
  return ms;
}

/// Runs `concurrency` queries from `specs` (cycled) on a fresh W-worker
/// scheduler; verifies every checksum; returns batch wall milliseconds.
double RunBatch(db::Database* db, const std::vector<QuerySpec>& specs,
                int workers, int concurrency, int* mismatches) {
  sched::Scheduler::Options so;
  so.num_workers = workers;
  sched::Scheduler scheduler(so);
  api::Connection conn(db, &scheduler);
  Stopwatch wall;
  std::vector<api::PendingResult> pending;
  pending.reserve(concurrency);
  for (int i = 0; i < concurrency; ++i) {
    pending.push_back(
        conn.Submit(specs[i % specs.size()].tmpl, /*materialize=*/false));
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    const QuerySpec& spec = specs[i % specs.size()];
    auto r = pending[i].Wait();
    CSTORE_CHECK(r.ok()) << spec.name << ": " << r.status().ToString();
    if (r->stats.checksum != spec.checksum ||
        r->stats.output_tuples != spec.output_tuples) {
      std::fprintf(stderr, "MISMATCH (workers=%d) %s\n", workers,
                   spec.name.c_str());
      ++*mismatches;
    }
  }
  return wall.ElapsedMillis();
}

}  // namespace
}  // namespace bench
}  // namespace cstore

int main(int argc, char** argv) {
  using namespace cstore;         // NOLINT
  using namespace cstore::bench;  // NOLINT

  BenchOptions opts = ParseArgs(argc, argv);
  if (opts.worker_sweep == std::vector<int>{1}) {
    opts.worker_sweep = {1, 2, 4, 8, 16};
  }
  const int concurrency = opts.concurrency_sweep.empty()
                              ? 16
                              : opts.concurrency_sweep.front();
  int mismatches = 0;
  int lock_count_errors = 0;
  BenchJson json("scaling");

  // --- Phase 1: raw pool stress (the pool mutex in isolation) ----------
  // Query batches bury lock traffic under morsel work; this loop is pure
  // Fetch on a warm pool, so the mutex's cost shows up directly in the
  // throughput and the contention counters.
  {
    auto fm = storage::FileManager::Open(opts.dir + "_poolstress");
    CSTORE_CHECK(fm.ok()) << fm.status().ToString();
    constexpr uint64_t kBlocks = 64;
    auto file_r = fm.value()->Create("stress");
    CSTORE_CHECK(file_r.ok()) << file_r.status().ToString();
    storage::FileId file = file_r.value();
    for (uint64_t b = 0; b < kBlocks; ++b) {
      storage::Page page;
      page.header()->magic = storage::BlockHeader::kMagic;
      page.header()->num_values = static_cast<uint32_t>(b);
      auto a = fm.value()->AppendBlock(file, page);
      CSTORE_CHECK(a.ok()) << a.status().ToString();
    }
    const int rounds = 200 * opts.runs;
    std::printf("# fig=scaling/pool_stress  blocks=%llu rounds=%d\n",
                static_cast<unsigned long long>(kBlocks), rounds);
    TablePrinter stress_table({"workers", "wall_ms", "mfetch_s", "lock_acq",
                               "acq_per_fetch", "contended", "cont_share",
                               "wait_ms"});
    storage::BufferPool pool(fm.value().get(), 128);
    // Warm: the stress loop must measure the hit path, not I/O.
    for (uint64_t b = 0; b < kBlocks; ++b) {
      auto r = pool.Fetch(file, b);
      CSTORE_CHECK(r.ok()) << r.status().ToString();
    }
    for (int workers : opts.worker_sweep) {
      storage::IoStats st;
      double ms = StressPool(&pool, file, kBlocks, workers, rounds, &st,
                             &mismatches);
      const uint64_t fetches = uint64_t{kBlocks} * rounds * workers;
      const double share =
          st.pool_lock_acquisitions == 0
              ? 0.0
              : static_cast<double>(st.pool_lock_contended) /
                    static_cast<double>(st.pool_lock_acquisitions);
      const double per_fetch = static_cast<double>(st.pool_lock_acquisitions) /
                               static_cast<double>(fetches);
      const double mfetch = fetches / (ms * 1000.0);
      if (st.pool_lock_acquisitions != fetches) {
        std::fprintf(stderr,
                     "LOCK COUNT (workers=%d): %llu acquisitions for %llu "
                     "fetches; expected one per Fetch\n",
                     workers,
                     static_cast<unsigned long long>(
                         st.pool_lock_acquisitions),
                     static_cast<unsigned long long>(fetches));
        ++lock_count_errors;
      }
      stress_table.AddRow(
          {std::to_string(workers), Fmt(ms), Fmt(mfetch, 2),
           std::to_string(st.pool_lock_acquisitions), Fmt(per_fetch, 2),
           std::to_string(st.pool_lock_contended),
           Fmt(share * 100.0, 2) + "%", Fmt(st.pool_lock_wait_ns / 1e6, 2)});
      json.AddRow()
          .Str("phase", "pool_stress")
          .Int("workers", workers)
          .Num("wall_ms", ms)
          .Num("mfetches_per_s", mfetch)
          .Int("fetches", fetches)
          .Int("lock_acquisitions", st.pool_lock_acquisitions)
          .Int("lock_contended", st.pool_lock_contended)
          .Num("contended_share", share)
          .Num("lock_wait_ms", st.pool_lock_wait_ns / 1e6);
    }
    stress_table.Print();
  }

  // --- Serial ground truth for phase 2 ----------------------------------
  db::Database::Options dbo;
  dbo.dir = opts.dir;
  dbo.pool_frames = 16384;
  dbo.disk.enabled = false;  // hot-path bench: no simulated-disk charges
  auto db_r = db::Database::Open(dbo);
  CSTORE_CHECK(db_r.ok()) << db_r.status().ToString();
  auto db = std::move(db_r).value();
  auto li = tpch::LoadLineitem(db.get(), opts.sf);
  CSTORE_CHECK(li.ok()) << li.status().ToString();
  std::vector<QuerySpec> hot_specs = BuildSpecs(*li);
  FillGroundTruth(db.get(), &hot_specs);

  // --- Phase 2: chunk pool off vs on ------------------------------------
  const int max_workers = *std::max_element(opts.worker_sweep.begin(),
                                            opts.worker_sweep.end());
  std::printf("\n# fig=scaling/chunk_pool  workers=%d concurrency=%d\n",
              max_workers, concurrency);
  TablePrinter pool_table({"chunk_pool", "wall_ms", "qps", "acquires",
                           "reuses", "allocs"});
  for (bool enabled : {false, true}) {
    exec::GlobalChunkPool().set_enabled(enabled);
    double best = 1e100;
    exec::ChunkPool::Stats ps;
    for (int run = 0; run < opts.runs; ++run) {
      exec::GlobalChunkPool().ResetStats();
      double ms = RunBatch(db.get(), hot_specs, max_workers, concurrency,
                           &mismatches);
      if (ms < best) {
        best = ms;
        ps = exec::GlobalChunkPool().stats();
      }
    }
    const double qps = concurrency * 1000.0 / best;
    pool_table.AddRow({enabled ? "on" : "off", Fmt(best), Fmt(qps),
                       std::to_string(ps.acquires),
                       std::to_string(ps.reuses),
                       std::to_string(ps.allocs)});
    json.AddRow()
        .Str("phase", "chunk_pool")
        .Str("chunk_pool", enabled ? "on" : "off")
        .Int("workers", max_workers)
        .Int("concurrency", concurrency)
        .Num("wall_ms", best)
        .Num("qps", qps)
        .Int("pool_acquires", ps.acquires)
        .Int("pool_reuses", ps.reuses)
        .Int("pool_allocs", ps.allocs);
  }
  exec::GlobalChunkPool().set_enabled(true);
  pool_table.Print();

  json.WriteAndReport();
  if (mismatches > 0) {
    std::fprintf(stderr, "%d checksum mismatches\n", mismatches);
    return 1;
  }
  if (lock_count_errors > 0) {
    std::fprintf(stderr, "%d pool_stress runs miscounted lock acquisitions\n",
                 lock_count_errors);
    return 1;
  }
  return 0;
}
