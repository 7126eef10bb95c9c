#include "plan/parallel.h"

#include <algorithm>

#include "exec/gather.h"
#include "exec/morsel_source.h"
#include "position/position_set.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace cstore {
namespace plan {

namespace {

// The PR-5 shape: one gated task builds the whole table, Finish just
// publishes it. Used for small inners, single-worker pools, radix_bits = 0,
// and spec errors (which then surface from RunTask, exactly like the old
// single-task build's did).
class SerialBuildPipeline : public BuildPipeline {
 public:
  explicit SerialBuildPipeline(Result<exec::JoinBuildTable::Spec> spec)
      : spec_(std::move(spec)) {}

  int num_stages() const override { return 1; }
  int TasksInStage(int) const override { return 1; }
  const char* StageName(int) const override { return "join_build"; }

  Status RunTask(int, int, exec::ExecStats* stats) override {
    CSTORE_RETURN_IF_ERROR(spec_.status());
    CSTORE_ASSIGN_OR_RETURN(std::unique_ptr<exec::JoinBuildTable> table,
                            exec::JoinBuildTable::Build(*spec_, stats));
    table_ = std::move(table);
    return Status::OK();
  }

  Result<std::shared_ptr<const exec::JoinBuildTable>> Finish(
      exec::ExecStats*) override {
    return std::shared_ptr<const exec::JoinBuildTable>(std::move(table_));
  }

 private:
  Result<exec::JoinBuildTable::Spec> spec_;
  std::unique_ptr<exec::JoinBuildTable> table_;
};

// Radix-partitioned parallel build. Stage 0 ("join_partition"): ntasks
// tasks each scan one contiguous slice of the inner position space —
// write-store tail and delete mask merged exactly like the serial build —
// and bucket rows by PartitionIndex(key) into task-private buckets. Stage 1
// ("join_build_part"): one task per partition drains every stage-0 task's
// bucket for that partition into the partition's hash table. Finish adopts
// the partition tables into one immutable JoinBuildTable (and pins the
// kMultiColumn payload mini-column). Distinct (stage, task) pairs touch
// disjoint buckets/tables, so no locking anywhere.
class RadixBuildPipeline : public BuildPipeline {
 public:
  RadixBuildPipeline(Result<exec::JoinBuildTable::Spec> spec, int radix_bits,
                     Position total, int ntasks)
      : spec_(std::move(spec)),
        radix_bits_(radix_bits),
        nparts_(size_t{1} << radix_bits),
        total_(total) {
    slice_ = exec::MorselSource::AlignToChunks((total_ + ntasks - 1) / ntasks);
    ntasks_ = static_cast<int>((total_ + slice_ - 1) / slice_);
    buckets_.resize(ntasks_);
    for (auto& parts : buckets_) parts.resize(nparts_);
    val_parts_.resize(nparts_);
    pos_parts_.resize(nparts_);
  }

  int num_stages() const override { return 2; }
  int TasksInStage(int stage) const override {
    return stage == 0 ? ntasks_ : static_cast<int>(nparts_);
  }
  const char* StageName(int stage) const override {
    return stage == 0 ? "join_partition" : "join_build_part";
  }

  Status RunTask(int stage, int task, exec::ExecStats* stats) override {
    CSTORE_RETURN_IF_ERROR(spec_.status());
    return stage == 0 ? PartitionTask(task, stats) : BuildPartTask(task, stats);
  }

  Result<std::shared_ptr<const exec::JoinBuildTable>> Finish(
      exec::ExecStats* stats) override {
    CSTORE_RETURN_IF_ERROR(spec_.status());
    CSTORE_ASSIGN_OR_RETURN(
        std::unique_ptr<exec::JoinBuildTable> table,
        exec::JoinBuildTable::Assemble(*spec_, radix_bits_,
                                       std::move(val_parts_),
                                       std::move(pos_parts_), stats));
    return std::shared_ptr<const exec::JoinBuildTable>(std::move(table));
  }

 private:
  struct Entry {
    Value key;
    // kMaterialized: the payload value; position-map modes: the position.
    uint64_t aux;
  };

  Status PartitionTask(int t, exec::ExecStats* stats) {
    const exec::JoinBuildTable::Spec& spec = *spec_;
    const Position begin =
        std::min<Position>(static_cast<Position>(t) * slice_, total_);
    const Position end = std::min<Position>(begin + slice_, total_);
    if (begin >= end) return Status::OK();
    const write::WriteSnapshot* snap =
        spec.snapshot != nullptr && spec.snapshot->has_state()
            ? spec.snapshot.get()
            : nullptr;
    const Position base = spec.right_key->num_values();
    auto& parts = buckets_[t];
    const bool materialized =
        spec.mode == exec::JoinRightMode::kMaterialized;

    const Position rs_end = std::min(end, base);
    if (begin < rs_end) {
      position::PositionSet sel =
          snap != nullptr && snap->has_deletes()
              ? snap->LiveSet(begin, rs_end)
              : position::PositionSet::All(begin, rs_end);
      if (materialized) {
        std::vector<Value> keys;
        std::vector<Value> payloads;
        for (uint64_t b : exec::BlocksCoveringPositions(spec.right_key, sel)) {
          CSTORE_ASSIGN_OR_RETURN(codec::EncodedBlock blk,
                                  spec.right_key->FetchBlock(b));
          ++stats->blocks_fetched;
          blk.view.GatherValues(sel, &keys);
        }
        for (uint64_t b :
             exec::BlocksCoveringPositions(spec.right_payload, sel)) {
          CSTORE_ASSIGN_OR_RETURN(codec::EncodedBlock blk,
                                  spec.right_payload->FetchBlock(b));
          ++stats->blocks_fetched;
          blk.view.GatherValues(sel, &payloads);
        }
        CSTORE_CHECK(keys.size() == payloads.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          parts[exec::JoinBuildTable::PartitionIndex(keys[i], radix_bits_)]
              .push_back({keys[i], static_cast<uint64_t>(payloads[i])});
        }
        stats->values_gathered += 2 * keys.size();
      } else {
        // Position-map modes: keys paired with their positions. Blocks can
        // straddle the slice boundary, so the per-position range filter
        // keeps each row in exactly one task.
        for (uint64_t b : exec::BlocksCoveringPositions(spec.right_key, sel)) {
          CSTORE_ASSIGN_OR_RETURN(codec::EncodedBlock blk,
                                  spec.right_key->FetchBlock(b));
          ++stats->blocks_fetched;
          blk.view.ForEach([&](Position p, Value v) {
            if (p < begin || p >= rs_end) return;
            if (snap != nullptr && snap->has_deletes() && snap->IsDeleted(p)) {
              return;
            }
            parts[exec::JoinBuildTable::PartitionIndex(v, radix_bits_)]
                .push_back({v, p});
          });
        }
      }
    }

    // Write-store tail rows of this slice, deleted positions skipped.
    if (snap != nullptr && end > base) {
      const uint64_t tbegin = begin > base ? begin - base : 0;
      const uint64_t tend = end - base;
      for (uint64_t i = tbegin; i < tend; ++i) {
        const Position p = base + i;
        if (snap->IsDeleted(p)) continue;
        const Value k = snap->tail_values(spec.snap_key_index)[i];
        const uint64_t aux =
            materialized
                ? static_cast<uint64_t>(
                      snap->tail_values(spec.snap_payload_index)[i])
                : static_cast<uint64_t>(p);
        parts[exec::JoinBuildTable::PartitionIndex(k, radix_bits_)].push_back(
            {k, aux});
      }
    }
    return Status::OK();
  }

  Status BuildPartTask(int p, exec::ExecStats* stats) {
    const exec::JoinBuildTable::Spec& spec = *spec_;
    size_t n = 0;
    for (const auto& parts : buckets_) n += parts[p].size();
    if (spec.mode == exec::JoinRightMode::kMaterialized) {
      auto& table = val_parts_[p];
      table.reserve(n);
      for (auto& parts : buckets_) {
        for (const Entry& e : parts[p]) {
          table.emplace(e.key, static_cast<Value>(e.aux));
        }
      }
      stats->tuples_constructed += n;
    } else {
      auto& table = pos_parts_[p];
      table.reserve(n);
      for (auto& parts : buckets_) {
        for (const Entry& e : parts[p]) {
          table.emplace(e.key, static_cast<Position>(e.aux));
        }
      }
    }
    // The partition's buckets are dead now — reclaim them while other
    // partitions are still building.
    for (auto& parts : buckets_) {
      parts[p].clear();
      parts[p].shrink_to_fit();
    }
    return Status::OK();
  }

  Result<exec::JoinBuildTable::Spec> spec_;
  const int radix_bits_;
  const size_t nparts_;
  const Position total_;
  Position slice_ = 0;
  int ntasks_ = 0;
  // [task][partition] → rows bucketed by stage 0.
  std::vector<std::vector<std::vector<Entry>>> buckets_;
  // Per-partition hash tables built by stage 1 (one of the two, per mode).
  std::vector<std::unordered_map<Value, Value>> val_parts_;
  std::vector<std::unordered_map<Value, Position>> pos_parts_;
};

}  // namespace

PlanTemplate PlanTemplate::Selection(SelectionQuery query, Strategy strategy,
                                     PlanConfig config) {
  PlanTemplate t;
  t.kind = Kind::kSelection;
  t.selection = std::move(query);
  t.strategy = strategy;
  t.config = config;
  return t;
}

PlanTemplate PlanTemplate::Agg(AggQuery query, Strategy strategy,
                               PlanConfig config) {
  PlanTemplate t;
  t.kind = Kind::kAgg;
  t.agg = std::move(query);
  t.strategy = strategy;
  t.config = config;
  return t;
}

PlanTemplate PlanTemplate::Join(JoinQuery query, exec::JoinRightMode mode,
                                PlanConfig config) {
  PlanTemplate t;
  t.kind = Kind::kJoin;
  t.join = std::move(query);
  t.join_mode = mode;
  t.config = config;
  return t;
}

PlanTemplate PlanTemplate::Sort(SortQuery query, Strategy strategy,
                                PlanConfig config) {
  PlanTemplate t;
  t.kind = Kind::kSort;
  t.sort = std::move(query);
  t.strategy = strategy;
  t.config = config;
  return t;
}

Position PlanTemplate::TotalPositions() const {
  // With a write snapshot the scanned position space extends past the read
  // store by the snapshot's tail rows, so morsels cover them too.
  const Position tail =
      config.snapshot != nullptr ? config.snapshot->tail_rows() : 0;
  switch (kind) {
    case Kind::kSelection:
      return selection.columns.empty()
                 ? 0
                 : selection.columns[0].reader->num_values() + tail;
    case Kind::kAgg:
      return agg.selection.columns.empty()
                 ? 0
                 : agg.selection.columns[0].reader->num_values() + tail;
    case Kind::kJoin:
      // Probe morsels partition the outer (left) side's position space,
      // extended over its write-store tail like any scan.
      return join.left_key == nullptr ? 0
                                      : join.left_key->num_values() + tail;
    case Kind::kSort:
      return sort.selection.columns.empty()
                 ? 0
                 : sort.selection.columns[0].reader->num_values() + tail;
  }
  return 0;
}

Position PlanTemplate::MorselPositions(int workers) const {
  if (config.morsel_positions != exec::kDefaultMorselPositions) {
    return config.morsel_positions;
  }
  return exec::AutoMorselPositions(TotalPositions(), workers);
}

std::unique_ptr<BuildPipeline> PlanTemplate::MakeBuildPipeline(
    int pool_workers) const {
  CSTORE_CHECK(NeedsBuildPhase());
  Result<exec::JoinBuildTable::Spec> spec = JoinBuildSpec(join, join_mode);
  const Position inner_base =
      join.right_key != nullptr ? join.right_key->num_values() : 0;
  const Position inner_tail =
      join.right_snapshot != nullptr && join.right_snapshot->has_state()
          ? join.right_snapshot->tail_rows()
          : 0;
  const Position inner_total = inner_base + inner_tail;

  int bits = config.radix_bits;
  if (bits < 0) {
    // Auto: partitioning only pays when the inner side spans multiple chunk
    // windows and there is more than one worker to share the build.
    if (pool_workers <= 1 || inner_total < 2 * kChunkPositions) {
      bits = 0;
    } else {
      bits = 1;
      // Aim for ~2 partitions per worker so the build stage load-balances.
      while ((1 << bits) < 2 * pool_workers && bits < 6) ++bits;
    }
  }
  bits = std::min(bits, 10);
  if (bits == 0 || inner_total == 0 || !spec.status().ok()) {
    return std::make_unique<SerialBuildPipeline>(std::move(spec));
  }
  // Partition-scan task count: enough to share across the pool, but no
  // finer than one chunk window per task.
  const uint64_t max_slices =
      (inner_total + kChunkPositions - 1) / kChunkPositions;
  const int ntasks = static_cast<int>(std::max<uint64_t>(
      1, std::min<uint64_t>(2 * std::max(pool_workers, 1), max_slices)));
  return std::make_unique<RadixBuildPipeline>(std::move(spec), bits,
                                              inner_total, ntasks);
}

Result<std::unique_ptr<Plan>> PlanTemplate::Instantiate(
    position::Range morsel, const exec::JoinBuildTable* table) const {
  PlanConfig cfg = config;
  cfg.scan_range = morsel;
  switch (kind) {
    case Kind::kSelection:
      return BuildSelectionPlan(selection, strategy, cfg);
    case Kind::kAgg:
      return BuildAggPlan(agg, strategy, cfg);
    case Kind::kJoin:
      if (table == nullptr) {
        return Status::Internal("join instance without its built table");
      }
      return BuildJoinPlan(join, cfg, *table);
    case Kind::kSort:
      return BuildSortPlan(sort, strategy, cfg);
  }
  return Status::Internal("unreachable template kind");
}

Status ExecuteInline(const PlanTemplate& tmpl, storage::BufferPool* pool,
                     RunStats* stats,
                     const std::function<void(const exec::TupleChunk&)>&
                         sink) {
  // The join build and plan construction (index boundary lookups) touch
  // blocks too; attribute that I/O to this query, as the scheduler does.
  storage::IoStats setup_io;
  exec::ExecStats build_stats;
  std::shared_ptr<const exec::JoinBuildTable> table;
  double build_micros = 0;
  Result<std::unique_ptr<Plan>> plan = [&]() -> Result<std::unique_ptr<Plan>> {
    storage::BufferPool::ScopedIoAttribution attribution(&setup_io);
    if (tmpl.NeedsBuildPhase()) {
      // The scheduler's build phase, stage by stage on this thread (one
      // serial task unless config.radix_bits forces partitions).
      Stopwatch build_timer;
      std::unique_ptr<BuildPipeline> build =
          tmpl.MakeBuildPipeline(/*pool_workers=*/1);
      for (int s = 0; s < build->num_stages(); ++s) {
        for (int t = 0; t < build->TasksInStage(s); ++t) {
          CSTORE_RETURN_IF_ERROR(build->RunTask(s, t, &build_stats));
        }
      }
      CSTORE_ASSIGN_OR_RETURN(table, build->Finish(&build_stats));
      build_micros = build_timer.ElapsedMicros();
    }
    return tmpl.Instantiate(exec::kFullScanRange, table.get());
  }();
  CSTORE_RETURN_IF_ERROR(plan.status());
  if (tmpl.config.profile) (*plan)->EnableProfiling();
  CSTORE_RETURN_IF_ERROR(ExecutePlan(plan->get(), pool, stats, sink));
  if (tmpl.config.profile) (*plan)->FlushProfile(tmpl.config.profile.get());
  stats->wall_micros += build_micros;
  stats->build_wall_micros = static_cast<uint64_t>(build_micros);
  stats->exec.Merge(build_stats);
  stats->io += setup_io;
  stats->charged_io_micros = stats->io.charged_io_micros;
  return Status::OK();
}

}  // namespace plan
}  // namespace cstore
