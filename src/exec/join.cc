#include "exec/join.h"

#include "exec/gather.h"
#include "position/position_set.h"
#include "util/logging.h"

namespace cstore {
namespace exec {

// ---------------------------------------------------------------------------
// JoinBuildTable
// ---------------------------------------------------------------------------

Result<std::unique_ptr<JoinBuildTable>> JoinBuildTable::Build(
    const Spec& spec, ExecStats* stats) {
  std::unique_ptr<JoinBuildTable> table(new JoinBuildTable(spec));
  CSTORE_RETURN_IF_ERROR(table->DoBuild(stats));
  return table;
}

Status JoinBuildTable::PinPayload(ExecStats* stats) {
  const codec::ColumnReader* payload = spec_.right_payload;
  for (uint64_t b = 0; b < payload->num_blocks(); ++b) {
    CSTORE_ASSIGN_OR_RETURN(codec::EncodedBlock blk, payload->FetchBlock(b));
    ++stats->blocks_fetched;
    payload_mini_.AddBlock(
        std::make_shared<codec::EncodedBlock>(std::move(blk)));
  }
  return Status::OK();
}

Status JoinBuildTable::DoBuild(ExecStats* stats) {
  const codec::ColumnReader* key = spec_.right_key;
  // Every row may enter the table: the sizing bound.
  const Position rows = key->num_values();
  // Rows enter the table at the snapshot's live positions (deletes masked
  // out), each column read in one walk that skips the blocks whose rows
  // are all deleted.
  const position::PositionSet live =
      spec_.snapshot != nullptr && spec_.snapshot->has_deletes()
          ? spec_.snapshot->LiveSet(0, rows)
          : position::PositionSet::All(0, rows);

  switch (spec_.mode) {
    case JoinRightMode::kMaterialized: {
      // Construct inner tuples before the join: read key and payload
      // columns at the live positions and materialize (key, payload) rows
      // into the hash table.
      payloads_ = FlatMap<Value>(rows);
      std::vector<Value> keys;
      std::vector<Value> payloads;
      keys.reserve(live.Cardinality());
      payloads.reserve(live.Cardinality());
      auto gather_into = [](std::vector<Value>* out) {
        return [out](const codec::EncodedBlock& blk,
                     std::span<const position::Range> runs) {
          blk.view.GatherRanges(runs, out);
        };
      };
      CSTORE_RETURN_IF_ERROR(
          ForEachCoveringBlock(key, live, stats, gather_into(&keys)));
      CSTORE_RETURN_IF_ERROR(ForEachCoveringBlock(
          spec_.right_payload, live, stats, gather_into(&payloads)));
      CSTORE_CHECK(keys.size() == payloads.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        payloads_.Insert(keys[i], payloads[i]);
      }
      stats->tuples_constructed += keys.size();
      stats->values_gathered += 2 * keys.size();
      break;
    }
    case JoinRightMode::kMultiColumn:
    case JoinRightMode::kSingleColumn: {
      // Key → position map. Only the join-predicate column enters the
      // join; kMultiColumn also keeps the payload as a pinned compressed
      // mini-column.
      positions_ = FlatMap<Position>(rows);
      CSTORE_RETURN_IF_ERROR(ForEachCoveringBlock(
          key, live, stats,
          [&](const codec::EncodedBlock& blk,
              std::span<const position::Range> runs) {
            blk.view.ForEachValueInRanges(
                runs, [&](Position p, Value v) { positions_.Insert(v, p); });
          }));
      if (spec_.mode == JoinRightMode::kMultiColumn) {
        CSTORE_RETURN_IF_ERROR(PinPayload(stats));
      }
      break;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// JoinProbeOp
// ---------------------------------------------------------------------------

JoinProbeOp::JoinProbeOp(const Spec& spec, const JoinBuildTable& table,
                         ExecStats* stats)
    : spec_(spec), table_(&table), stats_(stats) {
  CSTORE_CHECK((spec_.pos_input != nullptr) != (spec_.tuple_input != nullptr));
}

Status JoinProbeOp::ProbeChunk(const MultiColumnChunk& chunk,
                               TupleChunk* out) {
  out->Reset(2);
  if (chunk.desc.IsEmpty()) return Status::OK();

  left_pos_.clear();
  right_vals_.clear();
  right_pos_.clear();

  const MiniColumn* key_mini = chunk.FindMini(0);
  CSTORE_CHECK(key_mini != nullptr);

  // Probe: left positions are consumed in order, so left join output
  // positions come out sorted; right matches are produced in probe order —
  // i.e. unsorted with respect to the inner table.
  switch (table_->mode()) {
    case JoinRightMode::kMaterialized:
      key_mini->ForEachPosValue(chunk.desc, [&](Position p, Value key) {
        if (const Value* payload = table_->FindPayload(key)) {
          left_pos_.push_back(p);
          right_vals_.push_back(*payload);
        }
      });
      break;
    case JoinRightMode::kMultiColumn:
      key_mini->ForEachPosValue(chunk.desc, [&](Position p, Value key) {
        if (const Position* rp = table_->FindPosition(key)) {
          left_pos_.push_back(p);
          // Extract the payload value and construct the tuple on the fly
          // from the pinned multi-column.
          right_vals_.push_back(table_->PayloadAt(*rp));
          ++stats_->values_gathered;
        }
      });
      break;
    case JoinRightMode::kSingleColumn:
      key_mini->ForEachPosValue(chunk.desc, [&](Position p, Value key) {
        if (const Position* rp = table_->FindPosition(key)) {
          left_pos_.push_back(p);
          right_pos_.push_back(*rp);
        }
      });
      break;
  }

  if (left_pos_.empty()) return Status::OK();

  // Left payload: positions are sorted, so this is a cheap in-order merge
  // gather of the payload column.
  left_vals_.clear();
  position::PosList pl;
  for (Position p : left_pos_) pl.Append(p);
  const position::PositionSet sel = position::PositionSet::FromList(
      left_pos_.front(), left_pos_.back() + 1, std::move(pl));
  CSTORE_RETURN_IF_ERROR(GatherColumnValues(
      sel, /*mini=*/nullptr, spec_.left_payload, stats_, &left_vals_));
  CSTORE_CHECK(left_vals_.size() == left_pos_.size());

  // Right payload for the single-column mode: the positions are out of
  // order, so a merge join on position is impossible — every access is an
  // independent block lookup + jump.
  if (table_->mode() == JoinRightMode::kSingleColumn) {
    right_vals_.clear();
    right_vals_.reserve(right_pos_.size());
    for (Position p : right_pos_) {
      CSTORE_ASSIGN_OR_RETURN(Value v, table_->FetchPayload(p));
      right_vals_.push_back(v);
      ++stats_->values_gathered;
    }
  }

  // Stitch output tuples.
  out->Reserve(left_pos_.size());
  for (size_t i = 0; i < left_pos_.size(); ++i) {
    Value* slots = out->AppendTuple(left_pos_[i]);
    slots[0] = left_vals_[i];
    slots[1] = right_vals_[i];
  }
  stats_->tuples_constructed += out->num_tuples();
  return Status::OK();
}

Status JoinProbeOp::ProbeEarlyChunk(const TupleChunk& in, TupleChunk* out) {
  // Row-store-style probe: outer tuples are already (key, payload) rows;
  // matches emit output rows directly.
  out->Reset(2);
  out->Reserve(in.num_tuples());
  right_pos_.clear();
  for (size_t i = 0; i < in.num_tuples(); ++i) {
    Value key = in.value(i, 0);
    Value payload = in.value(i, 1);
    switch (table_->mode()) {
      case JoinRightMode::kMaterialized: {
        if (const Value* rp = table_->FindPayload(key)) {
          Value row[2] = {payload, *rp};
          out->AppendTuple(in.position(i), row);
        }
        break;
      }
      case JoinRightMode::kMultiColumn: {
        if (const Position* rp = table_->FindPosition(key)) {
          Value row[2] = {payload, table_->PayloadAt(*rp)};
          out->AppendTuple(in.position(i), row);
          ++stats_->values_gathered;
        }
        break;
      }
      case JoinRightMode::kSingleColumn: {
        if (const Position* rp = table_->FindPosition(key)) {
          Value row[2] = {payload, 0};  // right value filled below
          out->AppendTuple(in.position(i), row);
          right_pos_.push_back(*rp);
        }
        break;
      }
    }
  }
  if (table_->mode() == JoinRightMode::kSingleColumn) {
    for (size_t i = 0; i < right_pos_.size(); ++i) {
      CSTORE_ASSIGN_OR_RETURN(Value v, table_->FetchPayload(right_pos_[i]));
      out->mutable_tuple(i)[1] = v;
      ++stats_->values_gathered;
    }
  }
  stats_->tuples_constructed += out->num_tuples();
  return Status::OK();
}

Result<bool> JoinProbeOp::NextImpl(TupleChunk* out) {
  if (spec_.tuple_input != nullptr) {
    TupleChunk in;
    CSTORE_ASSIGN_OR_RETURN(bool has, spec_.tuple_input->Next(&in));
    if (!has) return false;
    CSTORE_RETURN_IF_ERROR(ProbeEarlyChunk(in, out));
    return true;
  }
  MultiColumnChunk chunk;
  CSTORE_ASSIGN_OR_RETURN(bool has, spec_.pos_input->Next(&chunk));
  if (!has) return false;
  CSTORE_RETURN_IF_ERROR(ProbeChunk(chunk, out));
  return true;
}

}  // namespace exec
}  // namespace cstore
