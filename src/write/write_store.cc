#include "write/write_store.h"

#include <algorithm>

#include "codec/views.h"
#include "util/logging.h"

namespace cstore {
namespace write {

bool WriteSnapshot::AnyDeletedIn(Position begin, Position end) const {
  auto it = std::lower_bound(deleted_.begin(), deleted_.end(), begin);
  return it != deleted_.end() && *it < end;
}

position::PositionSet WriteSnapshot::LiveSet(Position begin,
                                             Position end) const {
  position::SetBuilder builder(begin, end);
  Position cur = begin;
  for (auto it = std::lower_bound(deleted_.begin(), deleted_.end(), begin);
       it != deleted_.end() && *it < end; ++it) {
    if (*it > cur) builder.AddRange(cur, *it);
    cur = *it + 1;
  }
  if (cur < end) builder.AddRange(cur, end);
  return std::move(builder).Build();
}

int WriteSnapshot::ColumnIndexForFile(const std::string& file) const {
  for (size_t i = 0; i < files_.size(); ++i) {
    if (files_[i] == file) return static_cast<int>(i);
  }
  return -1;
}

int WriteSnapshot::ColumnIndexForName(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void WriteSnapshot::BuildTailBlocks() {
  const uint64_t per_block = codec::kUncompressedValuesPerBlock;
  tail_blocks_.resize(names_.size());
  for (size_t c = 0; c < names_.size(); ++c) {
    const Value* values = tail_values_[c].data();
    tail_blocks_[c].reserve((tail_rows_ + per_block - 1) / per_block);
    for (uint64_t off = 0; off < tail_rows_; off += per_block) {
      const uint32_t n = static_cast<uint32_t>(
          std::min<uint64_t>(per_block, tail_rows_ - off));
      auto block = std::make_shared<codec::EncodedBlock>();
      block->view =
          codec::BlockView::Uncompressed(base_rows_ + off, n, values + off);
      tail_blocks_[c].push_back(std::move(block));
    }
  }
}

std::shared_ptr<const WriteSnapshot> WriteSnapshot::Synthetic(
    std::vector<std::string> names, std::vector<std::string> files,
    std::vector<std::vector<Value>> columns) {
  CSTORE_CHECK(!names.empty());
  CSTORE_CHECK(names.size() == files.size());
  CSTORE_CHECK(columns.size() == names.size());
  for (const auto& col : columns) {
    CSTORE_CHECK(col.size() == columns[0].size());
  }
  auto snap = std::shared_ptr<WriteSnapshot>(new WriteSnapshot());
  snap->base_rows_ = 0;
  snap->tail_rows_ = columns[0].size();
  snap->delete_epoch_ = 0;
  snap->names_ = std::move(names);
  snap->files_ = std::move(files);
  snap->tail_values_ = std::move(columns);
  snap->BuildTailBlocks();
  return snap;
}

WriteStore::WriteStore(std::vector<std::string> names,
                       std::vector<std::string> files, Position base_rows)
    : names_(std::move(names)),
      files_(std::move(files)),
      base_rows_(base_rows),
      pending_(names_.size()) {
  CSTORE_CHECK(names_.size() == files_.size());
  CSTORE_CHECK(!names_.empty());
}

Status WriteStore::Insert(const std::vector<std::vector<Value>>& rows) {
  for (const auto& row : rows) {
    if (row.size() != names_.size()) {
      return Status::InvalidArgument(
          "insert row has " + std::to_string(row.size()) + " values, table " +
          "has " + std::to_string(names_.size()) + " columns");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) pending_[c].push_back(row[c]);
  }
  return Status::OK();
}

Status WriteStore::MarkDeleted(const std::vector<Position>& positions) {
  std::lock_guard<std::mutex> lock(mu_);
  const Position total = base_rows_ + pending_[0].size();
  for (Position p : positions) {
    if (p >= total) {
      return Status::InvalidArgument(
          "delete position " + std::to_string(p) + " out of range (" +
          std::to_string(total) + " rows)");
    }
  }
  delete_log_.insert(delete_log_.end(), positions.begin(), positions.end());
  return Status::OK();
}

Status WriteStore::DeleteAndInsert(
    const std::vector<Position>& positions,
    const std::vector<std::vector<Value>>& rows) {
  for (const auto& row : rows) {
    if (row.size() != names_.size()) {
      return Status::InvalidArgument(
          "update row has " + std::to_string(row.size()) + " values, table " +
          "has " + std::to_string(names_.size()) + " columns");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  const Position total = base_rows_ + pending_[0].size();
  for (Position p : positions) {
    if (p >= total) {
      return Status::InvalidArgument(
          "update position " + std::to_string(p) + " out of range (" +
          std::to_string(total) + " rows)");
    }
  }
  delete_log_.insert(delete_log_.end(), positions.begin(), positions.end());
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) pending_[c].push_back(row[c]);
  }
  return Status::OK();
}

std::shared_ptr<const WriteSnapshot> WriteStore::Snapshot() const {
  std::shared_ptr<WriteSnapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cached_snapshot_ != nullptr &&
        cached_snapshot_->base_rows() == base_rows_ &&
        cached_snapshot_->tail_rows() == pending_[0].size() &&
        cached_snapshot_->delete_epoch() == delete_log_.size()) {
      return cached_snapshot_;
    }
    snap.reset(new WriteSnapshot());
    snap->base_rows_ = base_rows_;
    snap->tail_rows_ = pending_[0].size();
    snap->delete_epoch_ = delete_log_.size();
    snap->names_ = names_;
    snap->files_ = files_;
    snap->tail_values_ = pending_;
    snap->deleted_ = delete_log_;
  }
  std::sort(snap->deleted_.begin(), snap->deleted_.end());
  snap->deleted_.erase(
      std::unique(snap->deleted_.begin(), snap->deleted_.end()),
      snap->deleted_.end());
  snap->BuildTailBlocks();
  {
    // Two racing builders may both store; last wins, both are correct.
    std::lock_guard<std::mutex> lock(mu_);
    if (snap->base_rows_ == base_rows_ &&
        snap->tail_rows_ == pending_[0].size() &&
        snap->delete_epoch_ == delete_log_.size()) {
      cached_snapshot_ = snap;
    }
  }
  return snap;
}

uint64_t WriteStore::pending_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_[0].size();
}

Position WriteStore::base_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_rows_;
}

uint64_t WriteStore::delete_log_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delete_log_.size();
}

std::vector<std::vector<Value>> WriteStore::PeekPending(
    uint64_t limit, uint64_t* taken) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = std::min<uint64_t>(limit, pending_[0].size());
  *taken = n;
  std::vector<std::vector<Value>> out(pending_.size());
  for (size_t c = 0; c < pending_.size(); ++c) {
    out[c].assign(pending_[c].begin(), pending_[c].begin() + n);
  }
  return out;
}

void WriteStore::MarkMoved(uint64_t moved, std::vector<std::string> files) {
  std::lock_guard<std::mutex> lock(mu_);
  CSTORE_CHECK(moved <= pending_[0].size());
  CSTORE_CHECK(files.size() == files_.size());
  for (auto& col : pending_) {
    col.erase(col.begin(), col.begin() + moved);
  }
  base_rows_ += moved;
  files_ = std::move(files);
}

}  // namespace write
}  // namespace cstore
