// ColumnWriter encodes a stream of values into 64 KB blocks of the chosen
// encoding and appends them to a column file, tracking the metadata the cost
// model and readers need (run counts, block start positions, min/max).

#ifndef CSTORE_CODEC_COLUMN_WRITER_H_
#define CSTORE_CODEC_COLUMN_WRITER_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "codec/column_meta.h"
#include "codec/encoding.h"
#include "codec/views.h"
#include "storage/file_manager.h"
#include "util/status.h"

namespace cstore {
namespace codec {

class ColumnWriter {
 public:
  /// Creates (or truncates) column file `name` under `files`.
  static Result<std::unique_ptr<ColumnWriter>> Create(
      storage::FileManager* files, const std::string& name, Encoding encoding);

  /// Appends one value at the next position.
  Status Append(Value v);

  /// Appends `count` copies of `v` (fast path for generated runs).
  Status AppendRun(Value v, uint64_t count);

  /// Flushes all pending data, writes the sidecar metadata, and returns it.
  /// The writer must not be used afterwards.
  Result<ColumnMeta> Finish();

 private:
  ColumnWriter(storage::FileManager* files, std::string name,
               storage::FileId file, Encoding encoding);

  Status FlushUncompressedBlock();
  Status FlushRleBlock();
  Status FlushBitVectorBlock(bool final_block);
  Status FlushDictBlock();
  Status EmitBitVectorBlock(size_t take);
  Status PushRun();
  Status WritePage(uint32_t num_values, uint64_t start_pos,
                   Value first_value, const void* payload,
                   size_t payload_len);
  void NoteValue(Value v);

  storage::FileManager* files_;
  std::string name_;
  storage::FileId file_;
  Encoding encoding_;

  uint64_t pos_ = 0;  // next position to assign
  ColumnMeta meta_;
  bool finished_ = false;

  // Sortedness detection (enables the Section 2.1.1 index fast path).
  bool sorted_ = true;
  Value last_value_ = 0;

  // Run tracking (for meta_.num_runs and the RLE encoder).
  bool has_run_ = false;
  Value run_value_ = 0;
  uint64_t run_start_ = 0;
  uint64_t run_len_ = 0;

  // Distinct tracking (exact while small; required for bit-vector).
  std::unordered_set<Value> distinct_;
  bool distinct_overflow_ = false;

  // Encoding-specific buffers.
  std::vector<Value> value_buf_;        // uncompressed & bit-vector
  uint64_t value_buf_start_pos_ = 0;
  std::vector<RleTriple> triple_buf_;   // rle
  uint64_t triple_buf_values_ = 0;
  uint64_t triple_buf_start_pos_ = 0;
};

}  // namespace codec
}  // namespace cstore

#endif  // CSTORE_CODEC_COLUMN_WRITER_H_
