// Shared result encoding: one place that knows how to render a result
// Value (StringDict-aware) and how to serialize result rows as JSON or
// CSV. Both the SQL server's wire formats and sql_shell's table printer
// go through here, so string-ish system.* columns, quoting, and escaping
// behave identically everywhere instead of being reimplemented per
// consumer.
//
// The encoder is streaming-shaped: Header() / EncodeChunk() / Footer()
// compose into one valid document, so the server can emit each RowCursor
// chunk as it arrives (HTTP chunked transfer) without ever materializing
// the result. Encoding a materialized QueryResult is the same three calls.

#ifndef CSTORE_API_ENCODE_H_
#define CSTORE_API_ENCODE_H_

#include <string>
#include <vector>

#include "exec/tuple_chunk.h"
#include "util/status.h"

namespace cstore {
namespace api {

/// Renders one result value: interned-string ids (system.* string columns,
/// interned literals) resolve through the global StringDict; everything
/// else renders as a decimal integer.
std::string RenderValue(Value v);

/// Wire formats the server speaks.
enum class Wire {
  kJson,
  kCsv,
};

/// Parses a format name ("json" | "csv", case-sensitive by design: these
/// are machine-facing query parameters).
Result<Wire> ParseWire(const std::string& name);

/// Streaming row encoder. Usage:
///
///   ResultEncoder enc(Wire::kJson, result.column_names);
///   out += enc.Header();
///   out += enc.EncodeChunk(chunk);      // repeat per chunk
///   out += enc.Footer(rows, wall_ms);
///
/// JSON emits {"columns":[...],"rows":[[...],...],"rows_out":N,
/// "wall_ms":X}; CSV emits a header line then one line per row (footer is
/// empty). Dictionary-id values render as escaped/quoted strings, numbers
/// as bare integers.
class ResultEncoder {
 public:
  ResultEncoder(Wire wire, std::vector<std::string> columns);

  std::string Header();
  std::string EncodeChunk(const exec::TupleChunk& chunk);
  /// A non-empty `error` is carried in the JSON footer ("error" key) — how
  /// a streaming response reports a failure after rows already went out
  /// (the status line said 200 long ago). CSV footers are always empty.
  std::string Footer(uint64_t rows_out, double wall_ms,
                     const std::string& error = "");

  const char* content_type() const {
    return wire_ == Wire::kJson ? "application/json" : "text/csv";
  }
  Wire wire() const { return wire_; }

 private:
  void AppendRow(std::string* out, const exec::TupleChunk& chunk, size_t i);

  const Wire wire_;
  const std::vector<std::string> columns_;
  bool any_row_ = false;  // JSON comma state across chunks
};

/// Appends `s` as a JSON string (quotes, backslash-escapes, \uXXXX for
/// control characters) to *out.
void AppendJsonString(std::string* out, const std::string& s);

/// Appends `s` as a CSV field, quoting (and doubling quotes) only when the
/// value contains a comma, quote, or newline.
void AppendCsvField(std::string* out, const std::string& s);

}  // namespace api
}  // namespace cstore

#endif  // CSTORE_API_ENCODE_H_
