#include "api/encode.h"

#include <charconv>
#include <cstdio>

#include "util/string_dict.h"

namespace cstore {
namespace api {

namespace {

/// The interned string behind `v`, or null when `v` renders as a number.
/// One dictionary lookup (one mutex acquisition), only for ids in the
/// dictionary range.
const std::string* DictString(Value v) {
  return util::StringDict::IsDictId(v) ? util::StringDict::Global().Lookup(v)
                                       : nullptr;
}

/// Appends `v` in decimal, without a temporary string.
void AppendInt(std::string* out, Value v) {
  char buf[24];  // INT64_MIN takes 20
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

}  // namespace

std::string RenderValue(Value v) {
  const std::string* s = DictString(v);
  return s != nullptr ? *s : std::to_string(v);
}

Result<Wire> ParseWire(const std::string& name) {
  if (name == "json") return Wire::kJson;
  if (name == "csv") return Wire::kCsv;
  return Status::InvalidArgument("unknown result format '" + name +
                                 "' (json|csv)");
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendCsvField(std::string* out, const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) {
    *out += s;
    return;
  }
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

ResultEncoder::ResultEncoder(Wire wire, std::vector<std::string> columns)
    : wire_(wire), columns_(std::move(columns)) {}

std::string ResultEncoder::Header() {
  std::string out;
  if (wire_ == Wire::kJson) {
    out = "{\"columns\":[";
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendJsonString(&out, columns_[i]);
    }
    out += "],\"rows\":[";
    return out;
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendCsvField(&out, columns_[i]);
  }
  out.push_back('\n');
  return out;
}

void ResultEncoder::AppendRow(std::string* out, const exec::TupleChunk& chunk,
                              size_t i) {
  if (wire_ == Wire::kJson) {
    if (any_row_) out->push_back(',');
    any_row_ = true;
    out->push_back('[');
    for (uint32_t c = 0; c < chunk.width(); ++c) {
      if (c > 0) out->push_back(',');
      const Value v = chunk.value(i, c);
      if (const std::string* s = DictString(v)) {
        AppendJsonString(out, *s);
      } else {
        AppendInt(out, v);
      }
    }
    out->push_back(']');
    return;
  }
  for (uint32_t c = 0; c < chunk.width(); ++c) {
    if (c > 0) out->push_back(',');
    const Value v = chunk.value(i, c);
    if (const std::string* s = DictString(v)) {
      AppendCsvField(out, *s);
    } else {
      AppendInt(out, v);  // digits and '-' never need CSV quoting
    }
  }
  out->push_back('\n');
}

std::string ResultEncoder::EncodeChunk(const exec::TupleChunk& chunk) {
  std::string out;
  // Rows dominate; one reservation keeps the append loop realloc-free for
  // typical narrow rows.
  out.reserve(chunk.num_tuples() * (chunk.width() + 1) * 8);
  for (size_t i = 0; i < chunk.num_tuples(); ++i) AppendRow(&out, chunk, i);
  return out;
}

std::string ResultEncoder::Footer(uint64_t rows_out, double wall_ms,
                                  const std::string& error) {
  if (wire_ != Wire::kJson) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "],\"rows_out\":%llu,\"wall_ms\":%.3f",
                static_cast<unsigned long long>(rows_out), wall_ms);
  std::string out = buf;
  if (!error.empty()) {
    out += ",\"error\":";
    AppendJsonString(&out, error);
  }
  out += "}\n";
  return out;
}

}  // namespace api
}  // namespace cstore
