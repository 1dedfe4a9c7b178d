#include "runner/jsonl.h"

#include <cmath>
#include <stdexcept>

namespace icpda::runner {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonRow& JsonRow::raw(std::string_view key, std::string rendered) {
  fields_.emplace_back(std::string(key), std::move(rendered));
  return *this;
}

JsonRow& JsonRow::num(std::string_view key, double value, int precision) {
  if (!std::isfinite(value)) return raw(key, "null");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return raw(key, buf);
}

JsonRow& JsonRow::num(std::string_view key, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(value));
  return raw(key, buf);
}

JsonRow& JsonRow::str(std::string_view key, std::string_view value) {
  std::string quoted(1, '"');
  quoted += json_escape(value);
  quoted += '"';
  return raw(key, std::move(quoted));
}

JsonRow& JsonRow::boolean(std::string_view key, bool value) {
  return raw(key, value ? "true" : "false");
}

std::string JsonRow::to_line() const {
  std::string line = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) line += ", ";
    line += '"';
    line += json_escape(fields_[i].first);
    line += "\": ";
    line += fields_[i].second;
  }
  line += "}";
  return line;
}

JsonlSink JsonlSink::to_stream(std::FILE* stream) {
  return JsonlSink(stream, false, nullptr);
}

JsonlSink JsonlSink::to_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("JsonlSink: cannot open '" + path + "' for writing");
  return JsonlSink(f, true, nullptr);
}

JsonlSink JsonlSink::to_buffer(std::string* out) {
  return JsonlSink(nullptr, false, out);
}

JsonlSink::JsonlSink(JsonlSink&& other) noexcept
    : stream_(other.stream_),
      owned_(other.owned_),
      buffer_(other.buffer_),
      schema_(std::move(other.schema_)),
      rows_(other.rows_) {
  other.stream_ = nullptr;
  other.owned_ = false;
  other.buffer_ = nullptr;
}

JsonlSink::~JsonlSink() {
  if (owned_ && stream_) std::fclose(stream_);
}

void JsonlSink::write_line(const std::string& line) {
  if (buffer_) {
    *buffer_ += line;
    *buffer_ += '\n';
    return;
  }
  const std::string with_newline = line + "\n";
  std::fwrite(with_newline.data(), 1, with_newline.size(), stream_);
  std::fflush(stream_);
}

void JsonlSink::write(const JsonRow& row) {
  const std::lock_guard lock(mutex_);
  if (schema_.empty()) {
    for (const auto& [key, value] : row.fields()) schema_.push_back(key);
    if (schema_.empty()) throw std::runtime_error("JsonlSink: empty row");
  } else {
    const auto& fields = row.fields();
    bool match = fields.size() == schema_.size();
    for (std::size_t i = 0; match && i < fields.size(); ++i) {
      match = fields[i].first == schema_[i];
    }
    if (!match) {
      throw std::runtime_error(
          "JsonlSink: row schema deviates from the first row (key set and "
          "order must be stable)");
    }
  }
  write_line(row.to_line());
  ++rows_;
}

void JsonlSink::comment(std::string_view text) {
  const std::lock_guard lock(mutex_);
  write_line("# " + std::string(text));
}

}  // namespace icpda::runner
