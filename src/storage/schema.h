// Table schemas and raw-row field access.
//
// Rows are fixed-width byte records laid out column-after-column with
// natural alignment (int64/double fields 8-aligned, int32 4-aligned, char
// fields byte-aligned and NUL-padded). A Schema owns the layout and is the
// only component that interprets row bytes.

#ifndef CJOIN_STORAGE_SCHEMA_H_
#define CJOIN_STORAGE_SCHEMA_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/types.h"

namespace cjoin {

/// One column of a schema.
struct Column {
  std::string name;
  DataType type = DataType::kInt32;
  /// Declared length for kChar columns; 0 otherwise.
  uint32_t char_len = 0;
  /// Byte offset of this column within the row payload (set by Schema).
  uint32_t offset = 0;

  size_t width() const { return TypeSize(type, char_len); }
};

/// An ordered set of columns plus the derived row layout.
class Schema {
 public:
  Schema() = default;

  /// Convenience builder: Schema({{"a", DataType::kInt32}, ...}).
  Schema& AddInt32(std::string name);
  Schema& AddInt64(std::string name);
  Schema& AddDouble(std::string name);
  Schema& AddChar(std::string name, uint32_t len);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Total payload bytes per row (includes alignment padding, rounded up
  /// to 8 so consecutive rows stay aligned).
  size_t row_size() const { return row_size_; }

  /// Index of the column with `name`, or -1 if absent.
  int ColumnIndex(std::string_view name) const;

  /// Result-returning variant of ColumnIndex.
  Result<size_t> FindColumn(std::string_view name) const;

  // --- Typed field access on raw row payloads -----------------------------
  // The caller is responsible for passing a column index of the matching
  // type; these are unchecked on release builds (hot path).

  int32_t GetInt32(const uint8_t* row, size_t col) const {
    int32_t v;
    std::memcpy(&v, row + columns_[col].offset, sizeof(v));
    return v;
  }
  int64_t GetInt64(const uint8_t* row, size_t col) const {
    int64_t v;
    std::memcpy(&v, row + columns_[col].offset, sizeof(v));
    return v;
  }
  double GetDouble(const uint8_t* row, size_t col) const {
    double v;
    std::memcpy(&v, row + columns_[col].offset, sizeof(v));
    return v;
  }
  /// Returns the char field trimmed at its first NUL.
  std::string_view GetChar(const uint8_t* row, size_t col) const {
    const char* p =
        reinterpret_cast<const char*>(row + columns_[col].offset);
    const size_t cap = columns_[col].char_len;
    size_t len = 0;
    while (len < cap && p[len] != '\0') ++len;
    return std::string_view(p, len);
  }

  /// Reads an integer-typed column (kInt32 or kInt64) widened to int64.
  /// Used for join keys, whose physical type varies by table.
  int64_t GetIntAny(const uint8_t* row, size_t col) const {
    return columns_[col].type == DataType::kInt32
               ? static_cast<int64_t>(GetInt32(row, col))
               : GetInt64(row, col);
  }

  void SetInt32(uint8_t* row, size_t col, int32_t v) const {
    std::memcpy(row + columns_[col].offset, &v, sizeof(v));
  }
  void SetInt64(uint8_t* row, size_t col, int64_t v) const {
    std::memcpy(row + columns_[col].offset, &v, sizeof(v));
  }
  void SetDouble(uint8_t* row, size_t col, double v) const {
    std::memcpy(row + columns_[col].offset, &v, sizeof(v));
  }
  /// Copies `v` into the char field, truncating or NUL-padding to the
  /// declared length. `v` ends at its first NUL, as GetChar reads it, so
  /// equal values have equal field bytes (group keys compare raw bytes).
  void SetChar(uint8_t* row, size_t col, std::string_view v) const {
    const size_t cap = columns_[col].char_len;
    uint8_t* dst = row + columns_[col].offset;
    size_t n = v.size() < cap ? v.size() : cap;
    if (n > 0) {
      if (const void* nul = std::memchr(v.data(), 0, n)) {
        n = static_cast<size_t>(static_cast<const char*>(nul) - v.data());
      }
      std::memcpy(dst, v.data(), n);
    }
    std::memset(dst + n, 0, cap - n);
  }

  /// Human-readable description, e.g. "(a INT32, b CHAR(10))".
  std::string ToString() const;

  bool operator==(const Schema& other) const;

 private:
  void Append(Column col);

  std::vector<Column> columns_;
  size_t row_size_ = 0;
};

/// Hoisted integer-key load: the column's offset and physical width are
/// resolved once per operator, not per row (what Schema::GetIntAny
/// redoes on every call). Join keys are kInt32 or kInt64 columns.
inline int64_t LoadFkKey(const uint8_t* row, uint32_t offset, bool is_i32) {
  if (is_i32) {
    int32_t v;
    std::memcpy(&v, row + offset, sizeof(v));
    return static_cast<int64_t>(v);
  }
  int64_t v;
  std::memcpy(&v, row + offset, sizeof(v));
  return v;
}

}  // namespace cjoin

#endif  // CJOIN_STORAGE_SCHEMA_H_
