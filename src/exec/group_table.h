// Reusable grouping / aggregate-folding kernel.
//
// GroupTable is the engine under hash aggregation: an open-addressing
// index over dense, fixed-width group rows, folding a fixed list of
// aggregate functions. It is shared by the per-query star aggregators
// (CJOIN distributor and baseline executor), the sharded merge of
// partial aggregates, and the fact-to-fact galaxy join operator (§5).
//
// The layout is schema-driven and fixed when the table is built: a group
// key is the concatenation of its columns' raw storage bytes, each behind
// a null byte (CHAR(n) stays its n NUL-padded bytes), zero-padded to a
// whole number of 8-byte words. Keys hash over whole words and compare
// with memcmp; aggregate states are fixed-width words in the same group
// row. Folding reads inputs with typed loads and allocates only when a
// new group outgrows the arena — Values are built only by Finish().

#ifndef CJOIN_EXEC_GROUP_TABLE_H_
#define CJOIN_EXEC_GROUP_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/query_spec.h"
#include "exec/result_set.h"
#include "storage/schema.h"

namespace cjoin {

/// Physical type of one grouping column or aggregate input. Columns keep
/// their storage types; kNumeric is the one dynamic type — a NumericCell,
/// the int-or-double a fact expression evaluates to per tuple.
struct FieldType {
  enum class Kind : uint8_t { kInt32, kInt64, kDouble, kChar, kNumeric };

  Kind kind = Kind::kInt64;
  uint32_t char_len = 0;  ///< declared length of a CHAR(n) field

  static FieldType Of(const Column& c);
  static FieldType Numeric() { return FieldType{Kind::kNumeric, 0}; }

  /// Bytes of the field's raw value (sizeof(NumericCell) for kNumeric).
  size_t width() const;
};

/// Input cell of a kNumeric field.
struct NumericCell {
  int64_t i = 0;
  double d = 0.0;
  bool is_double = false;
};

/// One aggregate of a GroupTable. `input` is ignored for COUNT, which
/// counts every folded tuple. SUM and AVG need a numeric input.
struct AggDef {
  AggFn fn = AggFn::kCount;
  FieldType input;
};

/// The fixed layout of a GroupTable: grouping columns, then aggregates.
struct GroupLayout {
  std::vector<FieldType> keys;
  std::vector<AggDef> aggs;
};

/// Hash group-by over fixed-width keys. Not thread-safe.
class GroupTable {
 public:
  explicit GroupTable(const GroupLayout& layout);

  /// Folds one tuple. `keys[i]` points at the raw bytes of grouping
  /// column i in its FieldType, `inputs[a]` at aggregate a's input
  /// (a NumericCell for kNumeric); nullptr is SQL NULL. NULL inputs are
  /// ignored by every aggregate but COUNT.
  void Fold(const uint8_t* const* keys, const uint8_t* const* inputs);

  size_t num_groups() const { return num_groups_; }

  /// Merges `other`'s partial groups into this table (same layout
  /// required). Used by the sharded CJOIN collector to combine per-shard
  /// partial aggregates before finalizing; exact for every AggFn (AVG
  /// divides only at Finish). `other` is left empty.
  void MergeFrom(GroupTable&& other);

  /// Materializes (key columns..., aggregate columns...) rows under the
  /// given header. When `global_row_when_empty` is set and no group was
  /// folded, emits the SQL global-aggregate row (COUNT=0, SUM=NULL).
  /// The table resets afterwards.
  ResultSet Finish(std::vector<std::string> columns,
                   bool global_row_when_empty);

 private:
  struct KeyField {
    FieldType::Kind kind = FieldType::Kind::kInt64;
    uint32_t width = 0;   ///< raw value bytes
    uint32_t offset = 0;  ///< byte offset of the null byte in the key
  };
  struct AggSlot {
    AggDef def;
    uint32_t word = 0;  ///< first state word within the group row
  };

  uint64_t* Row(uint32_t g) { return arena_.data() + size_t{g} * row_words_; }
  /// Group row of the key_words_-word `key` hashing to `h`; created with
  /// zeroed states if absent.
  uint64_t* FindOrCreate(const uint64_t* key, uint64_t h);
  void Rehash();
  void Reset();
  void FoldInput(const AggSlot& a, uint64_t* state, const uint8_t* in) const;
  void MergeState(const AggSlot& a, uint64_t* dst,
                  const uint64_t* src) const;
  Value FinalValue(const AggSlot& a, const uint64_t* state) const;

  std::vector<KeyField> key_fields_;
  std::vector<AggSlot> aggs_;
  size_t key_words_ = 0;
  /// Group row: [hash][key words][state words].
  size_t row_words_ = 0;

  std::vector<uint64_t> key_;    ///< the key being folded
  std::vector<uint64_t> slots_;  ///< hash tag (high 32) | group index
  std::vector<uint64_t> arena_;  ///< group rows, row_words_ each
  size_t num_groups_ = 0;
};

}  // namespace cjoin

#endif  // CJOIN_EXEC_GROUP_TABLE_H_
