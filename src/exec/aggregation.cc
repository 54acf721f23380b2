#include "exec/aggregation.h"

#include <algorithm>

#include "exec/group_table.h"

namespace cjoin {

namespace {

/// Pre-resolved column source: which row the value lives in (the fact row
/// or an attached dimension row) and the column's schema, index and
/// offset there.
struct BoundSource {
  bool from_fact = true;
  size_t dim_index = 0;
  const Schema* schema = nullptr;
  size_t column = 0;
  uint32_t offset = 0;

  const uint8_t* Row(const uint8_t* fact_row,
                     const uint8_t* const* dim_rows) const {
    return from_fact ? fact_row : dim_rows[dim_index];
  }

  /// The column's raw bytes in this tuple, or nullptr (NULL) when the
  /// dimension row is absent.
  const uint8_t* Field(const uint8_t* fact_row,
                       const uint8_t* const* dim_rows) const {
    const uint8_t* row = Row(fact_row, dim_rows);
    return row == nullptr ? nullptr : row + offset;
  }
};

BoundSource Bind(const StarQuerySpec& spec, const ColumnSource& src) {
  BoundSource b;
  b.from_fact = src.from == ColumnSource::From::kFact;
  b.dim_index = src.dim_index;
  b.schema = &SourceSchema(*spec.schema, src);
  b.column = src.column;
  b.offset = b.schema->column(src.column).offset;
  return b;
}

/// Shared plumbing for the aggregator implementations.
class AggregatorBase : public StarAggregator {
 public:
  explicit AggregatorBase(const StarQuerySpec& spec) {
    fact_schema_ = &spec.schema->fact().schema();
    for (const ColumnSource& src : spec.group_by) {
      key_sources_.push_back(Bind(spec, src));
    }
    for (const AggregateSpec& agg : spec.aggregates) {
      fns_.push_back(agg.fn);
      AggInput in;
      if (agg.input.has_value()) {
        in.kind = AggInput::kColumn;
        in.column = Bind(spec, *agg.input);
      } else if (agg.fact_expr != nullptr) {
        in.kind = AggInput::kExpr;
        in.expr = agg.fact_expr;
      }
      inputs_.push_back(std::move(in));
    }
    columns_ = spec.group_by_labels;
    for (const AggregateSpec& agg : spec.aggregates) {
      columns_.push_back(agg.label);
    }
  }

  uint64_t tuples_consumed() const override { return consumed_; }

 protected:
  /// Where an aggregate's input comes from.
  struct AggInput {
    enum Kind { kNone, kColumn, kExpr } kind = kNone;  // kNone: COUNT(*)
    BoundSource column;
    ExprPtr expr;  ///< over the fact row
  };

  std::vector<BoundSource> key_sources_;
  std::vector<AggFn> fns_;
  std::vector<AggInput> inputs_;
  const Schema* fact_schema_ = nullptr;
  std::vector<std::string> columns_;
  uint64_t consumed_ = 0;
};

/// Hash group-by over the GroupTable kernel. Consume() resolves each key
/// and input to a pointer at its raw bytes; nothing is allocated per
/// tuple. Finish() is left to the subclasses.
class HashAggregatorBase : public AggregatorBase {
 public:
  explicit HashAggregatorBase(const StarQuerySpec& spec)
      : AggregatorBase(spec),
        table_(StarGroupLayout(spec)),
        key_fields_(key_sources_.size()),
        input_fields_(fns_.size()),
        cells_(fns_.size()) {}

  void Consume(const uint8_t* fact_row,
               const uint8_t* const* dim_rows) override {
    ++consumed_;
    for (size_t i = 0; i < key_sources_.size(); ++i) {
      key_fields_[i] = key_sources_[i].Field(fact_row, dim_rows);
    }
    for (size_t a = 0; a < inputs_.size(); ++a) {
      const AggInput& in = inputs_[a];
      switch (in.kind) {
        case AggInput::kNone:
          input_fields_[a] = nullptr;
          break;
        case AggInput::kColumn:
          input_fields_[a] = in.column.Field(fact_row, dim_rows);
          break;
        case AggInput::kExpr:
          input_fields_[a] = EvalCell(a, fact_row);
          break;
      }
    }
    table_.Fold(key_fields_.data(), input_fields_.data());
  }

 protected:
  GroupTable table_;

 private:
  /// Evaluates aggregate a's fact expression into its NumericCell; a
  /// NULL (or non-numeric) result folds as NULL.
  const uint8_t* EvalCell(size_t a, const uint8_t* fact_row) {
    const Value v = inputs_[a].expr->Eval(*fact_schema_, fact_row);
    NumericCell& c = cells_[a];
    if (v.is_int()) {
      c.i = v.AsInt();
      c.is_double = false;
    } else if (v.is_double()) {
      c.d = v.AsDouble();
      c.is_double = true;
    } else {
      return nullptr;
    }
    return reinterpret_cast<const uint8_t*>(&c);
  }

  std::vector<const uint8_t*> key_fields_;
  std::vector<const uint8_t*> input_fields_;
  std::vector<NumericCell> cells_;
};

class HashStarAggregator final : public HashAggregatorBase {
 public:
  explicit HashStarAggregator(const StarQuerySpec& spec)
      : HashAggregatorBase(spec) {}

  ResultSet Finish() override {
    ResultSet rs = table_.Finish(
        columns_, /*global_row_when_empty=*/key_sources_.empty());
    rs.tuples_consumed = consumed_;
    return rs;
  }
};

/// Hash group-by that surrenders its partial GroupTable at Finish().
class PartialHashAggregator final : public HashAggregatorBase {
 public:
  PartialHashAggregator(const StarQuerySpec& spec, PartialSink sink)
      : HashAggregatorBase(spec), sink_(std::move(sink)) {}

  ResultSet Finish() override {
    if (sink_) sink_(std::move(table_), consumed_);
    ResultSet rs;
    rs.tuples_consumed = consumed_;
    return rs;
  }

 private:
  PartialSink sink_;
};

// ---- The sort-based oracle: Values throughout, no shared fold code ----

/// Running state of one aggregate within one group, folded from Values.
struct ValueAggState {
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  bool any_double = false;
  Value min_v;
  Value max_v;

  /// Folds one input value under `fn` (NULLs ignored per SQL semantics;
  /// COUNT counts every call).
  void Fold(AggFn fn, const Value& v) {
    switch (fn) {
      case AggFn::kCount:
        ++count;
        return;
      case AggFn::kSum:
      case AggFn::kAvg:
        if (!v.is_numeric()) return;
        ++count;
        if (v.is_double()) {
          any_double = true;
          dsum += v.AsDouble();
        } else {
          isum += v.AsInt();
        }
        return;
      case AggFn::kMin:
        if (v.is_null()) return;
        if (min_v.is_null() || v.Compare(min_v) < 0) min_v = v;
        return;
      case AggFn::kMax:
        if (v.is_null()) return;
        if (max_v.is_null() || v.Compare(max_v) > 0) max_v = v;
        return;
    }
  }

  Value Final(AggFn fn) const {
    switch (fn) {
      case AggFn::kCount:
        return Value(count);
      case AggFn::kSum:
        if (count == 0) return Value();
        if (any_double) return Value(dsum + static_cast<double>(isum));
        return Value(isum);
      case AggFn::kAvg:
        if (count == 0) return Value();
        return Value((dsum + static_cast<double>(isum)) /
                     static_cast<double>(count));
      case AggFn::kMin:
        return min_v;
      case AggFn::kMax:
        return max_v;
    }
    return Value();
  }
};

/// Reads a bound source as a Value through its schema's getters.
Value ReadValue(const BoundSource& src, const uint8_t* fact_row,
                const uint8_t* const* dim_rows) {
  const uint8_t* row = src.Row(fact_row, dim_rows);
  if (row == nullptr) return Value();
  const Schema& s = *src.schema;
  switch (s.column(src.column).type) {
    case DataType::kInt32:
      return Value(static_cast<int64_t>(s.GetInt32(row, src.column)));
    case DataType::kInt64:
      return Value(s.GetInt64(row, src.column));
    case DataType::kDouble:
      return Value(s.GetDouble(row, src.column));
    case DataType::kChar:
      return Value(s.GetChar(row, src.column));
  }
  return Value();
}

/// Sort group-by: buffers rows, sorts by key at Finish, folds runs.
class SortStarAggregator final : public AggregatorBase {
 public:
  explicit SortStarAggregator(const StarQuerySpec& spec)
      : AggregatorBase(spec) {}

  void Consume(const uint8_t* fact_row,
               const uint8_t* const* dim_rows) override {
    ++consumed_;
    Row row;
    for (const BoundSource& src : key_sources_) {
      row.key.push_back(ReadValue(src, fact_row, dim_rows));
    }
    for (size_t i = 0; i < fns_.size(); ++i) {
      const AggInput& in = inputs_[i];
      switch (in.kind) {
        case AggInput::kNone:
          row.inputs.emplace_back();
          break;
        case AggInput::kColumn:
          row.inputs.push_back(ReadValue(in.column, fact_row, dim_rows));
          break;
        case AggInput::kExpr:
          row.inputs.push_back(in.expr->Eval(*fact_schema_, fact_row));
          break;
      }
    }
    buffered_.push_back(std::move(row));
  }

  ResultSet Finish() override {
    ResultSet rs;
    rs.columns = columns_;
    rs.tuples_consumed = consumed_;
    if (buffered_.empty()) {
      if (key_sources_.empty() && !fns_.empty()) {
        std::vector<Value> row;
        ValueAggState empty;
        for (AggFn fn : fns_) row.push_back(empty.Final(fn));
        rs.rows.push_back(std::move(row));
      }
      return rs;
    }
    auto key_cmp = [](const Row& a, const Row& b) {
      for (size_t i = 0; i < a.key.size(); ++i) {
        const int c = a.key[i].Compare(b.key[i]);
        if (c != 0) return c;
      }
      return 0;
    };
    std::sort(buffered_.begin(), buffered_.end(),
              [&](const Row& a, const Row& b) { return key_cmp(a, b) < 0; });
    size_t run_start = 0;
    std::vector<ValueAggState> states(fns_.size());
    auto flush = [&](size_t run_end) {
      std::vector<Value> row = std::move(buffered_[run_start].key);
      for (size_t i = 0; i < fns_.size(); ++i) {
        row.push_back(states[i].Final(fns_[i]));
      }
      rs.rows.push_back(std::move(row));
      states.assign(fns_.size(), ValueAggState{});
      run_start = run_end;
    };
    for (size_t i = 0; i < buffered_.size(); ++i) {
      if (i > run_start && key_cmp(buffered_[i], buffered_[run_start]) != 0) {
        flush(i);
      }
      for (size_t a = 0; a < fns_.size(); ++a) {
        states[a].Fold(fns_[a], buffered_[i].inputs[a]);
      }
    }
    flush(buffered_.size());
    buffered_.clear();
    return rs;
  }

 private:
  struct Row {
    std::vector<Value> key;
    std::vector<Value> inputs;
  };
  std::vector<Row> buffered_;
};

}  // namespace

GroupLayout StarGroupLayout(const StarQuerySpec& spec) {
  GroupLayout layout;
  for (const ColumnSource& src : spec.group_by) {
    layout.keys.push_back(
        FieldType::Of(SourceSchema(*spec.schema, src).column(src.column)));
  }
  for (const AggregateSpec& agg : spec.aggregates) {
    AggDef def;
    def.fn = agg.fn;
    if (agg.input.has_value()) {
      def.input = FieldType::Of(
          SourceSchema(*spec.schema, *agg.input).column(agg.input->column));
    } else if (agg.fact_expr != nullptr) {
      def.input = FieldType::Numeric();
    }
    layout.aggs.push_back(def);
  }
  return layout;
}

std::unique_ptr<StarAggregator> MakeHashAggregator(const StarQuerySpec& spec) {
  return std::make_unique<HashStarAggregator>(spec);
}

std::unique_ptr<StarAggregator> MakeSortAggregator(const StarQuerySpec& spec) {
  return std::make_unique<SortStarAggregator>(spec);
}

std::unique_ptr<StarAggregator> MakePartialHashAggregator(
    const StarQuerySpec& spec, PartialSink sink) {
  return std::make_unique<PartialHashAggregator>(spec, std::move(sink));
}

}  // namespace cjoin
