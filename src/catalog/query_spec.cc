#include "catalog/query_spec.h"

#include <algorithm>
#include <map>
#include <set>

namespace cjoin {

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kSum:
      return "SUM";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
    case AggFn::kAvg:
      return "AVG";
  }
  return "?";
}

Status CheckColumnSource(const StarSchema& star, const ColumnSource& src,
                         const char* what) {
  if (src.from == ColumnSource::From::kFact) {
    if (src.column >= star.fact().schema().num_columns()) {
      return Status::InvalidArgument(std::string(what) +
                                     ": fact column out of range");
    }
    return Status::OK();
  }
  if (src.dim_index >= star.num_dimensions()) {
    return Status::InvalidArgument(std::string(what) +
                                   ": dimension index out of range");
  }
  const Schema& dschema = star.dimension(src.dim_index).table->schema();
  if (src.column >= dschema.num_columns()) {
    return Status::InvalidArgument(std::string(what) +
                                   ": dimension column out of range");
  }
  return Status::OK();
}

const Schema& SourceSchema(const StarSchema& star, const ColumnSource& src) {
  return src.from == ColumnSource::From::kFact
             ? star.fact().schema()
             : star.dimension(src.dim_index).table->schema();
}

Status ValidateSpec(const StarQuerySpec& spec) {
  if (spec.schema == nullptr) {
    return Status::InvalidArgument("query has no star schema");
  }
  const StarSchema& star = *spec.schema;

  std::set<size_t> referenced;
  for (const DimensionPredicate& dp : spec.dim_predicates) {
    if (dp.dim_index >= star.num_dimensions()) {
      return Status::InvalidArgument("dimension predicate index out of range");
    }
    if (dp.predicate == nullptr) {
      return Status::InvalidArgument("dimension predicate is null");
    }
    if (!referenced.insert(dp.dim_index).second) {
      return Status::InvalidArgument(
          "duplicate predicate for dimension " +
          star.dimension(dp.dim_index).table->name() +
          " (use NormalizeSpec to merge)");
    }
  }

  if (spec.group_by.size() != spec.group_by_labels.size()) {
    return Status::InvalidArgument(
        "group_by and group_by_labels arity mismatch");
  }

  for (const ColumnSource& src : spec.group_by) {
    CJOIN_RETURN_IF_ERROR(CheckColumnSource(star, src, "group-by"));
    if (src.from == ColumnSource::From::kDimension &&
        referenced.count(src.dim_index) == 0) {
      return Status::InvalidArgument(
          "group-by references dimension without a predicate entry "
          "(use NormalizeSpec)");
    }
  }
  for (const AggregateSpec& agg : spec.aggregates) {
    if (agg.input.has_value() && agg.fact_expr != nullptr) {
      return Status::InvalidArgument(
          "aggregate has both a column input and a fact expression");
    }
    if (agg.fn != AggFn::kCount && !agg.input.has_value() &&
        agg.fact_expr == nullptr) {
      return Status::InvalidArgument(std::string(AggFnName(agg.fn)) +
                                     " aggregate requires an input");
    }
    if (agg.input.has_value()) {
      CJOIN_RETURN_IF_ERROR(CheckColumnSource(star, *agg.input, "aggregate"));
      if ((agg.fn == AggFn::kSum || agg.fn == AggFn::kAvg) &&
          SourceSchema(star, *agg.input).column(agg.input->column).type ==
              DataType::kChar) {
        return Status::InvalidArgument(std::string(AggFnName(agg.fn)) +
                                       " input must be numeric");
      }
      if (agg.input->from == ColumnSource::From::kDimension &&
          referenced.count(agg.input->dim_index) == 0) {
        return Status::InvalidArgument(
            "aggregate references dimension without a predicate entry "
            "(use NormalizeSpec)");
      }
    }
  }

  for (uint32_t p : spec.partitions) {
    if (p >= star.fact().num_partitions()) {
      return Status::InvalidArgument("partition id out of range");
    }
  }
  return Status::OK();
}

Result<StarQuerySpec> NormalizeSpec(StarQuerySpec spec) {
  if (spec.schema == nullptr) {
    return Status::InvalidArgument("query has no star schema");
  }
  const StarSchema& star = *spec.schema;

  // Merge duplicate dimension predicates by conjunction.
  std::map<size_t, ExprPtr> merged;
  for (DimensionPredicate& dp : spec.dim_predicates) {
    if (dp.dim_index >= star.num_dimensions()) {
      return Status::InvalidArgument("dimension predicate index out of range");
    }
    if (dp.predicate == nullptr) dp.predicate = MakeTrue();
    auto it = merged.find(dp.dim_index);
    if (it == merged.end()) {
      merged.emplace(dp.dim_index, dp.predicate);
    } else if (IsTrueLiteral(it->second)) {
      it->second = dp.predicate;
    } else if (!IsTrueLiteral(dp.predicate)) {
      it->second = MakeAnd(it->second, dp.predicate);
    }
  }

  // Add implicit TRUE entries for dimensions referenced only by outputs.
  auto ensure_dim = [&](size_t dim) {
    if (dim < star.num_dimensions() && merged.find(dim) == merged.end()) {
      merged.emplace(dim, MakeTrue());
    }
  };
  for (const ColumnSource& src : spec.group_by) {
    if (src.from == ColumnSource::From::kDimension) ensure_dim(src.dim_index);
  }
  for (const AggregateSpec& agg : spec.aggregates) {
    if (agg.input.has_value() &&
        agg.input->from == ColumnSource::From::kDimension) {
      ensure_dim(agg.input->dim_index);
    }
  }

  spec.dim_predicates.clear();
  for (auto& [dim, pred] : merged) {
    spec.dim_predicates.push_back(DimensionPredicate{dim, pred});
  }

  // Synthesize labels.
  auto source_name = [&](const ColumnSource& src) -> std::string {
    if (src.from == ColumnSource::From::kFact) {
      return star.fact().schema().column(src.column).name;
    }
    return star.dimension(src.dim_index).table->schema().column(src.column)
        .name;
  };
  if (spec.group_by_labels.size() != spec.group_by.size()) {
    spec.group_by_labels.clear();
    for (const ColumnSource& src : spec.group_by) {
      spec.group_by_labels.push_back(source_name(src));
    }
  }
  for (AggregateSpec& agg : spec.aggregates) {
    if (agg.label.empty()) {
      std::string arg = "*";
      if (agg.input.has_value()) {
        arg = source_name(*agg.input);
      } else if (agg.fact_expr != nullptr) {
        arg = agg.fact_expr->ToString(star.fact().schema());
      }
      agg.label = std::string(AggFnName(agg.fn)) + "(" + arg + ")";
    }
  }

  // Dedup partition list.
  std::sort(spec.partitions.begin(), spec.partitions.end());
  spec.partitions.erase(
      std::unique(spec.partitions.begin(), spec.partitions.end()),
      spec.partitions.end());

  CJOIN_RETURN_IF_ERROR(ValidateSpec(spec));
  return spec;
}

}  // namespace cjoin
