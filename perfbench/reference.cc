#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

std::string Cell(const cjoin::Value& v) {
  switch (v.kind()) {
    case cjoin::Value::Kind::kNull:
      return "n";
    case cjoin::Value::Kind::kInt:
      return "i:" + std::to_string(v.AsInt());
    case cjoin::Value::Kind::kString:
      return "s:" + v.AsString();
    case cjoin::Value::Kind::kDouble: {
      const double d = v.AsDouble();
      if (std::nearbyint(d) == d && std::fabs(d) < 9.0e15) {
        return "i:" + std::to_string(static_cast<int64_t>(d));
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "d:%.17g", d);
      return buf;
    }
  }
  return "?";
}

}  // namespace

Canonical Canonicalize(const cjoin::ResultSet& rs) {
  Canonical out;
  out.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) line.push_back('\x1f');
      line += Cell(row[c]);
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Fingerprint FingerprintOf(const Canonical& c) {
  Fingerprint f{c.size(), 14695981039346656037ull};
  for (const std::string& row : c) {
    for (unsigned char ch : row) f.hash = (f.hash ^ ch) * 1099511628211ull;
    f.hash = (f.hash ^ '\n') * 1099511628211ull;  // row separator
  }
  return f;
}

std::string Diff(const Canonical& expected, const Fingerprint& actual) {
  if (FingerprintOf(expected) == actual) return "";
  if (expected.size() != actual.rows) {
    return "expected " + std::to_string(expected.size()) + " rows, got " +
           std::to_string(actual.rows);
  }
  return "same " + std::to_string(actual.rows) +
         " rows expected, different contents";
}

Reference::Reference(const cjoin::ssb::SsbDatabase& db, uint64_t base_rows) {
  const cjoin::StarSchema& star = *db.star;
  for (size_t d = 0; d < kDims; ++d) {
    const cjoin::DimensionDef& def = star.dimension(d);
    const cjoin::Table& t = *def.table;
    for (uint64_t i = 0; i < t.NumRows(); ++i) {
      const int32_t key = static_cast<int32_t>(t.schema().GetIntAny(
          t.RowPayload(cjoin::RowId{0, i}), def.dim_pk_col));
      row_of_key_[d].emplace(key, static_cast<uint32_t>(i));
    }
  }
  // Every dimension column, so any group-by can be evaluated.
  for (size_t d = 0; d < kDims; ++d) {
    const cjoin::Table& t = *star.dimension(d).table;
    const cjoin::Schema& s = t.schema();
    for (size_t c = 0; c < s.num_columns(); ++c) {
      Attr& a = attrs_[s.column(c).name];
      std::unordered_map<std::string, uint32_t> ids;
      for (uint64_t i = 0; i < t.NumRows(); ++i) {
        const uint8_t* row = t.RowPayload(cjoin::RowId{0, i});
        std::string cell =
            s.column(c).type == cjoin::DataType::kChar
                ? "s:" + std::string(s.GetChar(row, c))
                : "i:" + std::to_string(s.GetIntAny(row, c));
        auto [it, fresh] =
            ids.emplace(cell, static_cast<uint32_t>(a.cells.size()));
        if (fresh) a.cells.push_back(std::move(cell));
        a.id_of_row.push_back(it->second);
      }
    }
  }

  const cjoin::Table& fact = star.fact();
  const cjoin::Schema& fs = fact.schema();
  std::array<size_t, kDims> fk_col{};
  for (size_t d = 0; d < kDims; ++d) fk_col[d] = star.dimension(d).fact_fk_col;
  const size_t rev = static_cast<size_t>(fs.ColumnIndex("lo_revenue"));
  const size_t cost = static_cast<size_t>(fs.ColumnIndex("lo_supplycost"));
  for (uint64_t i = 0; i < base_rows; ++i) {
    const uint8_t* row = fact.RowPayload(cjoin::RowId{0, i});
    std::array<int32_t, kDims> fks{};
    for (size_t d = 0; d < kDims; ++d) {
      fks[d] = static_cast<int32_t>(fs.GetIntAny(row, fk_col[d]));
    }
    Append(fks, fs.GetInt32(row, rev), fs.GetInt32(row, cost), 0);
  }
}

void Reference::AddRow(const FactRow& row, cjoin::SnapshotId commit) {
  Append({row.orderdate, row.custkey, row.suppkey, row.partkey}, row.revenue,
         row.supplycost, commit);
}

void Reference::Append(const std::array<int32_t, kDims>& fks, int32_t revenue,
                       int32_t supplycost, cjoin::SnapshotId xmin) {
  for (size_t d = 0; d < kDims; ++d) {
    auto it = row_of_key_[d].find(fks[d]);
    if (it == row_of_key_[d].end()) {
      std::fprintf(stderr, "perfbench: fact row with dangling key %d\n",
                   fks[d]);
      std::exit(1);
    }
    fk_[d].push_back(fks[d]);
    dim_row_[d].push_back(it->second);
  }
  revenue_.push_back(revenue);
  supplycost_.push_back(supplycost);
  xmin_.push_back(xmin);
}

void Reference::Index() {
  const size_t n = xmin_.size();
  for (size_t d = 0; d < kDims; ++d) {
    std::vector<uint32_t>& order = by_key_[d];
    order.resize(n);
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
    const std::vector<int32_t>& key = fk_[d];
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) { return key[a] < key[b]; });
  }
}

const Reference::Attr& Reference::AttrFor(const GroupCol& g) const {
  auto it = attrs_.find(g.column);
  if (it == attrs_.end()) {
    std::fprintf(stderr, "perfbench: no reference attribute %s\n",
                 g.column.c_str());
    std::exit(1);
  }
  return it->second;
}

Canonical Reference::Evaluate(const QueryDesc& q,
                              cjoin::SnapshotId snapshot) const {
  constexpr int kKeyBits = 21;  // interned ids per attribute stay below 2^21
  std::vector<size_t> restricted;
  for (size_t d = 0; d < kDims; ++d) {
    if (q.restricted[d]) restricted.push_back(d);
  }
  std::vector<const Attr*> attrs;
  for (const GroupCol& g : q.group_by) attrs.push_back(&AttrFor(g));

  // Candidate rows: those inside the narrowest restricted key range when
  // the rows are indexed, else all of them.
  const size_t n = xmin_.size();
  const uint32_t* cand = nullptr;
  size_t count = n;
  for (size_t d : restricted) {
    const std::vector<uint32_t>& order = by_key_[d];
    if (order.size() != n) break;  // not indexed
    const std::vector<int32_t>& key = fk_[d];
    auto lo = std::lower_bound(
        order.begin(), order.end(), q.lo[d],
        [&](uint32_t r, int64_t v) { return key[r] < v; });
    auto hi = std::upper_bound(
        lo, order.end(), q.hi[d],
        [&](int64_t v, uint32_t r) { return v < key[r]; });
    if (static_cast<size_t>(hi - lo) <= count) {
      cand = order.data() + (lo - order.begin());
      count = static_cast<size_t>(hi - lo);
    }
  }

  std::unordered_map<uint64_t, int64_t> groups;
  for (size_t k = 0; k < count; ++k) {
    const size_t i = cand != nullptr ? cand[k] : k;
    if (xmin_[i] > snapshot) continue;
    bool pass = true;
    for (size_t d : restricted) {
      const int32_t v = fk_[d][i];
      if (v < q.lo[d] || v > q.hi[d]) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    uint64_t key = 0;
    for (size_t g = 0; g < attrs.size(); ++g) {
      key = (key << kKeyBits) |
            attrs[g]->id_of_row[dim_row_[q.group_by[g].dim][i]];
    }
    groups[key] += q.measure == Measure::kRevenue
                       ? int64_t{revenue_[i]}
                       : int64_t{revenue_[i]} - supplycost_[i];
  }

  Canonical out;
  out.reserve(groups.size());
  for (const auto& [key, sum] : groups) {
    std::string line;
    for (size_t g = 0; g < attrs.size(); ++g) {
      const int shift = kKeyBits * static_cast<int>(attrs.size() - 1 - g);
      const uint64_t id = (key >> shift) & ((uint64_t{1} << kKeyBits) - 1);
      line += attrs[g]->cells[id];
      line.push_back('\x1f');
    }
    line += "i:" + std::to_string(sum);
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
