// Independent result checking.
//
// Reference evaluates the plain description in a QueryDesc (never its
// engine spec) with a plain columnar loop over its own copy of the fact
// columns the queries read: the generated rows (visible at every
// snapshot) plus each row the benchmark ingested, tagged with the commit
// snapshot its ingest returned. It shares no execution code with the
// engine (no Expr, no aggregation operator, no hash tables of the
// pipeline), so an engine bug cannot cancel itself out.
//
// Results compare in a canonical form: one string per row, cells typed
// ("i:" integer, "s:" string, "d:" non-integral double, "n" null) and
// joined by '\x1f', rows sorted. A run keeps only a fixed-size
// fingerprint of each engine result, so the memory it holds does not
// grow with the number of results and peak_rss_mb reads the engine's.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/result_set.h"
#include "ssb_queries.h"
#include "storage/table.h"

namespace perfbench {

using Canonical = std::vector<std::string>;

/// Canonical form of an engine result.
Canonical Canonicalize(const cjoin::ResultSet& rs);

/// Row count and 64-bit FNV-1a hash of a canonical result.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(const Canonical& c);

/// "" when `actual` is the fingerprint of `expected`; otherwise a
/// one-line description of the difference.
std::string Diff(const Canonical& expected, const Fingerprint& actual);

class Reference {
 public:
  /// Copies the first `base_rows` fact rows of `db` (the generated ones)
  /// and every dimension attribute.
  Reference(const cjoin::ssb::SsbDatabase& db, uint64_t base_rows);

  /// Adds an ingested row, visible from snapshot `commit` on.
  void AddRow(const FactRow& row, cjoin::SnapshotId commit);

  /// Sorts the rows by each foreign key, so Evaluate visits only the rows
  /// inside a query's narrowest key range. Call after the last AddRow;
  /// without it (or after a later AddRow) Evaluate scans every row.
  void Index();

  /// The result of `q` at `snapshot`. Thread-safe (const).
  Canonical Evaluate(const QueryDesc& q, cjoin::SnapshotId snapshot) const;

 private:
  /// Interned canonical cells of one dimension column, by dimension row.
  struct Attr {
    std::vector<uint32_t> id_of_row;
    std::vector<std::string> cells;
  };

  void Append(const std::array<int32_t, kDims>& fks, int32_t revenue,
              int32_t supplycost, cjoin::SnapshotId xmin);
  const Attr& AttrFor(const GroupCol& g) const;

  std::array<std::unordered_map<int32_t, uint32_t>, kDims> row_of_key_;
  std::unordered_map<std::string, Attr> attrs_;  ///< by column name

  // Fact columns (struct of arrays).
  std::array<std::vector<int32_t>, kDims> fk_;
  std::array<std::vector<uint32_t>, kDims> dim_row_;
  std::vector<int32_t> revenue_, supplycost_;
  std::vector<cjoin::SnapshotId> xmin_;
  /// Row numbers ordered by fk_[d] (see Index).
  std::array<std::vector<uint32_t>, kDims> by_key_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
