// Self-test of the benchmark's result checker: correct engine results
// pass, and every kind of corrupted result is caught.
//
// Runs a few queries (roll-ups among them) on a small SSB database
// through QueryEngine (both routes), with rows ingested between them,
// then checks that
//   * every real result equals the reference at its snapshot, and
//   * a changed aggregate, a changed group key, a dropped row, a
//     duplicated row, an emptied result, and a result checked at the
//     wrong snapshot each produce a mismatch.
// Exit status 0 on success.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "reference.h"
#include "ssb/generator.h"
#include "ssb_queries.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

struct Ran {
  perfbench::QueryDesc desc;
  cjoin::ResultSet result;
  cjoin::SnapshotId snapshot = 0;
};

}  // namespace

int main() {
  using namespace perfbench;
  cjoin::ssb::GenOptions go;
  go.scale_factor = 0.002;
  go.seed = 5;
  auto db = cjoin::ssb::Generate(go);
  if (!db.ok()) return 2;
  const cjoin::StarSchema& star = *(*db)->star;
  const uint64_t base_rows = (*db)->lineorder->NumRows();
  Generator gen(**db);
  cjoin::QueryEngine engine;
  if (!engine.RegisterStar("ssb", star).ok()) return 2;

  cjoin::Rng rng(11);
  std::vector<Ran> ran;
  std::vector<std::pair<FactRow, cjoin::SnapshotId>> ingested;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 6; ++i) {
      Ran r;
      r.desc = gen.Query(rng, 0.5, ran.size(), /*rollup=*/i == 5);
      cjoin::QueryRequest req = cjoin::QueryRequest::FromSpec(r.desc.spec);
      req.policy = i % 2 ? cjoin::RoutePolicy::kBaseline
                         : cjoin::RoutePolicy::kCJoin;
      auto ticket = engine.Execute(std::move(req));
      if (!ticket.ok()) return 2;
      auto rs = (*ticket)->Wait();
      if (!rs.ok()) {
        std::printf("query failed: %s\n", rs.status().ToString().c_str());
        return 2;
      }
      r.result = std::move(rs).value();
      r.snapshot = (*ticket)->snapshot();
      ran.push_back(std::move(r));
    }
    // Rows visible to every later query; with ranges of half of each
    // dimension, most later results include some of them.
    std::vector<std::vector<uint8_t>> payloads;
    std::vector<FactRow> rows;
    for (int k = 0; k < 50; ++k) {
      rows.push_back(gen.Row(rng));
      payloads.push_back(rows.back().payload);
    }
    auto commit = engine.AppendFacts("ssb", payloads);
    if (!commit.ok()) return 2;
    for (FactRow& row : rows) ingested.emplace_back(std::move(row), *commit);
  }
  engine.Shutdown(std::chrono::seconds(5));

  Reference ref(**db, base_rows);
  Reference scan_ref(**db, base_rows);  // unindexed: scans every row
  for (const auto& [row, commit] : ingested) {
    ref.AddRow(row, commit);
    scan_ref.AddRow(row, commit);
  }
  ref.Index();

  auto check = [&](const Ran& r, const cjoin::ResultSet& rs,
                   cjoin::SnapshotId snap) {
    return Diff(ref.Evaluate(r.desc, snap), FingerprintOf(Canonicalize(rs)));
  };

  size_t same = 0;
  for (const Ran& r : ran) {
    same += ref.Evaluate(r.desc, r.snapshot) ==
            scan_ref.Evaluate(r.desc, r.snapshot);
  }
  Expect(same == ran.size(), "indexed and full-scan reference agree");

  size_t clean = 0;
  for (const Ran& r : ran) clean += check(r, r.result, r.snapshot).empty();
  Expect(clean == ran.size(), "all " + std::to_string(ran.size()) +
                                  " engine results match the reference");

  // Corruptions, applied to the first result with at least two rows.
  const Ran* victim = nullptr;
  for (const Ran& r : ran) {
    if (r.result.rows.size() >= 2) {
      victim = &r;
      break;
    }
  }
  Expect(victim != nullptr, "a result with >= 2 rows exists");
  if (victim == nullptr) return 1;

  struct Corruption {
    const char* name;
    std::function<void(cjoin::ResultSet&)> apply;
  };
  const std::vector<Corruption> corruptions = {
      {"aggregate off by one",
       [](cjoin::ResultSet& rs) {
         cjoin::Value& v = rs.rows[0].back();
         v = cjoin::Value(v.AsInt() + 1);
       }},
      {"group key changed",
       [](cjoin::ResultSet& rs) {
         cjoin::Value& v = rs.rows[0][0];
         v = v.is_int() ? cjoin::Value(v.AsInt() + 100)
                        : cjoin::Value(v.AsString() + "x");
       }},
      {"row dropped", [](cjoin::ResultSet& rs) { rs.rows.pop_back(); }},
      {"row duplicated",
       [](cjoin::ResultSet& rs) { rs.rows.push_back(rs.rows[0]); }},
      {"all rows dropped", [](cjoin::ResultSet& rs) { rs.rows.clear(); }},
  };
  for (const Corruption& c : corruptions) {
    cjoin::ResultSet bad = victim->result;
    c.apply(bad);
    const std::string diff = check(*victim, bad, victim->snapshot);
    Expect(!diff.empty(), std::string("caught: ") + c.name + " (" + diff + ")");
  }

  // A result checked at a snapshot other than the one it read: every
  // query after the first ingest read ingested rows that snapshot 0
  // does not see.
  size_t caught = 0, tried = 0;
  for (const Ran& r : ran) {
    if (r.snapshot <= 1 || r.result.rows.empty()) continue;
    ++tried;
    caught += !check(r, r.result, 0).empty();
  }
  Expect(tried > 0 && caught == tried,
         "caught: wrong snapshot (" + std::to_string(caught) + "/" +
             std::to_string(tried) + ")");

  std::printf("%s\n", failures == 0 ? "selftest OK" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
