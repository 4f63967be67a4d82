#include "driver/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "catalog/catalog.h"
#include "core/maxson.h"
#include "core/scoring.h"
#include "driver/checks.h"
#include "driver/spans.h"
#include "engine/fingerprint.h"
#include "json/dom_parser.h"
#include "json/json_path.h"
#include "json/ondemand_parser.h"
#include "obs/metrics_registry.h"
#include "serve/server.h"
#include "storage/corc_format.h"
#include "storage/corc_reader.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"
#include "workload/query_templates.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using maxson::core::MaxsonSession;
using maxson::engine::QueryMetrics;
using maxson::storage::RecordBatch;
using Scope = SpanRecorder::Scope;

// History: every query of the day runs twice a day for two weeks; the
// predictor trains on target days 8..13 and the cycle under test caches
// for day 14.
constexpr int kHistoryDays = 14;
constexpr int kRunsPerDay = 2;
constexpr maxson::DateId kTrainFirst = 8;
constexpr maxson::DateId kTrainLast = 13;
constexpr maxson::DateId kTargetDay = 14;
constexpr int kPredictorEpochs = 6;
// midnight_s is the median of this many back-to-back cycles for day 14.
constexpr int kMidnightRepeats = 3;
// Larger than the estimated footprint of every predicted path together, so
// the selection is the whole prediction (the paper's 400 GB point). Below
// the full footprint the selection depends on sampled parse times and is
// not reproducible between runs.
constexpr uint64_t kFullBudget = 4ull << 30;
// Every table is cut into this many splits (one file each), one per core
// of the reference machine, so scans and the pre-parse can use every core.
constexpr uint64_t kSplitsPerTable = 4;
// Tables are sized by the Table II suite's own rule, as in
// bench/fig11_cache_sweep: about this much JSON each, within these row
// limits (large documents hit the floor), in the generator's row groups.
constexpr uint64_t kTableBytes = 4ull << 20;
constexpr uint64_t kMinRows = 2000;
constexpr uint64_t kMaxRows = 20000;
constexpr uint32_t kRowsPerGroup = 1000;
// The Fig. 3 table's documents; its rows follow the same rule.
constexpr int kFig3JsonBytes = 800;
// serve_mix's timed phase attempts at least this many requests, so its p95
// has ten samples beyond it.
constexpr size_t kMinRequests = 200;
// A day workload's timed phase makes at least this many passes, so
// day_wall_s is a median.
constexpr int kMinPasses = 3;
// The self-test's tiny tables.
constexpr uint64_t kTinyTableBytes = 24ull << 10;
constexpr uint64_t kTinyMinRows = 48;

const char* const kOperators[] = {"Scan", "HashJoin", "Filter",
                                  "Aggregate", "Sort", "Project"};
const char* const kLayers[] = {"bench",  "workload", "ml",      "core",
                               "engine", "serve",    "storage", "json"};

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Failed checks; keeps the first few messages.
class Errors {
 public:
  void Add(const std::string& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (messages_.size() < 8) messages_.push_back(message);
    ++count_;
  }
  size_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return messages_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;
  size_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Inputs

/// The generated tables and the queries over them.
struct Workspace {
  std::string root;
  maxson::catalog::Catalog catalog;
  std::vector<BenchQuery> queries;  // the day's queries (or dashboards)
  /// JSONPaths each query parses, recorded as history.
  std::vector<std::vector<maxson::workload::JsonPathLocation>> query_paths;
  /// Raw table directories and the day's paths per table (db.table).
  std::map<std::string, std::string> table_dirs;
  std::map<std::string, uint64_t> table_rows;
  std::map<std::string, uint64_t> table_json_bytes;
  std::map<std::string, std::set<std::string>> table_paths;
};

/// The literal of a query's last `get_json_object(...) > N` predicate.
int64_t ParseBound(const std::string& sql) {
  const std::string op = ") > ";
  const size_t at = sql.rfind(op);
  if (at == std::string::npos) return -1;
  return std::strtoll(sql.c_str() + at + op.size(), nullptr, 10);
}

/// Sets a Table II table's row count and rewrites the bound literal its
/// query derives from the row count (Q2: rows*3/4, Q9: rows*9/10).
bool ResizeTableII(maxson::workload::BenchmarkQuery* q, uint64_t rows) {
  const uint64_t old_rows = q->table_spec.rows;
  q->table_spec.rows = rows;
  std::string from;
  std::string to;
  if (q->name == "Q2") {
    from = "> " + std::to_string(old_rows * 3 / 4);
    to = "> " + std::to_string(rows * 3 / 4);
  } else if (q->name == "Q9") {
    from = "> " + std::to_string(old_rows * 9 / 10);
    to = "> " + std::to_string(rows * 9 / 10);
  } else {
    return true;
  }
  const size_t at = q->sql.find(from);
  if (at == std::string::npos ||
      q->sql.find(from, at + 1) != std::string::npos) {
    return false;
  }
  q->sql.replace(at, from.size(), to);
  return true;
}

void SetSplits(maxson::workload::JsonTableSpec* spec) {
  spec->rows_per_file = std::max<uint64_t>(
      1, (spec->rows + kSplitsPerTable - 1) / kSplitsPerTable);
  spec->rows_per_group = kRowsPerGroup;
}

/// Rows of a table whose documents average `avg_json_bytes`.
uint64_t TableRows(const Options& opt, int avg_json_bytes) {
  const uint64_t table_bytes = opt.tiny ? kTinyTableBytes : kTableBytes;
  const uint64_t min_rows = opt.tiny ? kTinyMinRows : kMinRows;
  return std::clamp<uint64_t>(
      table_bytes / static_cast<uint64_t>(std::max(1, avg_json_bytes)),
      min_rows, kMaxRows);
}

maxson::workload::JsonPathLocation Location(const std::string& table,
                                            const std::string& path) {
  maxson::workload::JsonPathLocation loc;
  loc.database = "bench";
  loc.table = table;
  loc.column = "payload";
  loc.path = path;
  return loc;
}

/// Generates the Table II tables whose query is in `table_ii` (and the
/// Fig. 3 table when `fig3`), registers them, and fills ws->queries with
/// the queries listed in `day` (Table II names and F1..F3).
bool BuildTables(const Options& opt, const std::set<std::string>& table_ii,
                 bool fig3, const std::vector<std::string>& day,
                 Workspace* ws, Errors* errors) {
  maxson::workload::BenchmarkSuiteOptions suite;
  suite.seed = opt.seed;
  const std::string warehouse = ws->root + "/warehouse";
  std::map<std::string, BenchQuery> by_name;
  std::map<std::string, std::vector<maxson::workload::JsonPathLocation>>
      paths_by_name;
  for (maxson::workload::BenchmarkQuery& q :
       maxson::workload::MakeTableIIQueries(suite)) {
    if (table_ii.count(q.name) == 0) continue;
    if (!ResizeTableII(&q, TableRows(opt, q.table_spec.avg_json_bytes))) {
      errors->Add(q.name + ": cannot resize its table");
      return false;
    }
    SetSplits(&q.table_spec);
    auto table = maxson::workload::GenerateJsonTable(
        q.table_spec, warehouse, suite.date_days, &ws->catalog);
    if (!table.ok()) {
      errors->Add(table.status().ToString());
      return false;
    }
    BenchQuery b;
    b.name = q.name;
    b.sql = q.sql;
    b.table = q.table_spec.database + "." + q.table_spec.table;
    b.table_rows = q.table_spec.rows;
    for (const auto& loc : q.paths) b.column_paths.push_back(loc.path);
    if (q.name == "Q1") {
      b.check = CheckKind::kTopTen;
    } else if (q.name == "Q2") {
      b.check = CheckKind::kCategorySum;
      b.bound = ParseBound(q.sql);
    } else if (q.name == "Q9") {
      b.check = CheckKind::kIdsAbove;
      b.bound = ParseBound(q.sql);
    } else {
      b.check = CheckKind::kWindow;
    }
    ws->table_dirs[b.table] = table->location;
    ws->table_rows[b.table] = b.table_rows;
    ws->table_json_bytes[b.table] = table->total_json_bytes;
    by_name[b.name] = b;
    paths_by_name[b.name] = q.paths;
  }
  if (fig3) {
    // The Fig. 3 Nobench-style table behind the select, group-by and
    // self-join queries F1..F3.
    maxson::workload::JsonTableSpec spec;
    spec.database = "bench";
    spec.table = "F";
    spec.num_properties = 20;
    spec.avg_json_bytes = kFig3JsonBytes;
    spec.rows = TableRows(opt, kFig3JsonBytes);
    spec.seed = opt.seed * 1000 + 3;
    SetSplits(&spec);
    auto table = maxson::workload::GenerateJsonTable(spec, warehouse, 3,
                                                     &ws->catalog);
    if (!table.ok()) {
      errors->Add(table.status().ToString());
      return false;
    }
    ws->table_dirs["bench.F"] = table->location;
    ws->table_rows["bench.F"] = spec.rows;
    ws->table_json_bytes["bench.F"] = table->total_json_bytes;
    BenchQuery f1;
    f1.name = "F1";
    f1.sql =
        "SELECT id, get_json_object(payload, '$.f1') AS a, "
        "get_json_object(payload, '$.f2') AS b FROM bench.F";
    f1.check = CheckKind::kSelectAll;
    f1.column_paths = {"$.f1", "$.f2"};
    BenchQuery f2;
    f2.name = "F2";
    f2.sql =
        "SELECT get_json_object(payload, '$.f1') AS k, COUNT(*) AS n "
        "FROM bench.F GROUP BY get_json_object(payload, '$.f1')";
    f2.check = CheckKind::kGroupCount;
    BenchQuery f3;
    f3.name = "F3";
    f3.bound = static_cast<int64_t>(spec.rows / 10);
    f3.sql =
        "SELECT a.id FROM bench.F a JOIN bench.F b ON "
        "get_json_object(a.payload, '$.f0') = "
        "get_json_object(b.payload, '$.f0') "
        "WHERE to_int(get_json_object(a.payload, '$.f0')) < " +
        std::to_string(f3.bound);
    f3.check = CheckKind::kJoinBelow;
    for (BenchQuery* f : {&f1, &f2, &f3}) {
      f->table = "bench.F";
      f->table_rows = spec.rows;
    }
    by_name["F1"] = f1;
    by_name["F2"] = f2;
    by_name["F3"] = f3;
    paths_by_name["F1"] = {Location("F", "$.f1"), Location("F", "$.f2")};
    paths_by_name["F2"] = {Location("F", "$.f1")};
    paths_by_name["F3"] = {Location("F", "$.f0")};
  }
  for (const std::string& name : day) {
    ws->queries.push_back(by_name.at(name));
    ws->query_paths.push_back(paths_by_name.at(name));
    for (const auto& loc : paths_by_name.at(name)) {
      ws->table_paths["bench." + loc.table].insert(loc.path);
    }
  }
  return true;
}

/// Records every query in `queries` kRunsPerDay times on each history day.
void RecordHistory(
    MaxsonSession* session,
    const std::vector<std::vector<maxson::workload::JsonPathLocation>>&
        queries) {
  int64_t id = 0;
  for (int day = 0; day < kHistoryDays; ++day) {
    for (size_t q = 0; q < queries.size(); ++q) {
      for (int rep = 0; rep < kRunsPerDay; ++rep) {
        maxson::workload::QueryRecord record;
        record.query_id = id++;
        record.date = day;
        record.hour = 9 + 6 * rep;
        record.template_id = static_cast<int>(q);
        record.recurrence = maxson::workload::Recurrence::kDaily;
        record.paths = queries[q];
        session->RecordQuery(record);
      }
    }
  }
}

std::unique_ptr<MaxsonSession> MakeSession(Workspace* ws,
                                           maxson::obs::MetricsRegistry* reg,
                                           size_t threads,
                                           const std::string& cache_dir) {
  maxson::core::MaxsonConfig config;
  config.cache_root = ws->root + "/" + cache_dir;
  config.cache_budget_bytes = kFullBudget;
  config.engine.default_database = "bench";
  config.engine.num_threads = threads;
  config.predictor.epochs = kPredictorEpochs;
  config.metrics = reg;
  return std::make_unique<MaxsonSession>(&ws->catalog, config);
}

// ---------------------------------------------------------------------------
// Measurements

/// Engine counters of one pass (or one serving round), summed over its
/// queries.
struct PassSums {
  double read_cpu = 0;
  double parse_cpu = 0;
  double compute_cpu = 0;
  std::map<std::string, double> op_wall;
  double rows_read = 0;
  double bytes_read = 0;
  double row_groups_skipped = 0;
  double records_parsed = 0;
  double bytes_parsed = 0;
  uint64_t path_hits = 0;
  uint64_t path_refs = 0;

  void Add(const QueryMetrics& m) {
    read_cpu += m.read_seconds;
    parse_cpu += m.parse_seconds;
    compute_cpu += m.compute_seconds;
    for (const auto& op : m.operators) op_wall[op.name] += op.wall_seconds;
    rows_read += static_cast<double>(m.read.rows_read);
    bytes_read += static_cast<double>(m.read.bytes_read);
    row_groups_skipped += static_cast<double>(m.read.row_groups_skipped);
    records_parsed += static_cast<double>(m.parse.records_parsed);
    bytes_parsed += static_cast<double>(m.parse.bytes_parsed);
    path_hits += m.plan_cache_hits;
    path_refs += m.plan_cache_hits + m.plan_cache_misses +
                 m.plan_cache_fallbacks;
  }

  void Merge(const PassSums& o) {
    read_cpu += o.read_cpu;
    parse_cpu += o.parse_cpu;
    compute_cpu += o.compute_cpu;
    for (const auto& [name, wall] : o.op_wall) op_wall[name] += wall;
    rows_read += o.rows_read;
    bytes_read += o.bytes_read;
    row_groups_skipped += o.row_groups_skipped;
    records_parsed += o.records_parsed;
    bytes_parsed += o.bytes_parsed;
    path_hits += o.path_hits;
    path_refs += o.path_refs;
  }
};

/// Everything the timed phase measured.
struct Timed {
  std::vector<double> pass_walls;
  std::vector<double> pass_rates;  // completed operations per second
  std::vector<double> latencies_ms;  // one per completed query / request
  std::vector<PassSums> passes;
  std::map<std::string, std::vector<double>> query_ms;  // by query name
  std::vector<double> plan_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
};

struct MidnightOutcome {
  double wall_s = 0;
  double predict_s = 0;
  double score_s = 0;
  double preparse_s = 0;
  double preparse_cpu_s = 0;
  size_t predicted = 0;
  maxson::core::CachingStats caching;
  uint64_t cache_bytes = 0;
};

/// One midnight cycle for kTargetDay. Untraced it is RunMidnightCycle;
/// traced, the same steps are called one by one so each gets its span.
bool RunOneMidnight(MaxsonSession* session, SpanRecorder* spans,
                    MidnightOutcome* out, Errors* errors) {
  Scope cycle(spans, "core", "midnight", 0);
  const Clock::time_point start = Clock::now();
  if (!spans->enabled()) {
    auto report = session->RunMidnightCycle(kTargetDay);
    out->wall_s = Since(start);
    if (!report.ok()) {
      errors->Add("midnight: " + report.status().ToString());
      return false;
    }
    out->predicted = report->predicted_mpjps.size();
    out->caching = report->caching;
    return true;
  }
  std::vector<std::string> predicted;
  {
    Scope s(spans, "core", "PredictMpjps", 0);
    const Clock::time_point t = Clock::now();
    predicted = session->PredictMpjps(kTargetDay);
    out->predict_s = Since(t);
  }
  std::vector<maxson::core::ScoredMpjp> scored;
  {
    Scope s(spans, "core", "ScoreCandidates", 0);
    const Clock::time_point t = Clock::now();
    auto scored_or = session->ScoreCandidates(predicted, kTargetDay);
    out->score_s = Since(t);
    if (!scored_or.ok()) {
      errors->Add("scoring: " + scored_or.status().ToString());
      return false;
    }
    scored = std::move(*scored_or);
  }
  const auto selected =
      maxson::core::SelectWithinBudget(std::move(scored), kFullBudget);
  {
    Scope s(spans, "core", "CacheSelected", 0);
    const Clock::time_point t = Clock::now();
    auto caching = session->CacheSelected(selected, kTargetDay);
    out->preparse_s = Since(t);
    if (!caching.ok()) {
      errors->Add("caching: " + caching.status().ToString());
      return false;
    }
    out->caching = *caching;
  }
  out->wall_s = Since(start);
  out->predicted = predicted.size();
  return true;
}

/// `repeats` midnight cycles (each empties and re-populates the cache, the
/// same work every time); times are their medians, counts those of the
/// last, and cache_bytes the cache's size on disk after it.
bool RunMidnight(MaxsonSession* session, SpanRecorder* spans, int repeats,
                 MidnightOutcome* out, Errors* errors) {
  std::vector<double> wall, predict, score, preparse, preparse_cpu;
  for (int r = 0; r < repeats; ++r) {
    if (!RunOneMidnight(session, spans, out, errors)) return false;
    wall.push_back(out->wall_s);
    predict.push_back(out->predict_s);
    score.push_back(out->score_s);
    preparse.push_back(out->preparse_s);
    preparse_cpu.push_back(out->caching.parse_seconds);
  }
  out->wall_s = Median(wall);
  out->predict_s = Median(predict);
  out->score_s = Median(score);
  out->preparse_s = Median(preparse);
  out->preparse_cpu_s = Median(preparse_cpu);
  auto bytes = maxson::storage::FileSystem::DirectorySize(
      session->config().cache_root);
  if (!bytes.ok()) {
    errors->Add("cache size: " + bytes.status().ToString());
    return false;
  }
  out->cache_bytes = *bytes;
  return true;
}

/// The property Maxson promises once every path of the day is cached: no
/// raw record is parsed and every path reference is served from the cache.
std::string CheckAllCached(const PassSums& pass) {
  if (pass.records_parsed != 0) {
    return "cached day parsed " +
           std::to_string(static_cast<uint64_t>(pass.records_parsed)) +
           " raw records";
  }
  if (pass.path_refs == 0 || pass.path_hits != pass.path_refs) {
    return "cached day served " + std::to_string(pass.path_hits) + " of " +
           std::to_string(pass.path_refs) + " path references from the cache";
  }
  return "";
}

/// Fingerprints of the same SQL run with the rewrite off on one thread.
class Reference {
 public:
  explicit Reference(Workspace* ws)
      : session_(MakeSession(ws, &registry_, 1, "refcache")) {}

  /// Returns false (and records why) when the reference run fails.
  bool Hash(const std::string& sql, uint64_t* hash, RecordBatch* batch,
            Errors* errors) {
    auto it = memo_.find(sql);
    if (it == memo_.end() || batch != nullptr) {
      auto result = session_->ExecuteWithoutCache(sql);
      if (!result.ok()) {
        errors->Add("reference run failed: " + result.status().ToString());
        return false;
      }
      it = memo_.emplace(sql, maxson::engine::FingerprintHash(result->batch))
               .first;
      if (batch != nullptr) *batch = std::move(result->batch);
    }
    *hash = it->second;
    return true;
  }

 private:
  maxson::obs::MetricsRegistry registry_;
  std::unique_ptr<MaxsonSession> session_;
  std::map<std::string, uint64_t> memo_;
};

/// Passes over ws->queries, one query after another, until `seconds` have
/// elapsed (at least one pass): through the Maxson rewrite when `cached`,
/// else with it off (ExecuteWithoutCache, the Fig. 11 "no cache" baseline).
/// Every result is checked against its closed form, and its fingerprint is
/// kept per query.
void RunDayPasses(const Options& opt, Workspace* ws, MaxsonSession* session,
                  SpanRecorder* spans, bool cached, Timed* timed,
                  std::vector<std::set<uint64_t>>* hashes,
                  RunResult* result, Errors* errors) {
  const Clock::time_point phase_start = Clock::now();
  hashes->assign(ws->queries.size(), {});
  int pass_index = 0;
  while (pass_index == 0 || Since(phase_start) < opt.seconds ||
         (!opt.tiny && pass_index < kMinPasses)) {
    Scope pass_span(spans, "bench", "pass " + std::to_string(pass_index), 0);
    PassSums sums;
    double pass_wall = 0;
    const size_t completed_before = timed->latencies_ms.size();
    for (size_t i = 0; i < ws->queries.size(); ++i) {
      const BenchQuery& q = ws->queries[i];
      ++result->attempted;
      Clock::time_point t;
      maxson::Result<maxson::engine::QueryResult> r =
          maxson::Status::Internal("not run");
      {
        Scope s(spans, "engine", "Execute " + q.name, 0);
        t = Clock::now();
        r = cached ? session->Execute(q.sql)
                   : session->ExecuteWithoutCache(q.sql);
      }
      const double wall = Since(t);
      if (!r.ok()) {
        ++result->failed;
        errors->Add(q.name + " failed: " + r.status().ToString());
        continue;
      }
      pass_wall += wall;
      timed->latencies_ms.push_back(wall * 1e3);
      timed->query_ms[q.name].push_back(wall * 1e3);
      sums.Add(r->metrics);
      if (std::string e = CheckClosedForm(q, r->batch); !e.empty()) {
        errors->Add(e);
      }
      (*hashes)[i].insert(maxson::engine::FingerprintHash(r->batch));
    }
    if (cached) {
      if (std::string e = CheckAllCached(sums); !e.empty()) errors->Add(e);
    }
    if (spans->enabled()) {
      for (const BenchQuery& q : ws->queries) {
        Scope s(spans, "engine", "Plan " + q.name, 0);
        const Clock::time_point t = Clock::now();
        auto plan =
            cached ? session->Plan(q.sql) : session->PlanWithoutCache(q.sql);
        timed->plan_ms.push_back(Since(t) * 1e3);
        if (!plan.ok()) errors->Add(q.name + " plan failed");
      }
    }
    timed->pass_walls.push_back(pass_wall);
    timed->pass_rates.push_back(
        pass_wall > 0 ? static_cast<double>(timed->latencies_ms.size() -
                                            completed_before) /
                            pass_wall
                      : 0);
    timed->passes.push_back(std::move(sums));
    ++pass_index;
  }
}

/// Compares every kept fingerprint with the reference run of its SQL.
/// The first cell where `got` and `want` differ, for the error message.
std::string FirstDifference(const RecordBatch& got, const RecordBatch& want) {
  if (got.num_rows() != want.num_rows() ||
      got.num_columns() != want.num_columns()) {
    return std::to_string(got.num_rows()) + " rows instead of " +
           std::to_string(want.num_rows());
  }
  for (size_t r = 0; r < got.num_rows(); ++r) {
    for (size_t c = 0; c < got.num_columns(); ++c) {
      const std::string a = got.column(c).GetValue(r).ToString();
      const std::string b = want.column(c).GetValue(r).ToString();
      if (a != b) {
        return "row " + std::to_string(r) + " column " +
               got.schema().field(c).name + " is '" + a + "' instead of '" +
               b + "'";
      }
    }
  }
  return "same cells, different types";
}

/// Compares every kept fingerprint with the reference run of its SQL.
void CheckAgainstReference(Workspace* ws, MaxsonSession* session,
                           const std::vector<std::set<uint64_t>>& hashes,
                           Reference* ref, Errors* errors) {
  for (size_t i = 0; i < ws->queries.size(); ++i) {
    const BenchQuery& q = ws->queries[i];
    uint64_t want = 0;
    RecordBatch want_batch;
    if (!ref->Hash(q.sql, &want, &want_batch, errors)) continue;
    for (uint64_t got : hashes[i]) {
      if (got == want) continue;
      auto again = session->Execute(q.sql);
      errors->Add(q.name +
                  ": result differs from the uncached single-thread run: " +
                  (again.ok() ? FirstDifference(again->batch, want_batch)
                              : again.status().ToString()));
    }
  }
}

// ---------------------------------------------------------------------------
// serve_mix

/// Ad-hoc templates over tables outside the history, so they parse raw
/// JSON; every request carries its own literal, so each misses the result
/// cache. `fraction` in [0, 1) sets the literal (and so the selectivity).
/// T7 and T8 are the hot tables.
std::string AdHocSql(int kind, double fraction, uint64_t t6_rows) {
  switch (kind) {
    case 0:
      return "SELECT get_json_object(payload, '$.f1') AS c, COUNT(*) AS n "
             "FROM bench.T7 WHERE to_int(get_json_object(payload, '$.f2')) < " +
             std::to_string(1 + static_cast<uint64_t>(fraction * 999)) +
             " GROUP BY get_json_object(payload, '$.f1')";
    case 1:
      return "SELECT id, get_json_object(payload, '$.f3') AS v FROM bench.T8 "
             "WHERE to_int(get_json_object(payload, '$.f2')) = " +
             std::to_string(static_cast<uint64_t>(fraction * 1000));
    default:
      return "SELECT COUNT(*) AS n FROM bench.T6 WHERE "
             "to_int(get_json_object(payload, '$.f0')) > " +
             std::to_string(static_cast<uint64_t>(
                 fraction * static_cast<double>(t6_rows)));
  }
}

// One client's requests per round: each dashboard query (exact SQL, so all
// but the first of each per round are result-cache hits) this many times,
// then ad-hoc requests by template: T7, T8 (the hot tables), T6.
constexpr int kDashboardRepeats[] = {4, 3, 3};  // Q1, Q2, Q5
constexpr int kAdHocPerClient[] = {8, 8, 4};

/// The fixed request schedule of serve_mix: per client, the same mix in a
/// seeded order. Ad-hoc literals are stratified over their range with a
/// seeded offset, so every seed asks for the same amount of work.
std::vector<std::vector<size_t>> BuildSchedule(
    const Workspace& ws, uint64_t seed, size_t clients,
    std::vector<std::string>* sqls) {
  uint64_t rng = seed * 7919 + 17;
  std::map<std::string, size_t> ids;
  auto id_of = [&](const std::string& sql) {
    auto [it, inserted] = ids.emplace(sql, sqls->size());
    if (inserted) sqls->push_back(sql);
    return it->second;
  };
  std::vector<std::vector<size_t>> sequences(clients);
  for (size_t d = 0; d < ws.queries.size(); ++d) {
    for (size_t c = 0; c < clients; ++c) {
      for (int i = 0; i < kDashboardRepeats[d]; ++i) {
        sequences[c].push_back(id_of(ws.queries[d].sql));
      }
    }
  }
  for (int kind = 0; kind < 3; ++kind) {
    const size_t total = clients * static_cast<size_t>(kAdHocPerClient[kind]);
    const double offset = static_cast<double>(SplitMix(&rng) >> 11) /
                          static_cast<double>(1ull << 53);
    for (size_t k = 0; k < total; ++k) {
      const double fraction =
          (static_cast<double>(k) + offset) / static_cast<double>(total);
      sequences[k % clients].push_back(
          id_of(AdHocSql(kind, fraction, ws.table_rows.at("bench.T6"))));
    }
  }
  for (std::vector<size_t>& seq : sequences) {
    for (size_t i = seq.size(); i > 1; --i) {
      std::swap(seq[i - 1], seq[SplitMix(&rng) % i]);
    }
  }
  return sequences;
}

struct ServeSample {
  double latency_ms = 0;
  bool hit = false;
  size_t sql_id = 0;
  uint64_t hash = 0;
};

/// Lets the coordinator start all clients on one round and wait for them.
class RoundGate {
 public:
  explicit RoundGate(size_t clients) : clients_(clients) {}
  /// Coordinator: starts the next round and waits until every client has
  /// finished it; with `go` false, tells the clients to stop instead.
  void RunRound(bool go) {
    std::unique_lock<std::mutex> lock(mutex_);
    go_ = go;
    ++round_;
    done_ = 0;
    cv_.notify_all();
    while (go && done_ < clients_) cv_.wait(lock);
  }
  /// Client: waits for the round after `seen`; returns false to stop.
  bool Wait(uint64_t* seen) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (round_ == *seen) cv_.wait(lock);
    *seen = round_;
    return go_;
  }
  void Done() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  const size_t clients_;
  uint64_t round_ = 0;
  size_t done_ = 0;
  bool go_ = true;
};

void RunServeRounds(const Options& opt, maxson::serve::MaxsonServer* server,
                    const std::vector<std::string>& sqls,
                    const std::vector<std::vector<size_t>>& sequences,
                    SpanRecorder* spans, Timed* timed,
                    std::vector<ServeSample>* samples, RunResult* result,
                    Errors* errors) {
  const size_t clients = sequences.size();
  RoundGate gate(clients);
  std::vector<std::vector<ServeSample>> per_client(clients);
  std::vector<PassSums> round_sums(clients);
  std::vector<uint64_t> failed(clients, 0);
  std::mutex round_span_mutex;
  int64_t round_span = 0;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      maxson::serve::ClientSession client =
          server->Connect("client" + std::to_string(c));
      uint64_t seen = 0;
      while (gate.Wait(&seen)) {
        int64_t parent = 0;
        {
          std::lock_guard<std::mutex> lock(round_span_mutex);
          parent = round_span;
        }
        for (size_t sql_id : sequences[c]) {
          Clock::time_point t;
          maxson::Result<maxson::serve::ClientSession::Outcome> r =
              maxson::Status::Internal("not run");
          {
            Scope s(spans, "serve", "ClientSession::Execute", parent);
            t = Clock::now();
            r = client.Execute(sqls[sql_id]);
          }
          const double wall = Since(t);
          if (!r.ok()) {
            ++failed[c];
            errors->Add("request failed: " + r.status().ToString());
            continue;
          }
          ServeSample sample;
          sample.latency_ms = wall * 1e3;
          sample.hit = r->result_cache_hit;
          sample.sql_id = sql_id;
          sample.hash = maxson::engine::FingerprintHash(r->result.batch);
          per_client[c].push_back(sample);
          if (!sample.hit) round_sums[c].Add(r->result.metrics);
        }
        gate.Done();
      }
    });
  }
  const Clock::time_point phase_start = Clock::now();
  int round = 0;
  size_t attempted = 0;
  std::vector<size_t> completed_before(clients, 0);
  while (round == 0 || Since(phase_start) < opt.seconds ||
         (!opt.tiny && attempted < kMinRequests)) {
    // Each round is one day of the request schedule; it starts with an
    // empty result cache, as after a midnight cycle.
    server->InvalidateResultCache();
    Scope s(spans, "bench", "round " + std::to_string(round), 0);
    {
      std::lock_guard<std::mutex> lock(round_span_mutex);
      round_span = s.id();
    }
    const Clock::time_point t = Clock::now();
    gate.RunRound(true);
    const double wall = Since(t);
    timed->pass_walls.push_back(wall);
    size_t completed = 0;
    for (size_t c = 0; c < clients; ++c) {
      completed += per_client[c].size() - completed_before[c];
      completed_before[c] = per_client[c].size();
    }
    timed->pass_rates.push_back(
        wall > 0 ? static_cast<double>(completed) / wall : 0);
    PassSums sums;
    for (PassSums& part : round_sums) {
      sums.Merge(part);
      part = PassSums();
    }
    timed->passes.push_back(std::move(sums));
    for (const auto& c : sequences) attempted += c.size();
    ++round;
  }
  gate.RunRound(false);
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < clients; ++c) {
    result->attempted += per_client[c].size() + failed[c];
    result->failed += failed[c];
    for (const ServeSample& s : per_client[c]) {
      samples->push_back(s);
      timed->latencies_ms.push_back(s.latency_ms);
      (s.hit ? timed->hit_ms : timed->miss_ms).push_back(s.latency_ms);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-layer measurements outside the engine (traced runs only)

/// Reads every record of the payload column of `dir`'s first split.
std::vector<std::string> FirstSplitRecords(const std::string& dir,
                                           Errors* errors) {
  std::vector<std::string> records;
  auto splits = maxson::storage::FileSystem::ListSplits(dir);
  if (!splits.ok() || splits->empty()) {
    errors->Add("no splits under " + dir);
    return records;
  }
  maxson::storage::CorcReader reader((*splits)[0].path);
  if (!reader.Open().ok()) {
    errors->Add("cannot open " + (*splits)[0].path);
    return records;
  }
  const int col = reader.schema().FindField("payload");
  for (size_t s = 0; s < reader.num_stripes() && col >= 0; ++s) {
    auto batch = reader.ReadStripe(s, {col}, std::nullopt, nullptr);
    if (!batch.ok()) {
      errors->Add("read failed: " + batch.status().ToString());
      break;
    }
    for (size_t r = 0; r < batch->num_rows(); ++r) {
      if (!batch->column(0).IsNull(r)) {
        records.push_back(batch->column(0).GetString(r));
      }
    }
  }
  return records;
}

/// Extracts the day's paths of each table from its first split's records
/// with the DOM tier (one parse per record, every path evaluated on it) and
/// the on-demand tier (one tape per record); the two must agree.
void MeasureJsonTiers(Workspace* ws, SpanRecorder* spans, double* dom_mbps,
                      double* ondemand_mbps, Errors* errors) {
  double bytes = 0;
  double dom_s = 0;
  double od_s = 0;
  for (const auto& [table, path_texts] : ws->table_paths) {
    const std::vector<std::string> records =
        FirstSplitRecords(ws->table_dirs[table], errors);
    std::vector<maxson::json::JsonPath> paths;
    for (const std::string& text : path_texts) {
      auto p = maxson::json::JsonPath::Parse(text);
      if (p.ok()) paths.push_back(*p);
    }
    std::vector<std::string> dom_values;
    std::vector<std::string> od_values;
    dom_values.reserve(records.size() * paths.size());
    od_values.reserve(records.size() * paths.size());
    for (const std::string& r : records) bytes += static_cast<double>(r.size());
    {
      Scope s(spans, "json", "DOM " + table, 0);
      const Clock::time_point t = Clock::now();
      for (const std::string& r : records) {
        auto dom = maxson::json::ParseJson(r);
        for (const auto& p : paths) {
          const maxson::json::JsonValue* node =
              dom.ok() ? p.Evaluate(*dom) : nullptr;
          dom_values.push_back(node == nullptr
                                   ? std::string("<none>")
                                   : maxson::json::RenderGetJsonObjectResult(
                                         *node));
        }
      }
      dom_s += Since(t);
    }
    {
      Scope s(spans, "json", "on-demand " + table, 0);
      maxson::json::OndemandParser parser;
      std::vector<maxson::Result<std::string>> out;
      const Clock::time_point t = Clock::now();
      for (const std::string& r : records) {
        out.clear();
        if (!parser.ExtractAll(r, paths, &out).ok()) {
          for (size_t i = 0; i < paths.size(); ++i) {
            od_values.push_back("<none>");
          }
          continue;
        }
        for (auto& v : out) {
          od_values.push_back(v.ok() ? std::move(*v) : std::string("<none>"));
        }
      }
      od_s += Since(t);
    }
    if (dom_values != od_values) {
      errors->Add(table + ": DOM and on-demand extraction disagree");
    }
  }
  *dom_mbps = dom_s > 0 ? bytes / 1e6 / dom_s : 0;
  *ondemand_mbps = od_s > 0 ? bytes / 1e6 / od_s : 0;
}

/// Reads the given columns of every stripe of every split under `dir`
/// through CorcReader; returns bytes read and adds the time to *seconds.
double ScanDir(const std::string& dir, const std::string& column,
               double* seconds, Errors* errors) {
  auto splits = maxson::storage::FileSystem::ListSplits(dir);
  if (!splits.ok()) {
    errors->Add("cannot list " + dir);
    return 0;
  }
  maxson::storage::ReadStats stats;
  const Clock::time_point t = Clock::now();
  for (const auto& split : *splits) {
    maxson::storage::CorcReader reader(split.path);
    if (!reader.Open().ok()) {
      errors->Add("cannot open " + split.path);
      continue;
    }
    std::vector<int> cols;
    for (size_t f = 0; f < reader.schema().num_fields(); ++f) {
      if (column.empty() || reader.schema().field(f).name == column) {
        cols.push_back(static_cast<int>(f));
      }
    }
    for (size_t s = 0; s < reader.num_stripes(); ++s) {
      if (!reader.ReadStripe(s, cols, std::nullopt, &stats).ok()) {
        errors->Add("read failed in " + split.path);
      }
    }
  }
  *seconds += Since(t);
  return static_cast<double>(stats.bytes_read);
}

void MeasureScans(Workspace* ws, const MaxsonSession& session,
                  SpanRecorder* spans, double* raw_mbps, double* cache_mbps,
                  Errors* errors) {
  double raw_bytes = 0;
  double raw_s = 0;
  {
    Scope s(spans, "storage", "CorcReader raw payload", 0);
    for (const auto& [table, dir] : ws->table_dirs) {
      raw_bytes += ScanDir(dir, "payload", &raw_s, errors);
    }
  }
  std::set<std::string> cache_dirs;
  for (const auto& entry : session.registry().Snapshot()) {
    cache_dirs.insert(entry.cache_table_dir);
  }
  double cache_bytes = 0;
  double cache_s = 0;
  {
    Scope s(spans, "storage", "CorcReader cache tables", 0);
    for (const std::string& dir : cache_dirs) {
      cache_bytes += ScanDir(dir, "", &cache_s, errors);
    }
  }
  *raw_mbps = raw_s > 0 ? raw_bytes / 1e6 / raw_s : 0;
  *cache_mbps = cache_s > 0 ? cache_bytes / 1e6 / cache_s : 0;
}

// ---------------------------------------------------------------------------
// Reporting

/// Median over passes of one per-pass sum.
double PassMedian(const std::vector<PassSums>& passes,
                  double PassSums::*field) {
  std::vector<double> values;
  for (const PassSums& p : passes) values.push_back(p.*field);
  return Median(values);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"raw_day", "cached_day",
                                                 "serve_mix"};
  return names;
}

RunResult RunWorkload(const Options& opt) {
  RunResult result;
  Errors errors;
  SpanRecorder spans(opt.trace);
  Workspace ws;
  ws.root = opt.work_dir;
  maxson::obs::MetricsRegistry registry;
  std::unique_ptr<MaxsonSession> session;
  const bool serve = opt.workload == "serve_mix";
  const bool cached = opt.workload == "cached_day";
  double train_s = 0;
  MidnightOutcome midnight;
  auto fail = [&](RunResult r) {
    r.correct = false;
    r.errors = errors.messages();
    return r;
  };

  // ---- Set-up: tables, history, training (and serve_mix's cycle) ----
  {
    Scope setup(&spans, "bench", "setup", 0);
    {
      Scope s(&spans, "workload", "generate tables", 0);
      bool ok = false;
      if (serve) {
        ok = BuildTables(opt, {"Q1", "Q2", "Q5", "Q6", "Q7", "Q8"}, false,
                         {"Q1", "Q2", "Q5"}, &ws, &errors);
        // The ad-hoc templates' tables are scanned too (json/storage
        // layer measurements cover them).
        ws.table_paths["bench.T6"].insert("$.f0");
        ws.table_paths["bench.T7"].insert({"$.f1", "$.f2"});
        ws.table_paths["bench.T8"].insert({"$.f2", "$.f3"});
      } else {
        ok = BuildTables(opt,
                         {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9",
                          "Q10"},
                         true,
                         {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9",
                          "Q10", "F1", "F2", "F3"},
                         &ws, &errors);
      }
      if (!ok) return fail(result);
    }
    session = MakeSession(&ws, &registry, 0, "cache");
    RecordHistory(session.get(), ws.query_paths);
    {
      Scope s(&spans, "ml", "TrainPredictor", 0);
      const Clock::time_point t = Clock::now();
      const maxson::Status st =
          session->TrainPredictor(kTrainFirst, kTrainLast);
      train_s = Since(t);
      if (!st.ok()) {
        errors.Add("training: " + st.ToString());
        return fail(result);
      }
    }
    if (serve && !RunMidnight(session.get(), &spans, 1, &midnight, &errors)) {
      return fail(result);
    }
  }
  const double setup_s = Since(opt.process_start);
  const std::string isa = session->stats().simd_isa;
  std::fprintf(stderr, "perfbench: %u cores, simd %s, %zu splits per table\n",
               std::thread::hardware_concurrency(), isa.c_str(),
               static_cast<size_t>(kSplitsPerTable));
  for (const auto& [table, rows] : ws.table_rows) {
    std::fprintf(stderr, "perfbench: %-9s %6llu rows, %9llu bytes of JSON\n",
                 table.c_str(), static_cast<unsigned long long>(rows),
                 static_cast<unsigned long long>(ws.table_json_bytes[table]));
  }

  // ---- Timed phase: cached_day's midnight cycles, then passes or rounds
  // ----
  if (cached && !RunMidnight(session.get(), &spans, kMidnightRepeats,
                             &midnight, &errors)) {
    return fail(result);
  }
  const maxson::core::SessionStats before = session->stats();
  Timed timed;
  std::vector<std::set<uint64_t>> hashes;
  std::vector<ServeSample> samples;
  std::vector<std::string> serve_sqls;
  std::unique_ptr<maxson::serve::MaxsonServer> server;
  size_t clients = 0;
  if (serve) {
    clients = std::max(1u, std::thread::hardware_concurrency());
    server = std::make_unique<maxson::serve::MaxsonServer>(
        session.get(), &ws.catalog, maxson::serve::ServeOptions{});
    // Each client has one request in flight; these limits never reject.
    maxson::serve::TenantLimits limits;
    limits.max_in_flight = 1;
    limits.max_queue = 1;
    for (size_t c = 0; c < clients; ++c) {
      server->SetTenantLimits("client" + std::to_string(c), limits);
    }
    const std::vector<std::vector<size_t>> sequences =
        BuildSchedule(ws, opt.seed, clients, &serve_sqls);
    RunServeRounds(opt, server.get(), serve_sqls, sequences, &spans, &timed,
                   &samples, &result, &errors);
  } else {
    RunDayPasses(opt, &ws, session.get(), &spans, cached, &timed, &hashes,
                 &result, &errors);
  }
  const double peak_rss = PeakRssMiB();
  const maxson::core::SessionStats after = session->stats();

  // ---- raw_day and serve_mix: the midnight cycles that close the day.
  // They run after the timed phase and after peak RSS is read, so they
  // touch none of the day's figures; they give these workloads their
  // midnight_s and cache_bytes (raw_day: the tables' first cycle) ----
  if (!cached && !RunMidnight(session.get(), &spans, kMidnightRepeats,
                              &midnight, &errors)) {
    return fail(result);
  }

  // ---- Checks against the uncached single-thread reference ----
  Reference ref(&ws);
  if (cached) CheckAgainstReference(&ws, session.get(), hashes, &ref, &errors);
  if (serve) {
    std::map<std::string, const BenchQuery*> dashboards;
    for (const BenchQuery& q : ws.queries) dashboards[q.sql] = &q;
    std::vector<uint64_t> want(serve_sqls.size(), 0);
    for (size_t i = 0; i < serve_sqls.size(); ++i) {
      auto d = dashboards.find(serve_sqls[i]);
      RecordBatch batch;
      if (!ref.Hash(serve_sqls[i], &want[i],
                    d == dashboards.end() ? nullptr : &batch, &errors)) {
        continue;
      }
      if (d != dashboards.end()) {
        if (std::string e = CheckClosedForm(*d->second, batch); !e.empty()) {
          errors.Add(e);
        }
      }
    }
    for (const ServeSample& s : samples) {
      auto d = dashboards.find(serve_sqls[s.sql_id]);
      if (d != dashboards.end()) {
        timed.query_ms[d->second->name].push_back(s.latency_ms);
      }
      if (s.hash != want[s.sql_id]) {
        errors.Add(std::string("served ") + (s.hit ? "hit" : "miss") +
                   " differs from the uncached single-thread run: " +
                   serve_sqls[s.sql_id].substr(0, 80));
      }
    }
  }

  // ---- End-to-end metrics ----
  std::vector<Metric> e2e;
  auto rep = [&e2e](const std::string& name, double value, const char* unit) {
    e2e.push_back(Metric{name, value, unit});
  };
  rep("setup_s", setup_s, "s");
  rep("peak_rss_mb", peak_rss, "MiB");
  rep("day_wall_s", Median(timed.pass_walls), "s");
  rep("midnight_s", midnight.wall_s, "s");
  rep("cache_bytes", static_cast<double>(midnight.cache_bytes), "bytes");
  rep("serve_qps", Median(timed.pass_rates), "queries/s");
  rep("serve_p50_ms", Quantile(timed.latencies_ms, 0.50), "ms");
  rep("serve_p95_ms", Quantile(timed.latencies_ms, 0.95), "ms");

  if (!opt.trace) {
    result.metrics = e2e;
  } else {
    if (server != nullptr) {
      for (const std::string& sql : serve_sqls) {
        Scope s(&spans, "engine", "Plan", 0);
        const Clock::time_point t = Clock::now();
        auto plan = session->Plan(sql);
        timed.plan_ms.push_back(Since(t) * 1e3);
        if (!plan.ok()) errors.Add("plan failed: " + plan.status().ToString());
      }
    }
    std::vector<Metric> layer;
    auto lay = [&layer](const std::string& name, double value,
                        const char* unit) {
      layer.push_back(Metric{name, value, unit});
    };
    const auto& p = timed.passes;
    lay("engine.plan_ms", Median(timed.plan_ms), "ms");
    lay("engine.read_cpu_s", PassMedian(p, &PassSums::read_cpu), "s");
    lay("engine.parse_cpu_s", PassMedian(p, &PassSums::parse_cpu), "s");
    lay("engine.compute_cpu_s", PassMedian(p, &PassSums::compute_cpu), "s");
    for (const char* op : kOperators) {
      std::vector<double> walls;
      for (const PassSums& s : p) {
        auto it = s.op_wall.find(op);
        walls.push_back(it == s.op_wall.end() ? 0.0 : it->second);
      }
      lay(std::string("engine.op.") + op + ".wall_s", Median(walls), "s");
    }
    for (const char* q : {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8",
                          "Q9", "Q10", "F1", "F2", "F3"}) {
      auto it = timed.query_ms.find(q);
      lay(std::string("engine.query.") + q + ".wall_ms",
          it == timed.query_ms.end() ? 0 : Median(it->second), "ms");
    }
    lay("engine.rows_read", PassMedian(p, &PassSums::rows_read), "count");
    lay("engine.bytes_read", PassMedian(p, &PassSums::bytes_read), "bytes");
    lay("engine.row_groups_skipped",
        PassMedian(p, &PassSums::row_groups_skipped), "count");
    lay("engine.records_parsed", PassMedian(p, &PassSums::records_parsed),
        "count");
    lay("engine.bytes_parsed", PassMedian(p, &PassSums::bytes_parsed),
        "bytes");

    double parse_cpu = 0;
    double bytes_parsed = 0;
    uint64_t path_hits = 0;
    uint64_t path_refs = 0;
    for (const PassSums& s : p) {
      parse_cpu += s.parse_cpu;
      bytes_parsed += s.bytes_parsed;
      path_hits += s.path_hits;
      path_refs += s.path_refs;
    }
    double dom_mbps = 0;
    double od_mbps = 0;
    MeasureJsonTiers(&ws, &spans, &dom_mbps, &od_mbps, &errors);
    lay("json.parse_mb_per_s",
        parse_cpu > 0 ? bytes_parsed / 1e6 / parse_cpu : 0, "MB/s");
    lay("json.dom_mb_per_s", dom_mbps, "MB/s");
    lay("json.ondemand_mb_per_s", od_mbps, "MB/s");

    double raw_mbps = 0;
    double cache_mbps = 0;
    MeasureScans(&ws, *session, &spans, &raw_mbps, &cache_mbps, &errors);
    lay("storage.raw_scan_mb_per_s", raw_mbps, "MB/s");
    lay("storage.cache_scan_mb_per_s", cache_mbps, "MB/s");
    lay("storage.cache_raw_bytes",
        static_cast<double>(midnight.caching.corc_raw_bytes), "bytes");
    lay("storage.cache_encoded_bytes",
        static_cast<double>(midnight.caching.corc_encoded_bytes), "bytes");
    for (int e = 0; e < maxson::storage::kNumChunkEncodings; ++e) {
      lay(std::string("storage.chunks.") +
              maxson::storage::ChunkEncodingName(
                  static_cast<maxson::storage::ChunkEncoding>(e)),
          static_cast<double>(midnight.caching.corc_chunks[e]), "count");
    }

    const double passes = std::max<double>(1, static_cast<double>(p.size()));
    lay("core.predict_s", midnight.predict_s, "s");
    lay("core.score_s", midnight.score_s, "s");
    lay("core.preparse_s", midnight.preparse_s, "s");
    lay("core.preparse_cpu_s", midnight.preparse_cpu_s, "s");
    lay("core.paths_predicted", static_cast<double>(midnight.predicted),
        "count");
    lay("core.paths_cached",
        static_cast<double>(midnight.caching.paths_cached), "count");
    lay("core.rows_preparsed",
        static_cast<double>(midnight.caching.rows_parsed), "count");
    lay("core.cached_ref_share",
        path_refs > 0 ? static_cast<double>(path_hits) /
                            static_cast<double>(path_refs)
                      : 0,
        "share");
    lay("core.path_refs", static_cast<double>(path_refs) / passes,
        "count");
    lay("core.rewrite_hits",
        static_cast<double>(after.rewrite_cache_hits -
                            before.rewrite_cache_hits) /
            passes,
        "count");
    lay("core.rewrite_misses",
        static_cast<double>(after.rewrite_cache_misses -
                            before.rewrite_cache_misses) /
            passes,
        "count");
    lay("ml.train_s", train_s, "s");
    lay("exec.pool_tasks",
        static_cast<double>(after.pool_tasks_submitted -
                            before.pool_tasks_submitted) /
            passes,
        "count");
    lay("exec.sharedscan_parse_passes",
        static_cast<double>(after.sharedscan_parse_passes -
                            before.sharedscan_parse_passes),
        "count");
    lay("exec.sharedscan_coalesced_parses",
        static_cast<double>(after.sharedscan_coalesced_parses -
                            before.sharedscan_coalesced_parses),
        "count");
    lay("exec.sharedscan_saved_bytes",
        static_cast<double>(after.sharedscan_saved_bytes -
                            before.sharedscan_saved_bytes),
        "bytes");
    maxson::serve::ResultCache::Stats rc;
    uint64_t admitted = 0;
    if (server != nullptr) {
      rc = server->result_cache_stats();
      for (size_t c = 0; c < clients; ++c) {
        admitted +=
            server->admission_snapshot("client" + std::to_string(c)).admitted;
      }
    }
    lay("serve.result_hits", static_cast<double>(rc.hits), "count");
    lay("serve.result_misses", static_cast<double>(rc.misses), "count");
    lay("serve.result_evictions", static_cast<double>(rc.evictions),
        "count");
    lay("serve.admitted", static_cast<double>(admitted), "count");
    lay("serve.hit_p50_ms", Median(timed.hit_ms), "ms");
    lay("serve.miss_p50_ms", Median(timed.miss_ms), "ms");

    const std::map<std::string, double> self = spans.SelfSeconds();
    for (const char* l : kLayers) {
      auto it = self.find(l);
      lay(std::string("trace.self.") + l + "_s",
          it == self.end() ? 0 : it->second, "s");
    }
    result.metrics = layer;

    // The traced run's own end-to-end figures go with its spans, so the
    // tracing overhead can be read against the untraced runs.
    std::map<std::string, std::string> fields;
    fields["workload"] = "\"" + opt.workload + "\"";
    fields["seed"] = std::to_string(opt.seed);
    fields["cores"] = std::to_string(std::thread::hardware_concurrency());
    fields["simd_isa"] = "\"" + isa + "\"";
    std::string e2e_json = "{";
    for (size_t i = 0; i < e2e.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", e2e[i].value);
      e2e_json += (i ? ", \"" : "\"") + e2e[i].name + "\": " + buf;
    }
    fields["end_to_end"] = e2e_json + "}";
    const std::string path = opt.out_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (!spans.WriteJson(path, fields)) {
      errors.Add("cannot write " + path);
    } else {
      std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
    }
  }
  for (const Metric& m : e2e) {
    std::fprintf(stderr, "perfbench: %-14s %.6g %s\n", m.name.c_str(),
                 m.value, m.unit.c_str());
  }
  std::fprintf(stderr,
               "perfbench: %zu passes/rounds, %llu operations attempted\n",
               timed.pass_walls.size(),
               static_cast<unsigned long long>(result.attempted));
  result.errors = errors.messages();
  result.correct = errors.count() == 0;
  return result;
}

int SelfTest(const Options& base) {
  int failures = 0;
  auto report = [&](bool ok, const std::string& what) {
    std::fprintf(stderr, "self-test: %-4s %s\n", ok ? "ok" : "FAIL",
                 what.c_str());
    if (!ok) ++failures;
  };

  // 1. Every workload end to end at tiny size, untraced and traced.
  for (const std::string& w : WorkloadNames()) {
    for (bool trace : {false, true}) {
      Options opt = base;
      opt.workload = w;
      opt.tiny = true;
      opt.trace = trace;
      opt.seconds = 0.2;
      opt.work_dir = base.work_dir + "/" + w + (trace ? "-traced" : "");
      const RunResult r = RunWorkload(opt);
      for (const std::string& e : r.errors) {
        std::fprintf(stderr, "self-test:      %s\n", e.c_str());
      }
      report(r.correct && r.failed == 0 && r.attempted > 0 &&
                 !r.metrics.empty(),
             w + (trace ? " traced" : "") + " runs with every check passing");
      maxson::storage::FileSystem::RemoveAll(opt.work_dir).ok();
    }
  }

  // 2. Each check reports an altered result. The day's queries give one
  // result per closed-form kind; the serving templates cover the
  // reference comparison.
  Options opt = base;
  opt.tiny = true;
  opt.work_dir = base.work_dir + "/mutations";
  Workspace ws;
  ws.root = opt.work_dir;
  Errors errors;
  if (!BuildTables(opt,
                   {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9",
                    "Q10"},
                   true,
                   {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9",
                    "Q10", "F1", "F2", "F3"},
                   &ws, &errors)) {
    report(false, "tiny tables build");
    return failures;
  }
  Reference ref(&ws);
  for (const BenchQuery& q : ws.queries) {
    uint64_t hash = 0;
    RecordBatch batch;
    if (!ref.Hash(q.sql, &hash, &batch, &errors)) {
      report(false, q.name + " runs");
      continue;
    }
    report(CheckClosedForm(q, batch).empty(), q.name + " closed form holds");
    const RecordBatch changed = WithOneCellChanged(batch, 0);
    const RecordBatch dropped = WithOneRowDropped(batch);
    report(!CheckClosedForm(q, changed).empty(),
           q.name + " closed form reports one changed cell");
    report(!CheckClosedForm(q, dropped).empty(),
           q.name + " closed form reports one dropped row");
    const RecordBatch changed_last =
        WithOneCellChanged(batch, batch.num_columns() - 1);
    report(maxson::engine::FingerprintHash(changed_last) != hash &&
               maxson::engine::FingerprintHash(dropped) != hash,
           q.name + " reference comparison reports a changed cell and a "
                    "dropped row");
  }
  PassSums all_cached;
  all_cached.path_hits = all_cached.path_refs = 5;
  PassSums one_parsed = all_cached;
  one_parsed.records_parsed = 1;
  PassSums one_raw = all_cached;
  one_raw.path_hits = 4;
  report(CheckAllCached(all_cached).empty() &&
             !CheckAllCached(one_parsed).empty() &&
             !CheckAllCached(one_raw).empty(),
         "cached-day property reports one parsed record and one raw path");
  maxson::storage::FileSystem::RemoveAll(opt.work_dir).ok();
  return failures;
}

}  // namespace perfbench
