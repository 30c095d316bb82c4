// Embedded, indexed, in-memory table store.
//
// The paper's archive cannot query TSM 5.5's proprietary database for the
// (tape id, tape sequence) of a file — those fields are not indexed and
// cannot be — so LANL exported the relevant TSM tables to MySQL and added
// indexes; PFTool then queries MySQL to sort recalls into tape order
// (Sec 4.2.5), and the synchronous deleter joins GPFS file ids to TSM
// object ids through it (Sec 4.2.6).
//
// This module is the stand-in for that MySQL instance: a typed table with
// a unique primary key and any number of secondary indexes supporting
// point and range lookups.  Query counters distinguish indexed accesses
// from full scans so benchmarks can demonstrate why the unindexed TSM
// database was unusable for tape-ordered recall.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace cpa::metadb {

/// Aggregate access statistics for one table.
struct TableStats {
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t point_lookups = 0;
  std::uint64_t index_lookups = 0;
  std::uint64_t range_lookups = 0;
  std::uint64_t full_scans = 0;
  std::uint64_t rows_scanned = 0;  // rows touched by full scans
  std::uint64_t bulk_batches = 0;  // erase_bulk/assign_sorted calls
  std::uint64_t bulk_rows = 0;     // rows carried by those calls
};

/// A table of `Row` keyed by a unique 64-bit primary key.
///
/// Secondary indexes must all be registered before the first insert (as
/// with a real DDL schema); violating this throws std::logic_error.
template <typename Row>
class Table {
 public:
  using Key = std::uint64_t;
  using IndexId = std::size_t;

  explicit Table(std::function<Key(const Row&)> primary_key)
      : pk_(std::move(primary_key)) {}

  /// Registers a secondary index on a 64-bit attribute.
  IndexId add_index_u64(std::function<std::uint64_t(const Row&)> key_fn) {
    require_empty("add_index_u64");
    u64_indexes_.push_back(U64Index{std::move(key_fn), {}});
    return u64_indexes_.size() - 1;
  }

  /// Registers a secondary index on a string attribute.
  IndexId add_index_str(std::function<std::string(const Row&)> key_fn) {
    require_empty("add_index_str");
    str_indexes_.push_back(StrIndex{std::move(key_fn), {}});
    return str_indexes_.size() - 1;
  }

  /// Inserts a row; returns false (and changes nothing) if the primary key
  /// already exists.
  bool insert(Row row) {
    const Key k = pk_(row);
    auto [it, inserted] = rows_.emplace(k, std::move(row));
    if (!inserted) return false;
    index_row(it->second, k);
    ++stats_.inserts;
    return true;
  }

  /// Inserts or replaces by primary key.
  void upsert(Row row) {
    const Key k = pk_(row);
    if (auto it = rows_.find(k); it != rows_.end()) {
      deindex_row(it->second, k);
      it->second = std::move(row);
      index_row(it->second, k);
    } else {
      insert(std::move(row));
    }
  }

  /// Point lookup by primary key; nullptr when absent.  The pointer stays
  /// valid until this row is erased or upserted.
  const Row* find(Key k) const {
    ++stats_.point_lookups;
    auto it = rows_.find(k);
    return it == rows_.end() ? nullptr : &it->second;
  }

  /// Erases by primary key; returns false when absent.
  bool erase(Key k) {
    auto it = rows_.find(k);
    if (it == rows_.end()) return false;
    deindex_row(it->second, k);
    rows_.erase(it);
    ++stats_.erases;
    return true;
  }

  /// Bulk erase by primary key; returns the number of rows removed.
  std::size_t erase_bulk(const std::vector<Key>& keys) {
    ++stats_.bulk_batches;
    stats_.bulk_rows += keys.size();
    std::size_t n = 0;
    for (const Key k : keys) {
      auto it = rows_.find(k);
      if (it == rows_.end()) continue;
      deindex_row(it->second, k);
      rows_.erase(it);
      ++stats_.erases;
      ++n;
    }
    return n;
  }

  /// Bulk build: replaces every row with the ones `next(row)` fills in
  /// until it returns false, then rebuilds each index from one sorted
  /// pass.  Rows should arrive in ascending primary-key order: each then
  /// lands with an end-hinted, amortized O(1) insert instead of a tree
  /// descent (out-of-order rows still land correctly, at descent cost).
  /// A repeated primary key keeps its first row.  Counts as one bulk batch.
  template <typename Next>
  void assign_sorted(Next&& next) {
    clear();
    Row row{};
    while (next(row)) {
      const Key k = pk_(row);
      rows_.emplace_hint(rows_.end(), k, std::move(row));
      row = Row{};
    }
    for (auto& idx : u64_indexes_) build_index(idx);
    for (auto& idx : str_indexes_) build_index(idx);
    ++stats_.bulk_batches;
    stats_.bulk_rows += rows_.size();
    stats_.inserts += rows_.size();
  }

  /// All rows whose indexed attribute equals `value`, in primary-key order.
  std::vector<const Row*> lookup_u64(IndexId idx, std::uint64_t value) const {
    ++stats_.index_lookups;
    std::vector<const Row*> out;
    visit_u64(idx, value, [&](const Row& row) { out.push_back(&row); });
    return out;
  }

  std::vector<const Row*> lookup_str(IndexId idx, const std::string& value) const {
    ++stats_.index_lookups;
    std::vector<const Row*> out;
    visit_str(idx, value, [&](const Row& row) { out.push_back(&row); });
    return out;
  }

  /// Allocation-free visitor over the rows whose indexed attribute equals
  /// `value`, in primary-key order.  The hot-path alternative to
  /// materializing a `std::vector<const Row*>` per call.
  template <typename Fn>
  void for_each_u64(IndexId idx, std::uint64_t value, Fn&& fn) const {
    ++stats_.index_lookups;
    visit_u64(idx, value, std::forward<Fn>(fn));
  }

  template <typename Fn>
  void for_each_str(IndexId idx, const std::string& value, Fn&& fn) const {
    ++stats_.index_lookups;
    visit_str(idx, value, std::forward<Fn>(fn));
  }

  /// First matching row in primary-key order, or nullptr — the
  /// allocation-free point join (e.g. unique secondary keys).
  const Row* first_u64(IndexId idx, std::uint64_t value) const {
    ++stats_.index_lookups;
    const auto& index = u64_indexes_.at(idx).set;
    auto it = index.lower_bound(std::make_pair(value, Key{0}));
    if (it == index.end() || it->first != value) return nullptr;
    return &rows_.at(it->second);
  }

  const Row* first_str(IndexId idx, const std::string& value) const {
    ++stats_.index_lookups;
    const auto& index = str_indexes_.at(idx).set;
    auto it = index.lower_bound(std::make_pair(value, Key{0}));
    if (it == index.end() || it->first != value) return nullptr;
    return &rows_.at(it->second);
  }

  /// All rows with indexed attribute in [lo, hi], ascending by attribute
  /// (ties broken by primary key).
  std::vector<const Row*> range_u64(IndexId idx, std::uint64_t lo,
                                    std::uint64_t hi) const {
    ++stats_.range_lookups;
    std::vector<const Row*> out;
    visit_range_u64(idx, lo, hi, [&](const Row& row) { out.push_back(&row); });
    return out;
  }

  /// Full-table scan with a predicate — the only query the un-exported TSM
  /// database supports.  Deliberately counts every row touched.
  std::vector<const Row*> scan(const std::function<bool(const Row&)>& pred) const {
    ++stats_.full_scans;
    std::vector<const Row*> out;
    for (const auto& [k, row] : rows_) {
      ++stats_.rows_scanned;
      if (pred(row)) out.push_back(&row);
    }
    return out;
  }

  /// Visits every row (not counted as a scan; used for exports/backups).
  void for_each(const std::function<void(const Row&)>& fn) const {
    for (const auto& [k, row] : rows_) fn(row);
  }

  /// Drops every row (indexes stay registered).  Crash-recovery wipes a
  /// table before replaying the WAL image into it.
  void clear() {
    rows_.clear();
    for (auto& idx : u64_indexes_) idx.set.clear();
    for (auto& idx : str_indexes_) idx.set.clear();
  }

  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return rows_.empty(); }
  [[nodiscard]] const TableStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  // Indexes are ordered sets of (attribute, primary key): equality walks
  // yield primary-key order and range walks yield (attribute, pk) order
  // directly — no per-query materialize-and-sort — and de-indexing is one
  // O(log n) erase of the exact pair instead of an equal-range hunt.
  struct U64Index {
    std::function<std::uint64_t(const Row&)> key_fn;
    std::set<std::pair<std::uint64_t, Key>> set;
  };
  struct StrIndex {
    std::function<std::string(const Row&)> key_fn;
    std::set<std::pair<std::string, Key>> set;
  };

  template <typename Fn>
  void visit_u64(IndexId idx, std::uint64_t value, Fn&& fn) const {
    const auto& index = u64_indexes_.at(idx).set;
    for (auto it = index.lower_bound(std::make_pair(value, Key{0}));
         it != index.end() && it->first == value; ++it) {
      fn(rows_.at(it->second));
    }
  }

  template <typename Fn>
  void visit_str(IndexId idx, const std::string& value, Fn&& fn) const {
    const auto& index = str_indexes_.at(idx).set;
    for (auto it = index.lower_bound(std::make_pair(value, Key{0}));
         it != index.end() && it->first == value; ++it) {
      fn(rows_.at(it->second));
    }
  }

  template <typename Fn>
  void visit_range_u64(IndexId idx, std::uint64_t lo, std::uint64_t hi,
                       Fn&& fn) const {
    const auto& index = u64_indexes_.at(idx).set;
    for (auto it = index.lower_bound(std::make_pair(lo, Key{0}));
         it != index.end() && it->first <= hi; ++it) {
      fn(rows_.at(it->second));
    }
  }

  void require_empty(const char* op) const {
    if (!rows_.empty()) {
      throw std::logic_error(std::string(op) + " after rows were inserted");
    }
  }

  // (attribute, key) pairs of every row, sorted, then end-hinted into the
  // (empty) index set: one O(n log n) sort instead of n tree descents.
  template <typename Index>
  void build_index(Index& idx) {
    std::vector<typename decltype(idx.set)::value_type> entries;
    entries.reserve(rows_.size());
    for (const auto& [k, row] : rows_) entries.emplace_back(idx.key_fn(row), k);
    std::sort(entries.begin(), entries.end());
    for (auto& e : entries) idx.set.emplace_hint(idx.set.end(), std::move(e));
  }

  void index_row(const Row& row, Key k) {
    for (auto& idx : u64_indexes_) idx.set.emplace(idx.key_fn(row), k);
    for (auto& idx : str_indexes_) idx.set.emplace(idx.key_fn(row), k);
  }

  void deindex_row(const Row& row, Key k) {
    for (auto& idx : u64_indexes_) {
      idx.set.erase(std::make_pair(idx.key_fn(row), k));
    }
    for (auto& idx : str_indexes_) {
      idx.set.erase(std::make_pair(idx.key_fn(row), k));
    }
  }

  std::function<Key(const Row&)> pk_;
  std::map<Key, Row> rows_;
  std::vector<U64Index> u64_indexes_;
  std::vector<StrIndex> str_indexes_;
  mutable TableStats stats_;
};

}  // namespace cpa::metadb
