// Tables and the catalog. A table's *functional* state is always the same
// regardless of engine mode:
//   * base storage: heap of slotted pages on the data disk, plus a primary
//     B+Tree mapping key -> RID;
//   * optional secondary B+Trees mapping secondary key -> primary key;
//   * in bionic mode, an Overlay caching/buffering rows FPGA-side.
// All methods here are untimed (functional); the Engine charges costs and
// awaits devices around them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "engine/overlay.h"
#include "index/btree.h"
#include "index/codec.h"
#include "storage/compact.h"
#include "storage/disk.h"
#include "storage/page.h"
#include "wal/recovery.h"

namespace bionicdb::engine {

class Table {
 public:
  Table(uint32_t id, std::string name, storage::SimDisk* disk,
        const index::BTreeConfig& index_config, bool with_overlay,
        size_t overlay_capacity = 0, bool compact_storage = false);
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(Table);

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  storage::SimDisk* disk() { return disk_; }

  index::BTree& primary() { return primary_; }
  const index::BTree& primary() const { return primary_; }

  Status AddSecondaryIndex(const std::string& index_name);
  index::BTree* secondary(const std::string& index_name);

  Overlay* overlay() { return overlay_.get(); }

  /// Compact mode (storage/compact.h): rows in a slabbed heap behind a
  /// front-coded packed key index, replacing pages + primary B+Tree for
  /// memory-lean scale sweeps. The functional API below branches
  /// internally; the engine consults compact() only where it would charge
  /// buffer-pool costs that compact tables never incur.
  bool compact() const { return compact_ != nullptr; }
  storage::CompactStore* compact_store() { return compact_.get(); }
  const storage::CompactStore* compact_store() const { return compact_.get(); }
  /// Seals bulk-loaded rows into the packed index (no-op for paged tables
  /// and for already-finalized stores). Workload loaders call this through
  /// Engine::FinalizeLoad() before serving.
  void FinalizeLoad() {
    if (compact_ && !compact_->finalized()) compact_->Finalize();
  }
  /// Probe cost of a primary lookup, in node visits, whichever index form
  /// the table uses.
  int probe_height() const {
    return compact_ ? compact_->height() : primary_.height();
  }

  // --- Bulk load (untimed) -------------------------------------------------
  /// Appends a row to base storage and the primary index. With an overlay,
  /// `overlay_resident` controls whether the row is also cached FPGA-side.
  Status LoadRow(Slice key, Slice record, bool overlay_resident = true);
  /// Adds a secondary-index entry (untimed; load path).
  Status LoadSecondaryEntry(const std::string& index_name, Slice skey,
                            Slice pkey);

  // --- Functional row access against base storage ------------------------
  /// Resolves a key to its RID via the primary index (no timing).
  Result<storage::Rid> LookupRid(Slice key) const;
  Result<std::string> BaseGet(Slice key) const;
  /// Zero-copy base read: the view aliases the row's slotted page (pages
  /// are stable in host memory for the simulation's life) and is
  /// invalidated by a later update/delete/compaction of that page.
  Result<Slice> BaseGetView(Slice key) const;
  Status BasePut(Slice key, Slice record);   ///< Update or insert in place.
  Status BaseDelete(Slice key);

  // --- Columnar projections (Figure 4's "Columnar database" box) ---------
  /// Extracts one int64 measure from a row's record bytes.
  using ColumnExtractor = std::function<int64_t(Slice record)>;

  /// Registers a named single-column projection of this table. Projections
  /// are rebuilt from base data by RefreshProjections() (the engine does
  /// this at bulk-merge/checkpoint time) and are *stale* in between; query
  /// paths patch the overlay's dirty delta on top (§5.6 / SAP HANA style).
  Status AddColumnarProjection(const std::string& name,
                               ColumnExtractor extractor);

  /// Rebuilds every projection from current base data (functional).
  void RefreshProjections();

  struct Projection {
    ColumnExtractor extractor;
    /// Sorted by primary key, aligned: keys[i] owns values[i].
    std::vector<std::string> keys;
    std::vector<int64_t> values;
    uint64_t SizeBytes() const { return values.size() * sizeof(int64_t); }
  };
  const Projection* projection(const std::string& name) const;

  size_t rows() const { return rows_; }
  uint64_t total_record_bytes() const { return record_bytes_; }
  double avg_record_bytes() const {
    return rows_ ? static_cast<double>(record_bytes_) /
                       static_cast<double>(rows_)
                 : 0.0;
  }
  /// Full functional scan of the *current logical* table content: base
  /// rows patched with the overlay's dirty delta. Key order.
  std::vector<std::pair<std::string, std::string>> ScanAll() const;

 private:
  Status AppendToBase(Slice key, Slice record);

  uint32_t id_;
  std::string name_;
  storage::SimDisk* disk_;
  index::BTree primary_;  ///< key -> EncodeRid(rid)
  std::map<std::string, std::unique_ptr<index::BTree>> secondaries_;
  std::map<std::string, Projection> projections_;
  std::unique_ptr<Overlay> overlay_;
  std::unique_ptr<storage::CompactStore> compact_;
  index::BTreeConfig index_config_;
  /// The page AppendToBase fills. SimDisk pages are never erased or
  /// replaced, so the pointer stays valid for the disk's lifetime.
  storage::Page* fill_page_ = nullptr;
  size_t rows_ = 0;
  uint64_t record_bytes_ = 0;
  uint64_t relocations_ = 0;
};

/// The catalog: owns tables, hands out ids.
class Database {
 public:
  Database(storage::SimDisk* data_disk, const index::BTreeConfig& index_config,
           bool with_overlays, size_t overlay_capacity = 0,
           bool compact_storage = false)
      : disk_(data_disk), index_config_(index_config),
        with_overlays_(with_overlays), overlay_capacity_(overlay_capacity),
        compact_storage_(compact_storage) {}
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(Database);

  Table* CreateTable(const std::string& name);
  Table* GetTable(const std::string& name);
  Table* GetTable(uint32_t id);
  size_t num_tables() const { return tables_.size(); }
  /// Seals every compact table's bulk load (see Table::FinalizeLoad).
  void FinalizeLoad() {
    for (auto& t : tables_) t->FinalizeLoad();
  }
  /// Logical content of every table, keyed "table/key" (Table::ScanAll:
  /// base rows patched with overlay deltas). What crash checks and
  /// recovery tests compare a recovered database against.
  std::map<std::string, std::string> Snapshot() const;

 private:
  storage::SimDisk* disk_;
  index::BTreeConfig index_config_;
  bool with_overlays_;
  size_t overlay_capacity_;
  bool compact_storage_;
  std::vector<std::unique_ptr<Table>> tables_;
};

/// Redoes recovered writes into a database's base storage: wal::Recover
/// into a freshly loaded database rebuilds the committed state.
class BaseStorageTarget : public wal::RecoveryTarget {
 public:
  explicit BaseStorageTarget(Database* db) : db_(db) {}
  void RedoInsert(uint32_t table_id, Slice key, Slice value) override;
  void RedoUpdate(uint32_t table_id, Slice key, Slice value) override;
  void RedoDelete(uint32_t table_id, Slice key) override;

 private:
  Database* db_;
};

}  // namespace bionicdb::engine
