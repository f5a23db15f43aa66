#include "engine/database.h"

namespace bionicdb::engine {

Table::Table(uint32_t id, std::string name, storage::SimDisk* disk,
             const index::BTreeConfig& index_config, bool with_overlay,
             size_t overlay_capacity, bool compact_storage)
    : id_(id), name_(std::move(name)), disk_(disk), primary_(index_config),
      index_config_(index_config) {
  if (with_overlay) {
    overlay_ = std::make_unique<Overlay>(index_config, overlay_capacity);
  }
  if (compact_storage) {
    // Compact mode replaces pages + primary B+Tree; the overlay caches
    // paged base data and cannot sit on top of it.
    BIONICDB_CHECK(!with_overlay);
    compact_ = std::make_unique<storage::CompactStore>();
  }
}

Status Table::AddSecondaryIndex(const std::string& index_name) {
  if (secondaries_.count(index_name)) {
    return Status::AlreadyExists("index " + index_name);
  }
  secondaries_[index_name] = std::make_unique<index::BTree>(index_config_);
  return Status::OK();
}

index::BTree* Table::secondary(const std::string& index_name) {
  auto it = secondaries_.find(index_name);
  return it == secondaries_.end() ? nullptr : it->second.get();
}

Status Table::AppendToBase(Slice key, Slice record) {
  if (fill_page_ == nullptr ||
      fill_page_->ContiguousFreeSpace() < record.size() + 8) {
    fill_page_ = disk_->GetPageForLoad(disk_->AllocPage());
  }
  auto slot = fill_page_->Insert(record);
  if (!slot.ok()) return slot.status();
  storage::Rid rid;
  rid.page_id = fill_page_->page_id();
  rid.slot = *slot;
  return primary_.Insert(key, index::EncodeRid(rid));
}

Status Table::LoadRow(Slice key, Slice record, bool overlay_resident) {
  if (compact_) {
    BIONICDB_RETURN_NOT_OK(compact_->Load(key, record));
    ++rows_;
    record_bytes_ += record.size();
    return Status::OK();
  }
  BIONICDB_RETURN_NOT_OK(AppendToBase(key, record));
  if (overlay_ && overlay_resident) overlay_->InstallClean(key, record);
  ++rows_;
  record_bytes_ += record.size();
  return Status::OK();
}

Status Table::LoadSecondaryEntry(const std::string& index_name, Slice skey,
                                 Slice pkey) {
  index::BTree* idx = secondary(index_name);
  if (idx == nullptr) return Status::NotFound("no index " + index_name);
  return idx->Insert(skey, pkey);
}

Result<storage::Rid> Table::LookupRid(Slice key) const {
  auto r = primary_.GetView(key);
  if (!r.ok()) return r.status();
  return index::DecodeRid(*r);
}

Result<std::string> Table::BaseGet(Slice key) const {
  auto rec = BaseGetView(key);
  if (!rec.ok()) return rec.status();
  return rec->ToString();
}

Result<Slice> Table::BaseGetView(Slice key) const {
  if (compact_) return compact_->Get(key, nullptr);
  auto rid = LookupRid(key);
  if (!rid.ok()) return rid.status();
  storage::Page* page = const_cast<storage::SimDisk*>(disk_)
                            ->GetPageForLoad(rid->page_id);
  if (page == nullptr) return Status::NotFound("page missing");
  return page->Get(rid->slot);
}

Status Table::BasePut(Slice key, Slice record) {
  if (compact_) {
    if (!compact_->Contains(key)) {
      ++rows_;
      record_bytes_ += record.size();
    }
    return compact_->Put(key, record);
  }
  auto rid = LookupRid(key);
  if (rid.ok()) {
    storage::Page* page = disk_->GetPageForLoad(rid->page_id);
    BIONICDB_CHECK(page != nullptr);
    Status st = page->Update(rid->slot, record);
    if (st.ok()) return st;
    if (!st.IsResourceExhausted()) return st;
    // Row no longer fits its page: relocate.
    BIONICDB_CHECK(page->Delete(rid->slot).ok());
    BIONICDB_CHECK(primary_.Delete(key).ok());
    ++relocations_;
    return AppendToBase(key, record);
  }
  // New row.
  ++rows_;
  record_bytes_ += record.size();
  return AppendToBase(key, record);
}

Status Table::BaseDelete(Slice key) {
  if (compact_) {
    BIONICDB_RETURN_NOT_OK(compact_->Delete(key));
    --rows_;
    return Status::OK();
  }
  auto rid = LookupRid(key);
  if (!rid.ok()) return rid.status();
  storage::Page* page = disk_->GetPageForLoad(rid->page_id);
  BIONICDB_CHECK(page != nullptr);
  BIONICDB_RETURN_NOT_OK(page->Delete(rid->slot));
  BIONICDB_RETURN_NOT_OK(primary_.Delete(key));
  --rows_;
  return Status::OK();
}

std::vector<std::pair<std::string, std::string>> Table::ScanAll() const {
  if (compact_) {
    // Already in key order, no overlay to patch (checked at construction).
    std::vector<std::pair<std::string, std::string>> rows;
    rows.reserve(rows_);
    compact_->Scan(Slice(), Slice(), [&rows](Slice k, Slice rec) {
      rows.emplace_back(k.ToString(), rec.ToString());
      return true;
    });
    return rows;
  }
  // Base rows in key order...
  std::map<std::string, std::string> merged;
  for (auto it = primary_.Begin(); it.Valid(); it.Next()) {
    auto rec = BaseGet(it.key());
    if (rec.ok()) merged[it.key().ToString()] = std::move(*rec);
  }
  // ...patched with the overlay's dirty delta (§5.6: "patch updates into
  // historical data requested by queries").
  if (overlay_) {
    for (auto& [key, rec] : overlay_->DirtySnapshot()) {
      if (rec.has_value()) {
        merged[key] = *rec;
      } else {
        merged.erase(key);
      }
    }
  }
  return {merged.begin(), merged.end()};
}

Status Table::AddColumnarProjection(const std::string& name,
                                    ColumnExtractor extractor) {
  if (projections_.count(name)) {
    return Status::AlreadyExists("projection " + name);
  }
  Projection p;
  p.extractor = std::move(extractor);
  projections_.emplace(name, std::move(p));
  RefreshProjections();
  return Status::OK();
}

void Table::RefreshProjections() {
  for (auto& [name, p] : projections_) {
    p.keys.clear();
    p.values.clear();
    p.keys.reserve(rows_);
    p.values.reserve(rows_);
    if (compact_) {
      compact_->Scan(Slice(), Slice(), [&p](Slice k, Slice rec) {
        p.keys.push_back(k.ToString());
        p.values.push_back(p.extractor(rec));
        return true;
      });
      continue;
    }
    for (auto it = primary_.Begin(); it.Valid(); it.Next()) {
      auto rec = BaseGet(it.key());
      if (!rec.ok()) continue;
      p.keys.push_back(it.key().ToString());
      p.values.push_back(p.extractor(Slice(*rec)));
    }
  }
}

const Table::Projection* Table::projection(const std::string& name) const {
  auto it = projections_.find(name);
  return it == projections_.end() ? nullptr : &it->second;
}

Table* Database::CreateTable(const std::string& name) {
  const uint32_t id = static_cast<uint32_t>(tables_.size());
  tables_.push_back(std::make_unique<Table>(id, name, disk_, index_config_,
                                            with_overlays_, overlay_capacity_,
                                            compact_storage_));
  return tables_.back().get();
}

Table* Database::GetTable(const std::string& name) {
  for (auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

Table* Database::GetTable(uint32_t id) {
  return id < tables_.size() ? tables_[id].get() : nullptr;
}

}  // namespace bionicdb::engine
