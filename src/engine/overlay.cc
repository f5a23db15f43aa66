#include "engine/overlay.h"

#include <atomic>

namespace bionicdb::engine {

Result<std::string> Overlay::Get(Slice key) const {
  int visits = 0;
  return GetTraced(key, &visits);
}

Result<std::string> Overlay::GetTraced(Slice key, int* node_visits) const {
  auto r = GetTracedView(key, node_visits);
  if (!r.ok()) return r.status();
  return r->ToString();
}

Result<Slice> Overlay::GetView(Slice key) const {
  int visits = 0;
  return GetTracedView(key, &visits);
}

Result<Slice> Overlay::GetTracedView(Slice key, int* node_visits) const {
  auto r = index_.GetTracedView(key, node_visits);
  // Probes run under SHARED table ownership on the threaded backend
  // (mutations are exclusive), so hit/miss are the only overlay stats
  // concurrent threads bump — relaxed atomic_ref, as in BTree's probe
  // counters, keeps the layout and the simulator's plain reads.
  if (!r.ok()) {
    std::atomic_ref<uint64_t>(stats_.misses)
        .fetch_add(1, std::memory_order_relaxed);
    return Status::OutOfMemory("key not resident in overlay");
  }
  std::atomic_ref<uint64_t>(stats_.hits).fetch_add(1,
                                                   std::memory_order_relaxed);
  Slice tagged = *r;
  BIONICDB_DCHECK(!tagged.empty());
  if (tagged[0] == kTombstone) {
    return Status::NotFound("deleted (overlay tombstone)");
  }
  tagged.RemovePrefix(1);
  return tagged;
}

void Overlay::WriteDirty(Slice key, const std::string& tagged) {
  if (!IsDirtyTag(index_.Upsert(key, tagged))) ++dirty_count_;
}

void Overlay::InstallClean(Slice key, Slice record) {
  if (IsDirtyTag(index_.Upsert(key, Tag(kClean, record)))) {
    BIONICDB_CHECK(index_.Update(key, Tag(kDirty, record)).ok());
  }
  ++stats_.installs;
  if (capacity_ == 0) return;
  clean_fifo_.push_back(key.ToString());
  EnforceCapacity();
}

void Overlay::RemoveEntry(Slice key) {
  auto tagged = index_.Peek(key);
  if (!tagged.ok()) return;
  if (IsDirtyTag((*tagged)[0])) --dirty_count_;
  BIONICDB_CHECK(index_.Delete(key).ok());
}

void Overlay::EnforceCapacity() {
  if (capacity_ == 0) return;
  while (index_.size() > capacity_ && !clean_fifo_.empty()) {
    const std::string victim = std::move(clean_fifo_.front());
    clean_fifo_.pop_front();
    auto tagged = index_.Peek(victim);
    if (!tagged.ok() || IsDirtyTag((*tagged)[0])) continue;  // pinned
    BIONICDB_CHECK(index_.Delete(victim).ok());
    ++clean_evictions_;
  }
}

Status Overlay::EvictClean(Slice key) {
  if (IsDirty(key)) {
    return Status::Busy("entry is dirty; merge before evicting");
  }
  return index_.Delete(key);
}

std::vector<std::pair<std::string, std::optional<std::string>>>
Overlay::TakeDirty() {
  auto out = DirtySnapshot();
  for (auto& [key, rec] : out) {
    if (!rec.has_value()) {
      BIONICDB_CHECK(index_.Delete(key).ok());
    } else {
      BIONICDB_CHECK(index_.Update(key, Tag(kClean, *rec)).ok());
      if (capacity_ > 0) clean_fifo_.push_back(key);
    }
  }
  dirty_count_ = 0;
  EnforceCapacity();
  ++stats_.merges;
  stats_.merged_rows += out.size();
  return out;
}

std::vector<std::pair<std::string, std::optional<std::string>>>
Overlay::DirtySnapshot() const {
  std::vector<std::pair<std::string, std::optional<std::string>>> out;
  out.reserve(dirty_count_);
  for (auto it = index_.Begin(); out.size() < dirty_count_ && it.Valid();
       it.Next()) {
    const Slice tagged = it.value();
    if (tagged[0] == kTombstone) {
      out.emplace_back(it.key().ToString(), std::nullopt);
    } else if (tagged[0] == kDirty) {
      out.emplace_back(it.key().ToString(),
                       std::string(tagged.data() + 1, tagged.size() - 1));
    }
  }
  return out;
}

}  // namespace bionicdb::engine
