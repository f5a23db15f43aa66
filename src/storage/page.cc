#include "storage/page.h"

#include <algorithm>

#include "common/macros.h"

namespace bionicdb::storage {

void Page::Init(PageId page_id) {
  std::memset(data_, 0, kPageSize);
  Header& h = header();
  h.page_id = page_id;
  h.page_lsn = 0;
  h.nslots = 0;
  h.nlive = 0;
  h.free_start = sizeof(Header);
  h.free_end = kPageSize;
}

uint32_t Page::ContiguousFreeSpace() const {
  const Header& h = header();
  return h.free_end - h.free_start;
}

uint32_t Page::TotalFreeSpace() const {
  const Header& h = header();
  uint32_t used = 0;
  for (uint16_t i = 0; i < h.nslots; ++i) {
    if (slots()[i].offset != 0) used += slots()[i].length;
  }
  return kPageSize - sizeof(Header) -
         h.nslots * static_cast<uint32_t>(sizeof(SlotEntry)) - used;
}

Result<uint16_t> Page::Insert(Slice record) {
  if (record.size() > kPageSize) {
    return Status::InvalidArgument("record larger than page");
  }
  Header& h = header();
  // Reuse the lowest tombstoned slot if there is one (keeps the directory
  // compact). Every non-live slot is a tombstone, so a page without them
  // (any page during a bulk load) appends without scanning.
  uint16_t slot = h.nslots;
  if (h.nlive < h.nslots) {
    for (uint16_t i = 0; i < h.nslots; ++i) {
      if (slots()[i].offset == 0) {
        slot = i;
        break;
      }
    }
  }
  const uint32_t dir_growth = (slot == h.nslots) ? sizeof(SlotEntry) : 0;
  const uint32_t need = static_cast<uint32_t>(record.size()) + dir_growth;

  if (need > ContiguousFreeSpace()) {
    if (need > TotalFreeSpace()) {
      return Status::ResourceExhausted("page full");
    }
    Compact();
  }
  BIONICDB_DCHECK(need <= ContiguousFreeSpace());

  h.free_end -= static_cast<uint16_t>(record.size());
  std::memcpy(data_ + h.free_end, record.data(), record.size());
  if (slot == h.nslots) {
    ++h.nslots;
    h.free_start += sizeof(SlotEntry);
  }
  slots()[slot].offset = h.free_end;
  slots()[slot].length = static_cast<uint16_t>(record.size());
  ++h.nlive;
  return slot;
}

Result<Slice> Page::Get(uint16_t slot) const {
  const Header& h = header();
  if (slot >= h.nslots || slots()[slot].offset == 0) {
    return Status::NotFound("no record in slot");
  }
  return Slice(data_ + slots()[slot].offset, slots()[slot].length);
}

Status Page::Update(uint16_t slot, Slice record) {
  Header& h = header();
  if (slot >= h.nslots || slots()[slot].offset == 0) {
    return Status::NotFound("no record in slot");
  }
  SlotEntry& e = slots()[slot];
  if (record.size() <= e.length) {
    // Shrink / same size: overwrite in place.
    std::memcpy(data_ + e.offset, record.data(), record.size());
    e.length = static_cast<uint16_t>(record.size());
    return Status::OK();
  }
  // Grow: free the old cell, then place a new one (possibly compacting).
  const uint16_t old_offset = e.offset;
  const uint16_t old_length = e.length;
  e.offset = 0;
  if (record.size() > ContiguousFreeSpace()) {
    if (record.size() > TotalFreeSpace()) {
      // Roll back the tombstone; page genuinely cannot hold this.
      e.offset = old_offset;
      e.length = old_length;
      return Status::ResourceExhausted("page cannot fit grown record");
    }
    Compact();
  }
  h.free_end -= static_cast<uint16_t>(record.size());
  std::memcpy(data_ + h.free_end, record.data(), record.size());
  e.offset = h.free_end;
  e.length = static_cast<uint16_t>(record.size());
  return Status::OK();
}

Status Page::Delete(uint16_t slot) {
  Header& h = header();
  if (slot >= h.nslots || slots()[slot].offset == 0) {
    return Status::NotFound("no record in slot");
  }
  slots()[slot].offset = 0;
  slots()[slot].length = 0;
  --h.nlive;
  return Status::OK();
}

bool Page::IsLive(uint16_t slot) const {
  return slot < header().nslots && slots()[slot].offset != 0;
}

void Page::Compact() {
  Header& h = header();
  // Gather live cells, sort by current offset descending, and re-pack from
  // the end of the page.
  std::vector<uint16_t> live;
  live.reserve(h.nslots);
  for (uint16_t i = 0; i < h.nslots; ++i) {
    if (slots()[i].offset != 0) live.push_back(i);
  }
  std::sort(live.begin(), live.end(), [&](uint16_t a, uint16_t b) {
    return slots()[a].offset > slots()[b].offset;
  });
  uint16_t dest = kPageSize;
  for (uint16_t s : live) {
    SlotEntry& e = slots()[s];
    dest -= e.length;
    std::memmove(data_ + dest, data_ + e.offset, e.length);
    e.offset = dest;
  }
  h.free_end = dest;
}

}  // namespace bionicdb::storage
