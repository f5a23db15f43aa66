#include "txn/xct_manager.h"

#include "wal/recovery.h"

namespace bionicdb::txn {

const char* XctStateName(XctState s) {
  switch (s) {
    case XctState::kActive:
      return "Active";
    case XctState::kCommitting:
      return "Committing";
    case XctState::kCommitted:
      return "Committed";
    case XctState::kAborted:
      return "Aborted";
  }
  return "?";
}

std::unique_ptr<Xct> XctManager::Begin() {
  auto xct = std::make_unique<Xct>();
  Begin(xct.get());
  return xct;
}

void XctManager::Begin(Xct* xct) {
  xct->id = NextId();
  xct->priority = EncodePriority(xct->id);
  Bump(stats_.started);
}

sim::Task<Status> XctManager::EnsureBeginLogged(Xct* xct, int socket) {
  if (xct->begin_logged) co_return Status::OK();
  xct->begin_logged = true;
  wal::LogRecord rec;
  rec.type = wal::RecordType::kBegin;
  rec.txn_id = xct->id;
  rec.prev_lsn = wal::kInvalidLsn;
  xct->last_lsn = co_await log_->Append(std::move(rec), socket);
  co_return Status::OK();
}

sim::Task<Status> XctManager::LogWrite(Xct* xct, wal::RecordType type,
                                       uint32_t table_id, std::string key,
                                       std::string redo, std::string undo,
                                       int socket) {
  BIONICDB_CHECK(xct->state == XctState::kActive);
  co_await EnsureBeginLogged(xct, socket);
  wal::LogRecord rec;
  rec.type = type;
  rec.txn_id = xct->id;
  rec.table_id = table_id;
  rec.prev_lsn = xct->last_lsn;
  rec.key = key;
  rec.redo = std::move(redo);
  rec.undo = undo;
  xct->last_lsn = co_await log_->Append(std::move(rec), socket);
  UndoEntry entry;
  entry.type = type;
  entry.table_id = table_id;
  entry.key = std::move(key);
  entry.before = std::move(undo);
  xct->undo_chain.push_back(std::move(entry));
  co_return Status::OK();
}

sim::Task<Status> XctManager::Commit(Xct* xct, int socket) {
  const wal::Lsn lsn = co_await AppendCommitRecord(xct, socket);
  co_return co_await WaitCommitDurable(xct, lsn);
}

sim::Task<wal::Lsn> XctManager::AppendCommitRecord(Xct* xct, int socket) {
  BIONICDB_CHECK(xct->state == XctState::kActive);
  if (!xct->begin_logged) {
    // Read-only: nothing to make durable.
    xct->state = XctState::kCommitted;
    Bump(stats_.committed);
    Bump(stats_.read_only_commits);
    co_return wal::kInvalidLsn;
  }
  xct->state = XctState::kCommitting;
  wal::LogRecord rec;
  rec.type = wal::RecordType::kCommit;
  rec.txn_id = xct->id;
  rec.prev_lsn = xct->last_lsn;
  co_return co_await log_->Append(std::move(rec), socket);
}

sim::Task<Status> XctManager::WaitCommitDurable(Xct* xct,
                                                wal::Lsn commit_lsn) {
  if (commit_lsn == wal::kInvalidLsn) co_return Status::OK();  // read-only
  Status st = co_await log_->WaitDurable(commit_lsn + 1);
  if (!st.ok()) co_return st;
  xct->state = XctState::kCommitted;
  Bump(stats_.committed);
  co_return Status::OK();
}

sim::Task<wal::Lsn> XctManager::AppendPrepareRecord(Xct* xct, uint64_t gtid,
                                                    int socket) {
  BIONICDB_CHECK(xct->state == XctState::kActive);
  // Read-only branch: nothing to make durable, the vote is free.
  if (!xct->begin_logged) co_return wal::kInvalidLsn;
  wal::LogRecord rec;
  rec.type = wal::RecordType::kPrepare;
  rec.txn_id = xct->id;
  rec.prev_lsn = xct->last_lsn;
  rec.key = wal::EncodeGtid(gtid);
  xct->last_lsn = co_await log_->Append(std::move(rec), socket);
  Bump(stats_.prepared);
  co_return xct->last_lsn;
}

sim::Task<Status> XctManager::WaitPrepareDurable(wal::Lsn prepare_lsn) {
  if (prepare_lsn == wal::kInvalidLsn) co_return Status::OK();
  co_return co_await log_->WaitDurable(prepare_lsn + 1);
}

sim::Task<Status> XctManager::LogCommitDecision(uint64_t gtid, int socket) {
  wal::LogRecord rec;
  rec.type = wal::RecordType::kCoordCommit;
  rec.txn_id = gtid;
  rec.prev_lsn = wal::kInvalidLsn;
  const wal::Lsn lsn = co_await log_->Append(std::move(rec), socket);
  Status st = co_await log_->WaitDurable(lsn + 1);
  if (st.ok()) Bump(stats_.decisions_logged);
  co_return st;
}

sim::Task<Status> XctManager::LogForgetDecision(uint64_t gtid, int socket) {
  wal::LogRecord rec;
  rec.type = wal::RecordType::kCoordForget;
  rec.txn_id = gtid;
  rec.prev_lsn = wal::kInvalidLsn;
  co_await log_->Append(std::move(rec), socket);
  // No WaitDurable: the marker is advisory. If it never becomes durable the
  // kCoordCommit it retires simply stays live across the next recovery.
  Bump(stats_.decisions_retired);
  co_return Status::OK();
}

sim::Task<Status> XctManager::Abort(Xct* xct, const UndoApplier& applier,
                                    int socket) {
  BIONICDB_CHECK(xct->state == XctState::kActive);
  // Undo backwards, logging a CLR per reverted logged action.
  for (auto it = xct->undo_chain.rbegin(); it != xct->undo_chain.rend();
       ++it) {
    applier(*it);
    if (!it->index_name.empty()) continue;  // never logged: no compensation
    wal::LogRecord clr;
    clr.type = wal::RecordType::kClr;
    clr.txn_id = xct->id;
    clr.table_id = it->table_id;
    clr.prev_lsn = xct->last_lsn;
    clr.key = it->key;
    clr.redo = it->before;  // the CLR's redo is the restored before-image
    xct->last_lsn = co_await log_->Append(std::move(clr), socket);
  }
  if (xct->begin_logged) {
    wal::LogRecord rec;
    rec.type = wal::RecordType::kAbort;
    rec.txn_id = xct->id;
    rec.prev_lsn = xct->last_lsn;
    xct->last_lsn = co_await log_->Append(std::move(rec), socket);
  }
  xct->state = XctState::kAborted;
  Bump(stats_.aborted);
  co_return Status::OK();
}

}  // namespace bionicdb::txn
