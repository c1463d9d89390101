#include "db/locks.h"

namespace rcommit::db {

bool LockManager::try_lock(const std::string& key, TxnId txn) {
  const auto [it, inserted] = holders_.emplace(key, txn);
  if (!inserted) {
    if (it->second == txn) return true;  // already held, already recorded
    ++conflicts_;
    return false;
  }
  keys_of_[txn].push_back(key);
  return true;
}

bool LockManager::try_lock_all(const std::vector<std::string>& keys, TxnId txn) {
  for (const auto& key : keys) {
    if (!try_lock(key, txn)) {
      unlock_all(txn);
      return false;
    }
  }
  return true;
}

void LockManager::unlock_all(TxnId txn) {
  auto it = keys_of_.find(txn);
  if (it == keys_of_.end()) return;
  for (const auto& key : it->second) {
    auto holder_it = holders_.find(key);
    if (holder_it != holders_.end() && holder_it->second == txn) {
      holders_.erase(holder_it);
    }
  }
  keys_of_.erase(it);
}

std::optional<TxnId> LockManager::holder(const std::string& key) const {
  auto it = holders_.find(key);
  if (it == holders_.end()) return std::nullopt;
  return it->second;
}

}  // namespace rcommit::db
