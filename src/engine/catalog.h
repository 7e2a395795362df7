// The engine's system catalog of tables.

#ifndef SINEW_ENGINE_CATALOG_H_
#define SINEW_ENGINE_CATALOG_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/table.h"

namespace sinew::engine {

class Catalog {
 public:
  Result<Table*> CreateTable(std::string name, Schema schema) {
    std::lock_guard lock(mutex_);
    if (tables_.count(name) != 0) {
      return Status::AlreadyExists("table ", name, " already exists");
    }
    auto table = std::make_unique<Table>(name, std::move(schema));
    Table* ptr = table.get();
    tables_.emplace(std::move(name), std::move(table));
    version_.fetch_add(1, std::memory_order_acq_rel);
    return ptr;
  }

  Result<Table*> GetTable(std::string_view name) const {
    std::lock_guard lock(mutex_);
    auto it = tables_.find(std::string(name));
    if (it == tables_.end()) {
      return Status::NotFound("table ", name, " does not exist");
    }
    return it->second.get();
  }

  Status DropTable(std::string_view name) {
    std::lock_guard lock(mutex_);
    auto it = tables_.find(std::string(name));
    if (it == tables_.end()) {
      return Status::NotFound("table ", name, " does not exist");
    }
    tables_.erase(it);
    version_.fetch_add(1, std::memory_order_acq_rel);
    return Status::OK();
  }

  /// Monotonic counter bumped by every CREATE and DROP: while it holds, a
  /// Table* obtained earlier still names the same live table.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  std::vector<std::string> TableNames() const {
    std::lock_guard lock(mutex_);
    std::vector<std::string> names;
    names.reserve(tables_.size());
    for (const auto& [name, table] : tables_) names.push_back(name);
    return names;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::atomic<uint64_t> version_{0};
};

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_CATALOG_H_
