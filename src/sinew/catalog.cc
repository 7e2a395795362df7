#include "sinew/catalog.h"

namespace sinew {

Result<uint32_t> AttributeCatalog::Intern(std::string_view key,
                                          ValueType type) {
  std::lock_guard lock(mutex_);
  const size_t before = dict_.size();
  Result<uint32_t> id = dict_.Intern(key, type);
  if (id.ok() && dict_.size() != before) {
    version_.fetch_add(1, std::memory_order_release);
  }
  return id;
}

std::optional<uint32_t> AttributeCatalog::FindId(std::string_view key,
                                                 ValueType type) const {
  std::lock_guard lock(mutex_);
  return dict_.FindId(key, type);
}

Result<serial::Attribute> AttributeCatalog::Lookup(uint32_t id) const {
  std::lock_guard lock(mutex_);
  return dict_.Lookup(id);
}

std::vector<serial::Attribute> AttributeCatalog::FindAllTypes(
    std::string_view key) const {
  std::lock_guard lock(mutex_);
  return dict_.FindAllTypes(key);
}

size_t AttributeCatalog::size() const {
  std::lock_guard lock(mutex_);
  return dict_.size();
}

void AttributeCatalog::RegisterTable(const std::string& table) {
  std::lock_guard lock(mutex_);
  if (tables_.try_emplace(table).second) BumpEpochLocked(table);
  latches_.try_emplace(table, std::make_unique<std::mutex>());
}

bool AttributeCatalog::HasTable(const std::string& table) const {
  std::lock_guard lock(mutex_);
  return tables_.count(table) != 0;
}

void AttributeCatalog::AddOccurrences(const std::string& table,
                                      uint32_t attr_id, uint64_t delta) {
  std::lock_guard lock(mutex_);
  auto [it, added] = tables_[table].try_emplace(attr_id);
  AttributeState& state = it->second;
  state.attr_id = attr_id;
  state.count += delta;
  if (added) BumpEpochLocked(table);
}

Status AttributeCatalog::SetMaterialized(const std::string& table,
                                         uint32_t attr_id, bool materialized) {
  std::lock_guard lock(mutex_);
  auto t = tables_.find(table);
  if (t == tables_.end()) return Status::NotFound("table ", table);
  auto a = t->second.find(attr_id);
  if (a == t->second.end()) {
    return Status::NotFound("attribute ", attr_id, " in table ", table);
  }
  if (a->second.materialized != materialized) {
    a->second.materialized = materialized;
    a->second.dirty = true;  // data movement now pending
    BumpEpochLocked(table);
  }
  return Status::OK();
}

Status AttributeCatalog::SetDirty(const std::string& table, uint32_t attr_id,
                                  bool dirty) {
  std::lock_guard lock(mutex_);
  auto t = tables_.find(table);
  if (t == tables_.end()) return Status::NotFound("table ", table);
  auto a = t->second.find(attr_id);
  if (a == t->second.end()) {
    return Status::NotFound("attribute ", attr_id, " in table ", table);
  }
  if (a->second.dirty != dirty) {
    a->second.dirty = dirty;
    BumpEpochLocked(table);
  }
  return Status::OK();
}

std::optional<AttributeState> AttributeCatalog::GetState(
    const std::string& table, uint32_t attr_id) const {
  std::lock_guard lock(mutex_);
  auto t = tables_.find(table);
  if (t == tables_.end()) return std::nullopt;
  auto a = t->second.find(attr_id);
  if (a == t->second.end()) return std::nullopt;
  return a->second;
}

std::vector<AttributeState> AttributeCatalog::TableAttributes(
    const std::string& table) const {
  std::lock_guard lock(mutex_);
  std::vector<AttributeState> out;
  auto t = tables_.find(table);
  if (t == tables_.end()) return out;
  out.reserve(t->second.size());
  for (const auto& [id, state] : t->second) out.push_back(state);
  return out;
}

std::vector<uint32_t> AttributeCatalog::DirtyAttributes(
    const std::string& table) const {
  std::lock_guard lock(mutex_);
  std::vector<uint32_t> out;
  auto t = tables_.find(table);
  if (t == tables_.end()) return out;
  for (const auto& [id, state] : t->second) {
    if (state.dirty) out.push_back(id);
  }
  return out;
}

uint64_t AttributeCatalog::LastEpoch() const {
  std::lock_guard lock(mutex_);
  return last_epoch_;
}

uint64_t AttributeCatalog::StateEpoch(std::string_view table) const {
  std::lock_guard lock(mutex_);
  auto it = epochs_.find(table);
  return it == epochs_.end() ? 0 : it->second;
}

std::vector<std::string> AttributeCatalog::TableNames() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, attrs] : tables_) {
    (void)attrs;
    out.push_back(name);
  }
  return out;
}

void AttributeCatalog::RecordHeat(const std::string& table, uint32_t attr_id,
                                  uint64_t requests, uint64_t strip_served,
                                  uint64_t reservoir_served,
                                  uint64_t decode_ns,
                                  uint64_t query_ordinal) {
  std::lock_guard lock(mutex_);
  AttrHeat& heat = heat_[table][attr_id];
  heat.extract_requests += requests;
  heat.strip_served += strip_served;
  heat.reservoir_served += reservoir_served;
  heat.decode_ns += decode_ns;
  if (query_ordinal > heat.last_touched_ordinal) {
    heat.last_touched_ordinal = query_ordinal;
  }
}

std::map<uint32_t, AttrHeat> AttributeCatalog::HeatSnapshot(
    const std::string& table) const {
  std::lock_guard lock(mutex_);
  auto t = heat_.find(table);
  return t == heat_.end() ? std::map<uint32_t, AttrHeat>{} : t->second;
}

std::mutex& AttributeCatalog::MaintenanceLatch(const std::string& table) {
  std::lock_guard lock(mutex_);
  auto& latch = latches_[table];
  if (latch == nullptr) latch = std::make_unique<std::mutex>();
  return *latch;
}

std::map<std::string, AttributeCatalog::ResolvedPath, std::less<>>
AttributeCatalog::ResolveBatch(const std::string& table,
                               const std::vector<std::string>& paths) const {
  std::lock_guard lock(mutex_);
  std::map<std::string, ResolvedPath, std::less<>> out;
  auto t = tables_.find(table);
  auto state_of = [&](uint32_t id) -> std::optional<AttributeState> {
    if (t == tables_.end()) return std::nullopt;
    auto a = t->second.find(id);
    if (a == t->second.end()) return std::nullopt;
    return a->second;
  };
  for (const std::string& path : paths) {
    if (out.count(path) != 0) continue;
    ResolvedPath resolved;
    resolved.types = dict_.FindAllTypes(path);
    for (const serial::Attribute& attr : resolved.types) {
      resolved.states.push_back(state_of(attr.id));
    }
    for (size_t dot = path.find('.'); dot != std::string::npos;
         dot = path.find('.', dot + 1)) {
      std::optional<uint32_t> oid =
          dict_.FindId(std::string_view(path).substr(0, dot),
                       ValueType::kObject);
      resolved.prefix_ids.push_back(oid);
      resolved.prefix_states.push_back(
          oid.has_value() ? state_of(*oid) : std::nullopt);
    }
    out.emplace(path, std::move(resolved));
  }
  return out;
}

AttributeCatalog::TopLevelKeys AttributeCatalog::ResolveTopLevel(
    const std::string& table) const {
  std::lock_guard lock(mutex_);
  TopLevelKeys out;
  auto t = tables_.find(table);
  if (t == tables_.end()) return out;
  const std::vector<serial::Attribute>& attrs = dict_.attributes();
  // Pass 1: number the keys in first-observed order and count variants.
  // Variants of one key share the dictionary's key head, so a key's group
  // is found by array index, not by hashing its name.
  struct Seen {
    uint32_t key;
    const serial::Attribute* attr;
    const AttributeState* state;
  };
  std::vector<Seen> seen;
  seen.reserve(t->second.size());
  std::vector<int32_t> key_of_head(attrs.size(), -1);
  std::vector<uint32_t> counts;
  for (const auto& [id, state] : t->second) {
    if (id >= attrs.size()) continue;
    const serial::Attribute& attr = attrs[id];
    if (attr.key.find('.') != std::string::npos) continue;  // nested subkey
    int32_t& key = key_of_head[dict_.KeyHead(id)];
    if (key < 0) {
      key = static_cast<int32_t>(counts.size());
      counts.push_back(0);
    }
    ++counts[static_cast<size_t>(key)];
    seen.push_back(Seen{static_cast<uint32_t>(key), &attr, &state});
  }
  // Pass 2: lay the variants out grouped by key (id order within a key).
  out.keys.reserve(counts.size());
  uint32_t begin = 0;
  for (uint32_t n : counts) {
    out.keys.emplace_back(begin, begin);
    begin += n;
  }
  out.variants.resize(seen.size());
  for (const Seen& v : seen) {
    out.variants[out.keys[v.key].second++] = KeyVariant{*v.attr, *v.state};
  }
  return out;
}

void AttributeCatalog::Clear() {
  std::lock_guard lock(mutex_);
  dict_.Clear();
  tables_.clear();
  heat_.clear();
  latches_.clear();
  epochs_.clear();
  version_.fetch_add(1, std::memory_order_release);
}

}  // namespace sinew
