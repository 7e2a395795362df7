#include "common/query_log.h"

#include <cctype>

namespace sinew::qlog {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Chars that end or start a word-like token: whitespace between two of
/// them is significant and collapses to one space ("select ?", "a "b"").
bool IsWordChar(char c) { return IsIdentChar(c) || c == '?' || c == '"'; }

bool IsNumberStart(char c, char prev_significant) {
  if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
  // A digit continuing an identifier (t2, col_3) is not a literal.
  return !IsIdentChar(prev_significant);
}

}  // namespace

std::string NormalizeFingerprint(std::string_view sql) {
  std::string out;
  out.reserve(sql.size());
  char prev = '\0';  // last significant (non-space) char emitted
  bool pending_space = false;
  auto emit = [&](char c) {
    if (pending_space) {
      // Collapse runs of whitespace to one space, and drop it entirely at
      // token boundaries where it carries no meaning ("a , b" == "a,b").
      if (!out.empty() && IsWordChar(prev) && IsWordChar(c)) {
        out.push_back(' ');
      }
      pending_space = false;
    }
    out.push_back(c);
    prev = c;
  };
  size_t i = 0;
  while (i < sql.size()) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      pending_space = true;
      ++i;
      continue;
    }
    if (c == '\'' || c == '"') {
      // A single-quoted string is a value and becomes '?'. A double-quoted
      // identifier names an attribute ("nested_obj.str") and is kept
      // verbatim, case and all, so queries over different attributes never
      // share a fingerprint. Doubled quotes escape in both.
      const size_t start = i;
      ++i;
      while (i < sql.size()) {
        if (sql[i] == c) {
          if (i + 1 < sql.size() && sql[i + 1] == c) {
            i += 2;
            continue;
          }
          ++i;
          break;
        }
        ++i;
      }
      if (c == '\'') {
        emit('?');
      } else {
        emit('"');
        out.append(sql.substr(start + 1, i - start - 1));
        prev = '"';
      }
      continue;
    }
    // Whitespace is a token break: in "LIMIT 10" the digit starts a literal
    // even though the last significant char is an identifier's.
    if (IsNumberStart(c, pending_space ? ' ' : prev)) {
      while (i < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[i])) != 0 ||
              sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E' ||
              ((sql[i] == '+' || sql[i] == '-') &&
               (sql[i - 1] == 'e' || sql[i - 1] == 'E')))) {
        ++i;
      }
      // A preceding unary minus folds into the literal: "x > -5" and
      // "x > 7" must share a fingerprint.
      if (prev == '-' && !out.empty() && out.back() == '-' &&
          (out.size() < 2 || !IsIdentChar(out[out.size() - 2]))) {
        out.pop_back();
        prev = out.empty() ? '\0' : out.back();
      }
      emit('?');
      continue;
    }
    emit(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
    ++i;
  }
  // Trailing statement terminator is noise.
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

uint64_t HashFingerprint(std::string_view fingerprint) {
  uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (char c : fingerprint) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

#if !defined(SINEW_METRICS_DISABLED)

void QueryLog::Append(QueryRecord record) {
  std::lock_guard lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else if (capacity_ > 0) {
    ring_[next_] = std::move(record);
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
  } else {
    ++dropped_;
  }
}

std::vector<QueryRecord> QueryLog::Records() const {
  std::lock_guard lock(mu_);
  std::vector<QueryRecord> out;
  out.reserve(ring_.size());
  const size_t n = ring_.size();
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring_[n < capacity_ ? i : (next_ + i) % n]);
  }
  return out;
}

uint64_t QueryLog::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

void QueryLog::SetCapacity(size_t capacity) {
  std::lock_guard lock(mu_);
  capacity_ = capacity;
  ring_.clear();
  next_ = 0;
  dropped_ = 0;
}

void QueryLog::Clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
  next_ = 0;
  dropped_ = 0;
}

#endif  // !SINEW_METRICS_DISABLED

QueryLog* QueryLog::Global() {
  // Immortal, like MetricsRegistry::Global(): safe from static destructors.
  static QueryLog* log = new QueryLog();
  return log;
}

}  // namespace sinew::qlog
