#include "engine/plan.h"

#include <set>
#include <sstream>

namespace sinew::engine {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSeqScan:
      return "Seq Scan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kNestedLoopJoin:
      return "Nested Loop";
    case PlanKind::kHashJoin:
      return "Hash Join";
    case PlanKind::kMergeJoin:
      return "Merge Join";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kHashAggregate:
      return "HashAggregate";
    case PlanKind::kGroupAggregate:
      return "GroupAggregate";
    case PlanKind::kUnique:
      return "Unique";
    case PlanKind::kLimit:
      return "Limit";
    case PlanKind::kGather:
      return "Gather";
    case PlanKind::kExtract:
      return "SinewExtract";
  }
  return "?";
}

namespace {

std::string ExprListToString(const std::vector<ExprPtr>& exprs,
                             const std::vector<Datum>* params) {
  std::string out;
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs[i]->ToString(params);
  }
  return out;
}

void AppendNode(const PlanNode& node, int depth,
                const std::vector<Datum>* params, std::ostringstream* out) {
  for (int i = 0; i < depth; ++i) *out << "  ";
  if (depth > 0) *out << "-> ";
  *out << node.Summary(params) << "\n";
  for (const auto& child : node.children) {
    AppendNode(*child, depth + 1, params, out);
  }
}

}  // namespace

std::string PlanNode::Summary(const std::vector<Datum>* params) const {
  std::ostringstream out;
  out << PlanKindName(kind);
  switch (kind) {
    case PlanKind::kSeqScan:
      out << " on " << (table != nullptr ? table->name() : "?");
      if (!alias.empty() && (table == nullptr || alias != table->name())) {
        out << " " << alias;
      }
      if (scan_filter != nullptr) {
        out << " (filter: " << scan_filter->ToString(params) << ")";
      }
      if (!virtual_columns.empty()) {
        // Distinct source columns, and the columns resolved across several
        // of them (a dirty attribute's COALESCE semantics).
        std::set<int> sources;
        size_t coalesced = 0;
        for (const ExprPtr& v : virtual_columns) {
          for (const ExprPtr& source : v->args) {
            sources.insert(source->bound_slot);
          }
          if (v->args.size() > 1) ++coalesced;
        }
        out << " SinewExtract (attrs=" << virtual_columns.size()
            << ", sources=" << sources.size();
        if (coalesced > 0) out << ", coalesced=" << coalesced;
        out << ")";
      }
      break;
    case PlanKind::kFilter:
      out << " (" << (predicate != nullptr ? predicate->ToString(params) : "?")
          << ")";
      break;
    case PlanKind::kProject:
      out << " [" << ExprListToString(projections, params) << "]";
      break;
    case PlanKind::kHashJoin:
    case PlanKind::kMergeJoin:
      out << " (" << ExprListToString(left_keys, params) << " = "
          << ExprListToString(right_keys, params) << ")";
      break;
    case PlanKind::kSort:
      out << " (" << ExprListToString(sort_keys, params) << ")";
      break;
    case PlanKind::kHashAggregate:
    case PlanKind::kGroupAggregate:
      out << " (keys: " << ExprListToString(group_keys, params) << ")";
      break;
    case PlanKind::kGather:
      // Merge path is plan-derivable: a hash-aggregate child runs per-worker
      // partial aggregation merged at the barrier; anything else streams rows
      // through the bounded queue.
      out << " (workers=" << parallel_degree << ", morsel=" << kMorselRows
          << ", merge="
          << (!children.empty() &&
                      children[0]->kind == PlanKind::kHashAggregate
                  ? "partial-agg"
                  : "streaming")
          << ")";
      break;
    case PlanKind::kNestedLoopJoin:
    case PlanKind::kUnique:
    case PlanKind::kLimit:
    case PlanKind::kExtract:
      break;
  }
  out << " (rows=" << static_cast<uint64_t>(est_rows) << ")";
  return out.str();
}

std::string PlanNode::DebugString(const std::vector<Datum>* params) const {
  std::ostringstream out;
  AppendNode(*this, 0, params, &out);
  return out.str();
}

}  // namespace sinew::engine
