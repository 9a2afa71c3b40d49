#include "condsel/optimizer/rule_engine.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "condsel/common/macros.h"
#include "condsel/query/join_graph.h"

namespace condsel {
namespace {

using EntryKey = std::tuple<OpKind, int, std::vector<int>>;

EntryKey KeyOf(const MemoExpr& e) {
  std::vector<int> inputs = e.inputs;
  std::sort(inputs.begin(), inputs.end());
  return {e.op, e.predicate, std::move(inputs)};
}

class RuleEngine {
 public:
  RuleEngine(Memo* memo, RuleEngineStats* stats)
      : memo_(memo), stats_(stats) {}

  int Run(PredSet preds) {
    const int root = SeedInitialPlan(preds);
    // Fixpoint: keep sweeping all groups until a full sweep adds nothing.
    bool changed = true;
    while (changed) {
      changed = false;
      if (stats_ != nullptr) ++stats_->rounds;
      // Group/entry counts grow during the sweep; index-based loops pick
      // up additions in later sweeps.
      for (int g = 0; g < memo_->num_groups(); ++g) {
        const size_t n_entries = memo_->group(g).exprs.size();
        for (size_t e = 0; e < n_entries; ++e) {
          changed |= ApplyRules(g, static_cast<int>(e));
        }
      }
    }
    return root;
  }

 private:
  const Query& query() const { return memo_->query(); }

  // Creates/returns a group; new predicate-free groups get a SCAN entry.
  int MakeGroup(PredSet preds, TableSet tables) {
    const int before = memo_->num_groups();
    const int id = memo_->GetOrCreateGroup(preds, tables);
    if (id >= before && preds == 0) {
      CONDSEL_CHECK(SetSize(tables) == 1);
      MemoExpr scan;
      scan.op = OpKind::kScan;
      memo_->group(id).exprs.push_back(scan);
      NoteEntry();
    }
    return id;
  }

  void NoteEntry() {
    if (stats_ != nullptr) ++stats_->entries_added;
  }

  // Adds `e` to group `g` unless an equivalent entry exists.
  bool AddEntry(int g, MemoExpr e) {
    const EntryKey key = KeyOf(e);
    auto& keys = entry_keys_[g];
    if (!keys.insert(key).second) return false;
    memo_->group(g).exprs.push_back(std::move(e));
    NoteEntry();
    return true;
  }

  // Registers pre-existing entries (from seeding) in the dedupe set.
  void RegisterExisting(int g) {
    auto& keys = entry_keys_[g];
    for (const MemoExpr& e : memo_->group(g).exprs) keys.insert(KeyOf(e));
  }

  int SeedInitialPlan(PredSet preds) {
    const Query& q = query();
    CONDSEL_CHECK_MSG(
        ConnectedComponents(q, preds).size() <= 1,
        "rule engine seeds connected predicate sets only");

    // Left-deep join chain in a connectivity-respecting predicate order,
    // filters stacked on top in index order.
    std::vector<int> joins = SetElements(preds & q.join_predicates());
    std::vector<int> order;
    TableSet covered = 0;
    while (!joins.empty()) {
      bool advanced = false;
      for (size_t i = 0; i < joins.size(); ++i) {
        const Predicate& p = q.predicate(joins[i]);
        if (covered == 0 || (p.tables() & covered) != 0) {
          order.push_back(joins[i]);
          covered |= p.tables();
          joins.erase(joins.begin() + static_cast<long>(i));
          advanced = true;
          break;
        }
      }
      CONDSEL_CHECK_MSG(advanced, "join graph not connected");
    }

    int current = -1;
    PredSet applied = 0;
    TableSet tables = 0;
    if (order.empty()) {
      // Filters only: a single table (connected set without joins).
      tables = TablesOf(q.predicates(), preds);
      CONDSEL_CHECK(SetSize(tables) == 1);
      current = MakeGroup(0, tables);
    } else {
      const Predicate& first = q.predicate(order[0]);
      const int left = MakeGroup(0, 1u << first.left().table);
      const int right = MakeGroup(0, 1u << first.right().table);
      tables = first.tables();
      applied = With(applied, order[0]);
      current = MakeGroup(applied, tables);
      MemoExpr join;
      join.op = OpKind::kJoin;
      join.predicate = order[0];
      join.inputs = {left, right};
      memo_->group(current).exprs.push_back(join);
      NoteEntry();
      for (size_t k = 1; k < order.size(); ++k) {
        const Predicate& p = q.predicate(order[k]);
        const TableSet new_table = p.tables() & ~tables;
        const int prev = current;
        applied = With(applied, order[k]);
        if (new_table == 0) {
          // Cycle edge: apply as a residual predicate over the chain.
          current = MakeGroup(applied, tables);
          MemoExpr res;
          res.op = OpKind::kSelect;
          res.predicate = order[k];
          res.inputs = {prev};
          memo_->group(current).exprs.push_back(res);
          NoteEntry();
          continue;
        }
        CONDSEL_CHECK(SetSize(new_table) == 1);
        const int leaf = MakeGroup(0, new_table);
        tables |= p.tables();
        current = MakeGroup(applied, tables);
        MemoExpr j;
        j.op = OpKind::kJoin;
        j.predicate = order[k];
        j.inputs = {prev, leaf};
        memo_->group(current).exprs.push_back(j);
        NoteEntry();
      }
    }
    for (int fidx : SetElements(preds & q.filter_predicates())) {
      const int prev = current;
      applied = With(applied, fidx);
      current = MakeGroup(applied, tables);
      MemoExpr sel;
      sel.op = OpKind::kSelect;
      sel.predicate = fidx;
      sel.inputs = {prev};
      memo_->group(current).exprs.push_back(sel);
      NoteEntry();
    }
    for (int g = 0; g < memo_->num_groups(); ++g) RegisterExisting(g);
    return current;
  }

  bool ApplyRules(int g, int entry_index) {
    // Copy the entry: AddEntry may reallocate the entry vector.
    const MemoExpr e =
        memo_->group(g).exprs[static_cast<size_t>(entry_index)];
    const PredSet g_preds = memo_->group(g).preds;
    const TableSet g_tables = memo_->group(g).tables;
    const Query& q = query();
    bool changed = false;

    if (e.op == OpKind::kSelect) {
      const int child = e.inputs[0];
      const size_t n_child = memo_->group(child).exprs.size();
      for (size_t ci = 0; ci < n_child; ++ci) {
        const MemoExpr ce = memo_->group(child).exprs[ci];
        if (ce.op == OpKind::kSelect) {
          // SELECT-COMMUTE: hoist the child's filter above ours.
          const int mid = MakeGroup(Without(g_preds, ce.predicate), g_tables);
          MemoExpr below;
          below.op = OpKind::kSelect;
          below.predicate = e.predicate;
          below.inputs = {ce.inputs[0]};
          changed |= AddEntry(mid, below);
          MemoExpr above;
          above.op = OpKind::kSelect;
          above.predicate = ce.predicate;
          above.inputs = {mid};
          changed |= AddEntry(g, above);
        } else if (ce.op == OpKind::kJoin) {
          const Predicate& f = q.predicate(e.predicate);
          // RESIDUAL-SWAP: a residual join predicate above a join that
          // spans the same two sides can trade places with the operator:
          //   sigma_p(L join_a R)  =>  sigma_a(L join_p R).
          if (f.is_join() && ce.predicate >= 0) {
            const TableSet lt = memo_->group(ce.inputs[0]).tables;
            const TableSet rt = memo_->group(ce.inputs[1]).tables;
            if ((f.tables() & lt) != 0 && (f.tables() & rt) != 0) {
              const int mid =
                  MakeGroup(Without(g_preds, ce.predicate), g_tables);
              MemoExpr join;
              join.op = OpKind::kJoin;
              join.predicate = e.predicate;
              join.inputs = ce.inputs;
              changed |= AddEntry(mid, join);
              MemoExpr sel;
              sel.op = OpKind::kSelect;
              sel.predicate = ce.predicate;
              sel.inputs = {mid};
              changed |= AddEntry(g, sel);
            }
          }
          // SELECT-PUSH: sink our filter into the side it references.
          for (int side = 0; side < 2; ++side) {
            const int in = ce.inputs[static_cast<size_t>(side)];
            const Group& ig = memo_->group(in);
            if (!IsSubset(f.tables(), ig.tables)) continue;
            const int pushed =
                MakeGroup(With(ig.preds, e.predicate), ig.tables);
            MemoExpr below;
            below.op = OpKind::kSelect;
            below.predicate = e.predicate;
            below.inputs = {in};
            changed |= AddEntry(pushed, below);
            MemoExpr join;
            join.op = OpKind::kJoin;
            join.predicate = ce.predicate;
            join.inputs = side == 0
                              ? std::vector<int>{pushed, ce.inputs[1]}
                              : std::vector<int>{ce.inputs[0], pushed};
            changed |= AddEntry(g, join);
          }
        }
      }
      return changed;
    }

    if (e.op != OpKind::kJoin) return false;

    for (int side = 0; side < 2; ++side) {
      const int in = e.inputs[static_cast<size_t>(side)];
      const int other = e.inputs[static_cast<size_t>(1 - side)];
      const size_t n_in = memo_->group(in).exprs.size();
      for (size_t ci = 0; ci < n_in; ++ci) {
        const MemoExpr ie = memo_->group(in).exprs[ci];
        if (ie.op == OpKind::kSelect) {
          // SELECT-PULL: lift the input's filter above the join.
          const int lowered = MakeGroup(
              Without(g_preds, ie.predicate), g_tables);
          MemoExpr join;
          join.op = OpKind::kJoin;
          join.predicate = e.predicate;
          join.inputs = side == 0
                            ? std::vector<int>{ie.inputs[0], other}
                            : std::vector<int>{other, ie.inputs[0]};
          changed |= AddEntry(lowered, join);
          MemoExpr sel;
          sel.op = OpKind::kSelect;
          sel.predicate = ie.predicate;
          sel.inputs = {lowered};
          changed |= AddEntry(g, sel);
        } else if (ie.op == OpKind::kJoin) {
          // JOIN-ASSOC: (T1 a T2) j R  =>  T1 a (T2 j R), in all
          // orientations (side/commute are handled by iterating both
          // sides and both inner inputs).
          for (int inner_side = 0; inner_side < 2; ++inner_side) {
            const int t1 = ie.inputs[static_cast<size_t>(inner_side)];
            const int t2 = ie.inputs[static_cast<size_t>(1 - inner_side)];
            const Group& g_t1 = memo_->group(t1);
            const Group& g_t2 = memo_->group(t2);
            const Group& g_r = memo_->group(other);
            const Predicate& pj = q.predicate(e.predicate);
            const Predicate& pa = q.predicate(ie.predicate);
            // j must only touch T2 and R; a must touch T1.
            if (!IsSubset(pj.tables(), g_t2.tables | g_r.tables)) continue;
            if ((pa.tables() & g_t1.tables) == 0) continue;
            const int inner =
                MakeGroup(g_t2.preds | g_r.preds | (1u << e.predicate),
                          g_t2.tables | g_r.tables);
            MemoExpr inner_join;
            inner_join.op = OpKind::kJoin;
            inner_join.predicate = e.predicate;
            inner_join.inputs = {t2, other};
            changed |= AddEntry(inner, inner_join);
            MemoExpr outer;
            outer.op = OpKind::kJoin;
            outer.predicate = ie.predicate;
            outer.inputs = {t1, inner};
            changed |= AddEntry(g, outer);
          }
        }
      }
    }
    return changed;
  }

  Memo* memo_;
  RuleEngineStats* stats_;
  std::map<int, std::set<EntryKey>> entry_keys_;
};

}  // namespace

int ExploreWithRules(Memo* memo, PredSet preds, RuleEngineStats* stats) {
  CONDSEL_CHECK(memo != nullptr);
  RuleEngine engine(memo, stats);
  const int root = engine.Run(preds);
  if (stats != nullptr) {
    stats->rule_applications = stats->entries_added;
  }
  return root;
}

}  // namespace condsel
