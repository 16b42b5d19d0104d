#include "src/engine/match.h"

#include <cassert>
#include <vector>

namespace seqdl {

Result<PathId> EvalExpr(Universe& u, const PathExpr& e, const Valuation& v) {
  // A lone bound variable (a head `Q($s)`, an index key `$k`) evaluates to
  // its binding as is: no value vector, no re-interning.
  if (e.items.size() == 1 && e.items[0].is_var() &&
      v.IsBound(e.items[0].var)) {
    return v.Get(e.items[0].var);
  }
  std::vector<Value> values;
  for (const ExprItem& it : e.items) {
    switch (it.kind) {
      case ExprItem::Kind::kConst:
        values.push_back(it.atom);
        break;
      case ExprItem::Kind::kAtomVar: {
        if (!v.IsBound(it.var)) {
          return Status::InvalidArgument("EvalExpr: unbound atomic variable @" +
                                         u.VarName(it.var));
        }
        std::span<const Value> p = u.GetPath(v.Get(it.var));
        assert(p.size() == 1 && p[0].is_atom());
        values.push_back(p[0]);
        break;
      }
      case ExprItem::Kind::kPathVar: {
        if (!v.IsBound(it.var)) {
          return Status::InvalidArgument("EvalExpr: unbound path variable $" +
                                         u.VarName(it.var));
        }
        std::span<const Value> p = u.GetPath(v.Get(it.var));
        values.insert(values.end(), p.begin(), p.end());
        break;
      }
      case ExprItem::Kind::kPack: {
        SEQDL_ASSIGN_OR_RETURN(PathId inner, EvalExpr(u, *it.pack, v));
        values.push_back(Value::Packed(inner));
        break;
      }
    }
  }
  return u.InternPath(values);
}

bool AllVarsBound(const PathExpr& e, const Valuation& v) {
  return ForEachVar(e, [&v](VarId x) { return v.IsBound(x); });
}

namespace {

// Marks a pending binding whose span has no known id yet.
constexpr PathId kUninterned = ~PathId{0};

// A stretch of ground path the matcher consumes: a tuple component or a
// packed inner path. `id` is the interned id of exactly `values`, so a
// binding that covers the whole region reuses it instead of interning.
struct Region {
  std::span<const Value> values;
  PathId id;
};

// Backtracking matcher over spans. Items are matched left to right against
// region.values[pos..]. A variable bound during enumeration is *pending*:
// it names a span of the ground path (Universe path storage, valid for the
// Universe's lifetime) and reaches the Valuation, interned, only once every
// argument has matched, right before the callback. Candidate splits that
// die inside the match intern nothing.
class Matcher {
 public:
  Matcher(Universe& u, std::span<const PathExpr> args,
          std::span<const PathId> tuple, Valuation& v,
          const std::function<bool(Valuation&)>& cb)
      : u_(u), args_(args), tuple_(tuple), v_(v), cb_(cb) {}

  // Returns false iff enumeration was stopped by the callback.
  bool Run() { return MatchArg(0); }

 private:
  // A variable bound to a span of the ground path, not yet interned. The
  // pending stack is a list threaded through the recursion's frames.
  struct Pending {
    VarId var;
    std::span<const Value> values;
    PathId id;  // kUninterned unless the span is a whole region
    const Pending* below;
  };

  // Where matching resumes once a packed subexpression has consumed its
  // inner path: the enclosing item list, just past the pack.
  struct Resume {
    const std::vector<ExprItem>* items;
    size_t idx;
    Region region;
    size_t pos;
    const Resume* up;
  };

  // Matches argument i against tuple component i, then the arguments
  // after it; past the last argument the match is complete.
  bool MatchArg(size_t i) {
    if (i == args_.size()) return Commit();
    arg_ = i;
    return Match(args_[i].items, 0, Region{u_.GetPath(tuple_[i]), tuple_[i]},
                 0, nullptr);
  }

  bool Match(const std::vector<ExprItem>& items, size_t item_idx,
             Region region, size_t pos, const Resume* up) {
    std::span<const Value> path = region.values;
    if (item_idx == items.size()) {
      if (pos != path.size()) return true;  // dead end, keep enumerating
      if (up != nullptr) {
        return Match(*up->items, up->idx, up->region, up->pos, up->up);
      }
      size_t arg = arg_;
      bool cont = MatchArg(arg + 1);
      arg_ = arg;
      return cont;
    }
    const ExprItem& it = items[item_idx];
    switch (it.kind) {
      case ExprItem::Kind::kConst: {
        if (pos < path.size() && path[pos] == it.atom) {
          return Match(items, item_idx + 1, region, pos + 1, up);
        }
        return true;
      }
      case ExprItem::Kind::kAtomVar: {
        if (pos >= path.size()) return true;
        Value val = path[pos];
        if (!val.is_atom()) return true;  // atomic vars take atomic values
        std::span<const Value> bound;
        if (Lookup(it.var, &bound)) {
          if (bound.size() != 1 || bound[0] != val) return true;
          return Match(items, item_idx + 1, region, pos + 1, up);
        }
        return MatchBinding(it.var, region, pos, 1, items, item_idx, up);
      }
      case ExprItem::Kind::kPathVar: {
        std::span<const Value> bound;
        if (Lookup(it.var, &bound)) {
          if (pos + bound.size() > path.size()) return true;
          for (size_t i = 0; i < bound.size(); ++i) {
            if (path[pos + i] != bound[i]) return true;
          }
          return Match(items, item_idx + 1, region, pos + bound.size(), up);
        }
        // Try all split lengths, shortest first, up to what the remaining
        // items leave over. When every remaining item has a fixed length,
        // only the longest split can reach the end of the region.
        size_t remaining = path.size() - pos;
        bool exact = false;
        size_t reserve = MinRemainingLength(items, item_idx + 1, &exact);
        if (reserve > remaining) return true;
        for (size_t len = exact ? remaining - reserve : 0;
             len <= remaining - reserve; ++len) {
          if (!MatchBinding(it.var, region, pos, len, items, item_idx, up)) {
            return false;
          }
        }
        return true;
      }
      case ExprItem::Kind::kPack: {
        if (pos >= path.size() || !path[pos].is_packed()) return true;
        // Match the packed subexpression against the packed path, then
        // resume with the remaining outer items.
        PathId inner = path[pos].packed_path();
        Resume resume{&items, item_idx + 1, region, pos + 1, up};
        return Match(it.pack->items, 0, Region{u_.GetPath(inner), inner}, 0,
                     &resume);
      }
    }
    return true;
  }

  // Binds `var` to region.values[pos, pos+len) as a pending span and
  // matches the items after it.
  bool MatchBinding(VarId var, Region region, size_t pos, size_t len,
                    const std::vector<ExprItem>& items, size_t item_idx,
                    const Resume* up) {
    bool whole = pos == 0 && len == region.values.size();
    Pending p{var, region.values.subspan(pos, len),
              whole ? region.id : kUninterned, pending_};
    pending_ = &p;
    bool cont = Match(items, item_idx + 1, region, pos + len, up);
    pending_ = p.below;
    return cont;
  }

  // The values `var` is bound to, pending or in the valuation.
  bool Lookup(VarId var, std::span<const Value>* out) const {
    for (const Pending* p = pending_; p != nullptr; p = p->below) {
      if (p->var == var) {
        *out = p->values;
        return true;
      }
    }
    if (!v_.IsBound(var)) return false;
    *out = u_.GetPath(v_.Get(var));
    return true;
  }

  // A complete match: intern every pending span, bind it, run the
  // callback, and unbind again, leaving the valuation as it was.
  bool Commit() {
    for (const Pending* p = pending_; p != nullptr; p = p->below) {
      v_.Bind(p->var, p->id != kUninterned ? p->id : u_.InternPath(p->values));
    }
    bool cont = cb_(v_);
    for (const Pending* p = pending_; p != nullptr; p = p->below) {
      v_.Unbind(p->var);
    }
    return cont;
  }

  // Minimal number of path values the items from `idx` on must consume;
  // *exact is set when that is also the only number they can consume (no
  // unbound path variable among them).
  size_t MinRemainingLength(const std::vector<ExprItem>& items, size_t idx,
                            bool* exact) const {
    size_t n = 0;
    *exact = true;
    for (size_t i = idx; i < items.size(); ++i) {
      const ExprItem& it = items[i];
      switch (it.kind) {
        case ExprItem::Kind::kConst:
        case ExprItem::Kind::kAtomVar:
        case ExprItem::Kind::kPack:
          ++n;
          break;
        case ExprItem::Kind::kPathVar: {
          std::span<const Value> bound;
          if (Lookup(it.var, &bound)) {
            n += bound.size();
          } else {
            *exact = false;
          }
          break;
        }
      }
    }
    return n;
  }

  Universe& u_;
  std::span<const PathExpr> args_;
  std::span<const PathId> tuple_;
  Valuation& v_;
  const std::function<bool(Valuation&)>& cb_;
  const Pending* pending_ = nullptr;  // top of the pending stack
  size_t arg_ = 0;                    // the argument being matched
};

}  // namespace

bool MatchExpr(Universe& u, const PathExpr& e, PathId p, Valuation& base,
               const std::function<bool(Valuation&)>& cb) {
  return Matcher(u, std::span(&e, 1), std::span(&p, 1), base, cb).Run();
}

bool MatchArgs(Universe& u, const std::vector<PathExpr>& args,
               const std::vector<PathId>& tuple, Valuation& base,
               const std::function<bool(Valuation&)>& cb) {
  assert(args.size() == tuple.size());
  return Matcher(u, args, tuple, base, cb).Run();
}

}  // namespace seqdl
