#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace treewm::sat {

namespace {

constexpr double kVarActivityDecay = 1.0 / 0.95;
constexpr double kClauseActivityDecay = 1.0 / 0.999;
constexpr double kActivityRescaleLimit = 1e100;
constexpr uint64_t kRestartBase = 100;  // conflicts per Luby unit

/// Luby sequence value for 0-based index x: 1,1,2,1,1,2,4,1,1,2,...
uint64_t Luby(uint64_t x) {
  uint64_t size = 1;
  uint64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return 1ULL << seq;
}

}  // namespace

Solver::Solver() = default;

Var Solver::NewVar() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  saved_phase_.push_back(false);
  activity_.push_back(0.0);
  reason_.push_back(kNoReason);
  level_.push_back(0);
  heap_position_.push_back(-1);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  HeapInsert(v);
  return v;
}

void Solver::EnsureVars(int n) {
  while (num_vars() < n) NewVar();
}

bool Solver::AddClause(std::vector<Lit> lits) {
  if (unsat_) return false;
  assert(CurrentLevel() == 0);

  // Normalize: sort, strip duplicates, detect tautologies, drop literals
  // already false at level 0, drop the clause if some literal is true.
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> normalized;
  normalized.reserve(lits.size());
  for (const Lit& l : lits) {
    assert(l.var() >= 0 && l.var() < num_vars());
    if (!normalized.empty()) {
      if (normalized.back() == l) continue;            // duplicate
      if (normalized.back() == l.Negated()) return true;  // tautology
    }
    const LBool value = ValueOf(l);
    if (value == LBool::kTrue && level_[static_cast<size_t>(l.var())] == 0) {
      return true;  // already satisfied forever
    }
    if (value == LBool::kFalse && level_[static_cast<size_t>(l.var())] == 0) {
      continue;  // literal can never help
    }
    normalized.push_back(l);
  }

  if (normalized.empty()) {
    unsat_ = true;
    return false;
  }
  if (normalized.size() == 1) {
    const LBool value = ValueOf(normalized[0]);
    if (value == LBool::kFalse) {
      unsat_ = true;
      return false;
    }
    if (value == LBool::kUndef) Enqueue(normalized[0], kNoReason);
    // Propagate eagerly so later AddClause calls see level-0 consequences.
    if (Propagate() != kNoReason) {
      unsat_ = true;
      return false;
    }
    return true;
  }

  Clause clause;
  clause.lits = std::move(normalized);
  clauses_.push_back(std::move(clause));
  ++num_original_clauses_;
  AttachClause(static_cast<ClauseRef>(clauses_.size() - 1));
  return true;
}

void Solver::AttachClause(ClauseRef cref) {
  const Clause& c = clauses_[static_cast<size_t>(cref)];
  assert(c.lits.size() >= 2);
  watches_[static_cast<size_t>(c.lits[0].index())].push_back(cref);
  watches_[static_cast<size_t>(c.lits[1].index())].push_back(cref);
}

void Solver::Enqueue(Lit l, ClauseRef reason) {
  const size_t v = static_cast<size_t>(l.var());
  assert(assigns_[v] == LBool::kUndef);
  assigns_[v] = BoolToLBool(!l.negated());
  saved_phase_[v] = !l.negated();
  reason_[v] = reason;
  level_[v] = CurrentLevel();
  trail_.push_back(l);
}

Solver::ClauseRef Solver::Propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    const Lit false_lit = p.Negated();
    std::vector<ClauseRef>& watch_list =
        watches_[static_cast<size_t>(false_lit.index())];

    size_t keep = 0;
    for (size_t i = 0; i < watch_list.size(); ++i) {
      const ClauseRef cref = watch_list[i];
      Clause& c = clauses_[static_cast<size_t>(cref)];
      // Ensure the falsified literal sits at position 1.
      if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
      assert(c.lits[1] == false_lit);

      if (ValueOf(c.lits[0]) == LBool::kTrue) {
        watch_list[keep++] = cref;  // clause satisfied; keep the watch
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (size_t k = 2; k < c.lits.size(); ++k) {
        if (ValueOf(c.lits[k]) != LBool::kFalse) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[static_cast<size_t>(c.lits[1].index())].push_back(cref);
          moved = true;
          break;
        }
      }
      if (moved) continue;

      // No replacement: the clause is unit or conflicting.
      watch_list[keep++] = cref;
      if (ValueOf(c.lits[0]) == LBool::kFalse) {
        // Conflict: keep the remaining watches and report.
        for (size_t j = i + 1; j < watch_list.size(); ++j) {
          watch_list[keep++] = watch_list[j];
        }
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return cref;
      }
      Enqueue(c.lits[0], cref);
    }
    watch_list.resize(keep);
  }
  return kNoReason;
}

void Solver::Analyze(ClauseRef conflict, std::vector<Lit>* learnt,
                     int* backtrack_level) {
  learnt->clear();
  learnt->push_back(Lit::Undef());  // slot for the asserting literal

  int counter = 0;
  Lit p = Lit::Undef();
  ClauseRef confl = conflict;
  size_t index = trail_.size();

  do {
    assert(confl != kNoReason);
    Clause& c = clauses_[static_cast<size_t>(confl)];
    if (c.learnt) BumpClauseActivity(confl);
    const size_t start = (p == Lit::Undef()) ? 0 : 1;
    for (size_t j = start; j < c.lits.size(); ++j) {
      const Lit q = c.lits[j];
      const size_t v = static_cast<size_t>(q.var());
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = 1;
        BumpVarActivity(q.var());
        if (level_[v] >= CurrentLevel()) {
          ++counter;
        } else {
          learnt->push_back(q);
        }
      }
    }
    // Select the next trail literal marked seen.
    while (!seen_[static_cast<size_t>(trail_[index - 1].var())]) --index;
    --index;
    p = trail_[index];
    confl = reason_[static_cast<size_t>(p.var())];
    seen_[static_cast<size_t>(p.var())] = 0;
    --counter;
  } while (counter > 0);
  (*learnt)[0] = p.Negated();

  // Compute the backjump level and move its literal to position 1.
  if (learnt->size() == 1) {
    *backtrack_level = 0;
  } else {
    size_t max_index = 1;
    for (size_t i = 2; i < learnt->size(); ++i) {
      if (level_[static_cast<size_t>((*learnt)[i].var())] >
          level_[static_cast<size_t>((*learnt)[max_index].var())]) {
        max_index = i;
      }
    }
    std::swap((*learnt)[1], (*learnt)[max_index]);
    *backtrack_level = level_[static_cast<size_t>((*learnt)[1].var())];
  }

  for (const Lit& l : *learnt) seen_[static_cast<size_t>(l.var())] = 0;
}

void Solver::Backtrack(int target_level) {
  if (CurrentLevel() <= target_level) return;
  const size_t new_size = static_cast<size_t>(trail_limits_[static_cast<size_t>(
      target_level)]);
  for (size_t i = trail_.size(); i > new_size; --i) {
    const Var v = trail_[i - 1].var();
    assigns_[static_cast<size_t>(v)] = LBool::kUndef;
    reason_[static_cast<size_t>(v)] = kNoReason;
    if (!HeapContains(v)) HeapInsert(v);
  }
  trail_.resize(new_size);
  trail_limits_.resize(static_cast<size_t>(target_level));
  propagate_head_ = trail_.size();
}

void Solver::BumpVarActivity(Var v) {
  double& a = activity_[static_cast<size_t>(v)];
  a += var_activity_increment_;
  if (a > kActivityRescaleLimit) {
    for (double& x : activity_) x *= 1e-100;
    var_activity_increment_ *= 1e-100;
  }
  const int pos = heap_position_[static_cast<size_t>(v)];
  if (pos >= 0) HeapUp(pos);
}

void Solver::DecayVarActivity() { var_activity_increment_ *= kVarActivityDecay; }

void Solver::BumpClauseActivity(ClauseRef cref) {
  Clause& c = clauses_[static_cast<size_t>(cref)];
  c.activity += clause_activity_increment_;
  if (c.activity > kActivityRescaleLimit) {
    for (Clause& cl : clauses_) {
      if (cl.learnt) cl.activity *= 1e-100;
    }
    clause_activity_increment_ *= 1e-100;
  }
}

void Solver::DecayClauseActivity() {
  clause_activity_increment_ *= kClauseActivityDecay;
}

void Solver::ReduceDb() {
  // Collect learnt clauses that are not the reason for a current assignment.
  std::vector<ClauseRef> candidates;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    const Clause& c = clauses_[i];
    if (!c.learnt || c.lits.empty()) continue;
    const Var v0 = c.lits[0].var();
    const bool locked = reason_[static_cast<size_t>(v0)] ==
                            static_cast<ClauseRef>(i) &&
                        assigns_[static_cast<size_t>(v0)] != LBool::kUndef;
    if (!locked && c.lits.size() > 2) candidates.push_back(static_cast<ClauseRef>(i));
  }
  std::sort(candidates.begin(), candidates.end(), [this](ClauseRef a, ClauseRef b) {
    return clauses_[static_cast<size_t>(a)].activity <
           clauses_[static_cast<size_t>(b)].activity;
  });
  const size_t remove_count = candidates.size() / 2;
  for (size_t i = 0; i < remove_count; ++i) {
    const ClauseRef cref = candidates[i];
    Clause& c = clauses_[static_cast<size_t>(cref)];
    for (int w = 0; w < 2; ++w) {
      auto& list = watches_[static_cast<size_t>(c.lits[static_cast<size_t>(w)].index())];
      list.erase(std::remove(list.begin(), list.end(), cref), list.end());
    }
    c.lits.clear();
    c.lits.shrink_to_fit();
    ++stats_.deleted_clauses;
  }
}

void Solver::HeapInsert(Var v) {
  heap_position_[static_cast<size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  HeapUp(static_cast<int>(heap_.size()) - 1);
}

Var Solver::HeapPopMax() {
  assert(!heap_.empty());
  const Var top = heap_[0];
  heap_position_[static_cast<size_t>(top)] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_position_[static_cast<size_t>(heap_[0])] = 0;
    heap_.pop_back();
    HeapDown(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

void Solver::HeapUp(int i) {
  const Var v = heap_[static_cast<size_t>(i)];
  const double a = activity_[static_cast<size_t>(v)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    const Var pv = heap_[static_cast<size_t>(parent)];
    if (activity_[static_cast<size_t>(pv)] >= a) break;
    heap_[static_cast<size_t>(i)] = pv;
    heap_position_[static_cast<size_t>(pv)] = i;
    i = parent;
  }
  heap_[static_cast<size_t>(i)] = v;
  heap_position_[static_cast<size_t>(v)] = i;
}

void Solver::HeapDown(int i) {
  const int n = static_cast<int>(heap_.size());
  const Var v = heap_[static_cast<size_t>(i)];
  const double a = activity_[static_cast<size_t>(v)];
  while (true) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[static_cast<size_t>(heap_[static_cast<size_t>(child + 1)])] >
            activity_[static_cast<size_t>(heap_[static_cast<size_t>(child)])]) {
      ++child;
    }
    const Var cv = heap_[static_cast<size_t>(child)];
    if (a >= activity_[static_cast<size_t>(cv)]) break;
    heap_[static_cast<size_t>(i)] = cv;
    heap_position_[static_cast<size_t>(cv)] = i;
    i = child;
  }
  heap_[static_cast<size_t>(i)] = v;
  heap_position_[static_cast<size_t>(v)] = i;
}

Lit Solver::PickBranchLit() {
  while (!heap_.empty()) {
    const Var v = HeapPopMax();
    if (assigns_[static_cast<size_t>(v)] == LBool::kUndef) {
      return Lit::Make(v, !saved_phase_[static_cast<size_t>(v)]);
    }
  }
  return Lit::Undef();
}

SatResult Solver::Solve(const SolveBudget& budget) {
  stats_ = SolveStats{};
  if (unsat_) return SatResult::kUnsat;
  Backtrack(0);
  // Re-seed the heap with all unassigned variables (previous Solve calls may
  // have emptied it).
  for (Var v = 0; v < num_vars(); ++v) {
    if (assigns_[static_cast<size_t>(v)] == LBool::kUndef && !HeapContains(v)) {
      HeapInsert(v);
    }
  }

  uint64_t conflicts_until_restart = kRestartBase * Luby(stats_.restarts);
  uint64_t conflicts_since_restart = 0;
  size_t max_learnts = std::max<size_t>(4096, num_original_clauses_ / 2);

  while (true) {
    const ClauseRef conflict = Propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      if (CurrentLevel() == 0) {
        unsat_ = true;
        return SatResult::kUnsat;
      }
      std::vector<Lit> learnt;
      int backtrack_level = 0;
      Analyze(conflict, &learnt, &backtrack_level);
      Backtrack(backtrack_level);
      if (learnt.size() == 1) {
        Enqueue(learnt[0], kNoReason);
      } else {
        Clause clause;
        clause.lits = std::move(learnt);
        clause.learnt = true;
        clause.activity = clause_activity_increment_;
        clauses_.push_back(std::move(clause));
        const ClauseRef cref = static_cast<ClauseRef>(clauses_.size() - 1);
        AttachClause(cref);
        ++stats_.learnt_clauses;
        Enqueue(clauses_.back().lits[0], cref);
      }
      DecayVarActivity();
      DecayClauseActivity();
      continue;
    }

    if (budget.max_conflicts != 0 && stats_.conflicts >= budget.max_conflicts) {
      return SatResult::kUnknown;
    }
    if (budget.max_propagations != 0 &&
        stats_.propagations >= budget.max_propagations) {
      return SatResult::kUnknown;
    }
    if (conflicts_since_restart >= conflicts_until_restart) {
      ++stats_.restarts;
      conflicts_since_restart = 0;
      conflicts_until_restart = kRestartBase * Luby(stats_.restarts);
      Backtrack(0);
      continue;
    }
    if (stats_.learnt_clauses - stats_.deleted_clauses > max_learnts) {
      ReduceDb();
      max_learnts = max_learnts + max_learnts / 2;
    }

    const Lit decision = PickBranchLit();
    if (decision == Lit::Undef()) return SatResult::kSat;  // all vars assigned
    ++stats_.decisions;
    trail_limits_.push_back(static_cast<int>(trail_.size()));
    Enqueue(decision, kNoReason);
  }
}

bool Solver::ModelValue(Var v) const {
  assert(v >= 0 && v < num_vars());
  assert(assigns_[static_cast<size_t>(v)] != LBool::kUndef);
  return assigns_[static_cast<size_t>(v)] == LBool::kTrue;
}

std::vector<bool> Solver::Model() const {
  std::vector<bool> model(static_cast<size_t>(num_vars()));
  for (Var v = 0; v < num_vars(); ++v) {
    model[static_cast<size_t>(v)] =
        assigns_[static_cast<size_t>(v)] == LBool::kTrue;
  }
  return model;
}

bool Solver::ModelSatisfiesFormula(const std::vector<bool>& model) const {
  size_t checked = 0;
  for (const Clause& c : clauses_) {
    if (c.learnt) continue;
    if (c.lits.empty()) continue;  // deleted
    ++checked;
    bool satisfied = false;
    for (const Lit& l : c.lits) {
      const bool value = model[static_cast<size_t>(l.var())] != l.negated();
      if (value) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  (void)checked;  // discard ok: assert-only bookkeeping, unused in release
  return true;
}

bool LoadIntoSolver(const CnfFormula& formula, Solver* solver) {
  solver->EnsureVars(formula.num_vars);
  for (const auto& clause : formula.clauses) {
    if (!solver->AddClause(clause)) return false;
  }
  return true;
}

}  // namespace treewm::sat
