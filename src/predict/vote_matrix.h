// Flat per-tree vote matrix — the batched `predict.all` output.
//
// A nested `vector<vector<int>>` costs one heap allocation per instance
// plus an int per vote; on the micro fixture that materialization alone
// capped the flat engine's end-to-end win at ~4.5-5× while Accuracy (no
// per-row output) ran 5-6×. VoteMatrix stores all votes of a batch in ONE
// contiguous row-major allocation of int8 (±1) entries, so producing it
// costs the same stores the traversal kernel makes anyway and consuming it
// is a linear scan:
//
//   vote(r, t)  ==  tree t's vote on row r  ==  data()[r * num_trees + t]
//
// Every consumer (verification scoring, witness validation, the attacks
// layer) reads rows in place.

#ifndef TREEWM_PREDICT_VOTE_MATRIX_H_
#define TREEWM_PREDICT_VOTE_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

namespace treewm::predict {

/// Row-major (num_rows × num_trees) matrix of ±1 votes in one allocation.
class VoteMatrix {
 public:
  VoteMatrix() = default;
  VoteMatrix(size_t num_rows, size_t num_trees)
      : num_rows_(num_rows),
        num_trees_(num_trees),
        votes_(num_rows * num_trees) {}

  size_t num_rows() const { return num_rows_; }
  size_t num_trees() const { return num_trees_; }
  bool empty() const { return num_rows_ == 0; }

  /// Tree t's vote (+1/-1) on row r.
  int8_t vote(size_t r, size_t t) const { return votes_[r * num_trees_ + t]; }

  /// Contiguous per-tree votes of row r.
  std::span<const int8_t> row(size_t r) const {
    return {votes_.data() + r * num_trees_, num_trees_};
  }
  int8_t* mutable_row(size_t r) { return votes_.data() + r * num_trees_; }

  /// Raw row-major storage (num_rows × num_trees).
  const int8_t* data() const { return votes_.data(); }

  /// Majority vote of row r with the ensemble tie rule (ties -> +1).
  int MajorityLabel(size_t r) const {
    int sum = 0;
    for (int8_t v : row(r)) sum += v;
    return sum >= 0 ? +1 : -1;
  }

  friend bool operator==(const VoteMatrix& a, const VoteMatrix& b) {
    return a.num_rows_ == b.num_rows_ && a.num_trees_ == b.num_trees_ &&
           a.votes_ == b.votes_;
  }

 private:
  size_t num_rows_ = 0;
  size_t num_trees_ = 0;
  std::vector<int8_t> votes_;
};

}  // namespace treewm::predict

#endif  // TREEWM_PREDICT_VOTE_MATRIX_H_
