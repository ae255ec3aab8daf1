#include "engine/incremental.h"

#include <unordered_set>
#include <utility>

#include "engine/batch_runner.h"

namespace tetris {

TupleTouch TouchedBoxOfTuple(const std::vector<int>& var_ids, int num_attrs,
                             int depth, const Tuple& t, DyadicBox* out) {
  DyadicBox box = DyadicBox::Universal(num_attrs);
  for (size_t c = 0; c < var_ids.size(); ++c) {
    const uint64_t v = t[c];
    if (depth > kMaxDepth || (v >> depth) != 0) {
      // A value off the depth-`depth` grid: the delta changes which
      // depth the query is even servable at, so nothing is provably
      // untouched.
      return TupleTouch::kEverything;
    }
    const DyadicInterval unit = DyadicInterval::Unit(v, depth);
    DyadicInterval& dim = box[var_ids[c]];
    if (dim.IsLambda()) {
      dim = unit;
    } else if (dim != unit) {
      // The atom binds two of its columns to the same query attribute
      // and this tuple disagrees on them: it can never project onto an
      // output point, so it touches nothing.
      return TupleTouch::kNone;
    }
  }
  *out = box;
  return TupleTouch::kBox;
}

std::vector<DyadicBox> TouchedOutputBoxes(const JoinQuery& query, int depth,
                                          const std::string& rel_name,
                                          const std::vector<Tuple>& changed) {
  std::vector<DyadicBox> boxes;
  std::unordered_set<DyadicBox, DyadicBoxHash> seen;
  const int n = query.num_attrs();
  for (const Atom& atom : query.atoms()) {
    if (atom.rel == nullptr || atom.rel->name() != rel_name) continue;
    for (const Tuple& t : changed) {
      DyadicBox box;
      switch (TouchedBoxOfTuple(atom.var_ids, n, depth, t, &box)) {
        case TupleTouch::kNone:
          break;
        case TupleTouch::kEverything:
          return {DyadicBox::Universal(n)};
        case TupleTouch::kBox:
          if (seen.insert(box).second) boxes.push_back(box);
          break;
      }
    }
  }
  return boxes;
}

PatchResult PatchJoin(const JoinQuery& query, EngineKind kind,
                      const EngineOptions& options,
                      const std::vector<Tuple>& old_tuples,
                      const std::vector<DyadicBox>& touched) {
  BatchQueryInputs patch;
  patch.patch_base = &old_tuples;
  patch.touched = touched;
  PatchResult out;
  out.result = RunOneQueryBatch(query, kind, options, std::move(patch));
  for (const ShardRunInfo& shard : out.result.shard_runs) {
    if (shard.kept) {
      out.tuples_kept += shard.output_tuples;
    } else {
      ++out.shards_rerun;
      out.tuples_patched += shard.output_tuples;
    }
  }
  out.shards_total = out.result.shard_runs.size();
  if (touched.empty()) out.tuples_kept = out.result.tuples.size();
  out.full_recompute =
      out.shards_total > 0 && out.shards_rerun == out.shards_total;
  out.note = out.result.shard_note;
  return out;
}

}  // namespace tetris
