#include "hash_join.h"

#include <algorithm>
#include <unordered_map>

namespace joinbench {
namespace {

struct TupleHash {
  size_t operator()(const tetris::Tuple& t) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (uint64_t v : t) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

int Find(const std::vector<std::string>& names, const std::string& a) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == a) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

NamedRows RowsOf(const tetris::Relation& rel) {
  return {rel.attrs(), rel.ToTuples()};
}

std::vector<tetris::Tuple> HashJoin(const std::vector<NamedRows>& rels) {
  std::vector<std::string> out_attrs;
  for (const NamedRows& r : rels) {
    for (const std::string& a : r.attrs) {
      if (Find(out_attrs, a) < 0) out_attrs.push_back(a);
    }
  }
  if (rels.empty()) return {};
  std::vector<std::string> bound = rels[0].attrs;
  std::vector<tetris::Tuple> partial = rels[0].rows;
  std::vector<bool> used(rels.size(), false);
  used[0] = true;
  for (size_t step = 1; step < rels.size(); ++step) {
    // Next: the unused relation sharing the most attributes with the
    // bound set (avoids cross products on connected queries).
    size_t pick = 0;
    int best = -1;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (used[i]) continue;
      int shared = 0;
      for (const std::string& a : rels[i].attrs) shared += Find(bound, a) >= 0;
      if (shared > best) {
        best = shared;
        pick = i;
      }
    }
    used[pick] = true;
    const NamedRows& r = rels[pick];
    std::vector<int> key_r, key_p, new_cols;
    for (size_t c = 0; c < r.attrs.size(); ++c) {
      const int at = Find(bound, r.attrs[c]);
      if (at >= 0) {
        key_r.push_back(static_cast<int>(c));
        key_p.push_back(at);
      } else {
        new_cols.push_back(static_cast<int>(c));
      }
    }
    std::unordered_map<tetris::Tuple, std::vector<size_t>, TupleHash> table;
    tetris::Tuple key;
    for (size_t i = 0; i < r.rows.size(); ++i) {
      key.clear();
      for (int c : key_r) key.push_back(r.rows[i][c]);
      table[key].push_back(i);
    }
    std::vector<tetris::Tuple> next;
    for (const tetris::Tuple& p : partial) {
      key.clear();
      for (int c : key_p) key.push_back(p[c]);
      auto it = table.find(key);
      if (it == table.end()) continue;
      for (size_t i : it->second) {
        tetris::Tuple t = p;
        for (int c : new_cols) t.push_back(r.rows[i][c]);
        next.push_back(std::move(t));
      }
    }
    for (int c : new_cols) bound.push_back(r.attrs[c]);
    partial = std::move(next);
  }
  std::vector<int> from(out_attrs.size());
  for (size_t i = 0; i < out_attrs.size(); ++i) from[i] = Find(bound, out_attrs[i]);
  std::vector<tetris::Tuple> out;
  out.reserve(partial.size());
  for (const tetris::Tuple& p : partial) {
    tetris::Tuple t(out_attrs.size());
    for (size_t i = 0; i < from.size(); ++i) t[i] = p[from[i]];
    out.push_back(std::move(t));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace joinbench
