// The benchmark's own join, written apart from the library so outputs can
// be checked against something the library did not compute: a left-deep
// natural hash join by attribute name.
#ifndef JOINBENCH_HASH_JOIN_H_
#define JOINBENCH_HASH_JOIN_H_

#include <string>
#include <vector>

#include "relation/relation.h"

namespace joinbench {

struct NamedRows {
  std::vector<std::string> attrs;
  std::vector<tetris::Tuple> rows;
};

/// Natural join of `rels`; output columns follow the attributes' order of
/// first appearance (the library's JoinQuery::Build order), sorted and
/// deduplicated.
std::vector<tetris::Tuple> HashJoin(const std::vector<NamedRows>& rels);

/// Copies a library relation into the join's input form.
NamedRows RowsOf(const tetris::Relation& rel);

}  // namespace joinbench

#endif  // JOINBENCH_HASH_JOIN_H_
