// Shared BFS path-search insertion engine for cuckoo-family tables.
//
// A bounded random walk (what MemC3 and CuckooSwitch ship; this suite's
// measured comparison is in docs/insertion.md) finds *a* chain of
// evictions; breadth-first search finds the *shortest* one, and — crucially
// for the load-factor characterization of Fig 2 — it only fails when no
// reachable bucket has an empty slot within the search budget, not when a
// walk got unlucky. The BFS is read-only: a failed search makes zero
// writes, so a failed insert leaves the table bytes bit-identical.
//
// The engine is generic over a small Graph concept so one search serves
// every table family:
//
//   struct Graph {
//     unsigned roots() const;                // candidate buckets of new key
//     std::uint64_t root(unsigned i) const;
//     unsigned slots() const;                // slots per bucket
//     bool empty_slot(std::uint64_t b, unsigned s) const;
//     // Alternate buckets the occupant of (b, s) could move to (never b
//     // itself); returns how many were written to out[kMaxWays].
//     unsigned alts(std::uint64_t b, unsigned s, std::uint64_t* out) const;
//   };
//
// CuckooTable uses CuckooPathGraph (full keys, N ways) under both writer
// policies — the seqlocked one replays the path under its stripes; Memc3Table
// builds its own adapter over (bucket, tag) pairs — partial-key
// displacement derives the alternate bucket from the tag alone.
//
// Buckets are deduplicated with a generation-stamped visited set (cuckoo
// graphs are dense in alternates; without dedup the frontier revisits the
// same handful of buckets and the node budget measures churn, not reach).
#ifndef SIMDHT_HT_PATH_SEARCH_H_
#define SIMDHT_HT_PATH_SEARCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hash/hash_family.h"
#include "ht/layout.h"

namespace simdht {

// One hop of an eviction chain. path[0] is where the new key lands; the
// occupant of path[i] moves to path[i+1]; path.back() is an empty slot.
struct PathStep {
  std::uint64_t bucket = 0;
  unsigned slot = 0;
};

struct PathSearchLimits {
  // Buckets examined before the search declares the table full. 1024 nodes
  // is far past the point where a cuckoo graph with any reachable empty
  // slot would have surfaced one.
  unsigned max_nodes = 1024;
  // Eviction-chain length cap. BCHT chains self-limit to a handful of hops;
  // non-bucketized (N,1) tables near their max LF genuinely need long
  // chains, so the cap is generous.
  unsigned max_depth = 256;
};

// Reusable search state: node pool + visited set. One per table (writers
// are serialized), reused across inserts so steady-state search allocates
// nothing.
class PathSearchScratch {
 public:
  struct Node {
    std::uint64_t bucket;
    std::int32_t parent;     // index into nodes, -1 for roots
    std::uint16_t via_slot;  // slot in parent whose occupant leads here
    std::uint16_t depth;
  };

  // Clears the node pool and starts a fresh visited generation, sizing the
  // stamp table so it can never fill within `max_nodes` insertions.
  void Prepare(unsigned max_nodes);

  // Marks `bucket` visited; false if it already was this generation.
  bool MarkVisited(std::uint64_t bucket);

  std::vector<Node> nodes;

 private:
  std::vector<std::uint64_t> visited_buckets_;
  std::vector<std::uint32_t> visited_gen_;
  std::uint32_t generation_ = 0;
  std::uint32_t mask_ = 0;
};

// BFS from the graph's root buckets to the nearest empty slot. On success
// fills `path` root-first (see PathStep) and returns true; on failure
// returns false having performed no writes to the table.
template <typename Graph>
bool FindEvictionPath(const Graph& graph, const PathSearchLimits& limits,
                      PathSearchScratch* scratch,
                      std::vector<PathStep>* path) {
  auto& nodes = scratch->nodes;
  scratch->Prepare(limits.max_nodes);
  path->clear();

  for (unsigned r = 0; r < graph.roots(); ++r) {
    const std::uint64_t b = graph.root(r);
    if (scratch->MarkVisited(b)) nodes.push_back({b, -1, 0, 0});
  }

  const unsigned slots = graph.slots();
  std::int32_t goal = -1;
  unsigned goal_slot = 0;
  for (std::size_t head = 0; head < nodes.size() && goal < 0; ++head) {
    const std::uint64_t b = nodes[head].bucket;
    for (unsigned s = 0; s < slots; ++s) {
      if (graph.empty_slot(b, s)) {
        goal = static_cast<std::int32_t>(head);
        goal_slot = s;
        break;
      }
    }
    if (goal >= 0) break;
    if (nodes[head].depth >= limits.max_depth) continue;
    const auto next_depth = static_cast<std::uint16_t>(nodes[head].depth + 1);
    std::uint64_t alts[kMaxWays];
    for (unsigned s = 0; s < slots && nodes.size() < limits.max_nodes; ++s) {
      const unsigned n_alts = graph.alts(b, s, alts);
      for (unsigned a = 0;
           a < n_alts && nodes.size() < limits.max_nodes; ++a) {
        if (!scratch->MarkVisited(alts[a])) continue;
        nodes.push_back({alts[a], static_cast<std::int32_t>(head),
                         static_cast<std::uint16_t>(s), next_depth});
      }
    }
  }
  if (goal < 0) return false;

  // Walk parent links goal -> root, then reverse into root-first order.
  path->push_back({nodes[static_cast<std::size_t>(goal)].bucket, goal_slot});
  for (std::int32_t n = goal;
       nodes[static_cast<std::size_t>(n)].parent >= 0;
       n = nodes[static_cast<std::size_t>(n)].parent) {
    const auto& node = nodes[static_cast<std::size_t>(n)];
    path->push_back({nodes[static_cast<std::size_t>(node.parent)].bucket,
                     node.via_slot});
  }
  std::reverse(path->begin(), path->end());
  return true;
}

}  // namespace simdht

#endif  // SIMDHT_HT_PATH_SEARCH_H_
