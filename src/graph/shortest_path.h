// The in-memory Dijkstra kernel: one heap, stale-skip and relax loop for
// every in-memory shortest-path search (the paper's own engines in
// core/memory_search and core/db_search excepted; DESIGN.md says why).
//
// A search is parameterized only by what its caller hands it:
//   * adjacency: a callable `arcs(u, relax)` that calls `relax(v, cost)`
//     per out-arc of u. It returns void, or Status when reading adjacency
//     can fail; a failure ends the run and is returned to the caller.
//   * restriction: the callable skips the arcs it does not want.
//   * direction: a backward search passes reverse adjacency.
//   * targets: Run's `stop(u)` ends the run once u is settled.
//
// Labels are dense over the caller's index space [0, n). The frontier is
// a binary heap ordered by (dist, id), so equal-cost nodes settle in
// ascending id order, and relaxation is strict, so the first settled
// parent of a shortest path keeps it: the same arcs in the same order
// give bit-identical labels, whichever caller runs them.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace atis::graph {

class ShortestPathSearch {
  using Entry = std::pair<double, NodeId>;
  using Heap = std::priority_queue<Entry, std::vector<Entry>, std::greater<>>;

 public:
  /// Handed to the adjacency callable: relax(v, cost) offers dist(u) +
  /// cost to v and returns true when v's label improved. It holds the
  /// label arrays themselves (they never resize during a search), so a
  /// scan keeps them in registers across heap pushes.
  class Relax {
   public:
    bool operator()(NodeId v, double cost) const {
      const double d = du_ + cost;
      if (!(d < dist_[static_cast<size_t>(v)])) return false;
      dist_[static_cast<size_t>(v)] = d;
      parent_[static_cast<size_t>(v)] = u_;
      heap_->emplace(d, v);
      return true;
    }

   private:
    friend class ShortestPathSearch;
    Relax(ShortestPathSearch* search, NodeId u)
        : dist_(search->dist_.data()),
          parent_(search->parent_.data()),
          heap_(&search->heap_),
          u_(u),
          du_(dist_[static_cast<size_t>(u)]) {}
    double* dist_;
    NodeId* parent_;
    Heap* heap_;
    NodeId u_;
    double du_;
  };

  /// Empty labels (dist +inf, no parent) over [0, n).
  explicit ShortestPathSearch(size_t n)
      : dist_(n, std::numeric_limits<double>::infinity()),
        parent_(n, kInvalidNode) {}

  /// Offers label d, reached from `parent`, to u; queues u if it improves.
  /// Call once per source for a multi-source search. (It does not share
  /// Relax's code: one emplace call site keeps the scan's push inlined.)
  void Seed(NodeId u, double d, NodeId parent = kInvalidNode) {
    if (!(d < dist_[static_cast<size_t>(u)])) return;
    dist_[static_cast<size_t>(u)] = d;
    parent_[static_cast<size_t>(u)] = parent;
    heap_.push(Entry(d, u));
  }

  /// Settles the next node and scans its arcs. Returns the node, or
  /// kInvalidNode once the frontier is empty; as a Result<NodeId> when
  /// `arcs` returns Status.
  template <typename Arcs>
  auto Step(Arcs&& arcs) {
    const NodeId u = Settle();
    if constexpr (ReturnsStatus<Arcs>()) {
      if (u != kInvalidNode) {
        Status st = Scan(u, arcs);
        if (!st.ok()) return Result<NodeId>(std::move(st));
      }
      return Result<NodeId>(u);
    } else {
      if (u != kInvalidNode) Scan(u, arcs);
      return u;
    }
  }

  /// Steps until the frontier is empty or stop(u) holds for a settled u,
  /// whose arcs are then left unscanned. Returns Status when `arcs` does.
  template <typename Arcs, typename Stop>
  auto Run(Arcs&& arcs, Stop&& stop) {
    // Settle() inlined by hand: one flat loop, as the hand-written
    // searches had. Calling Settle() here measured up to 2x slower on
    // some code placements.
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
      if (IsStale(top)) continue;
      ++settled_;
      if (stop(top.second)) break;
      if constexpr (ReturnsStatus<Arcs>()) {
        ATIS_RETURN_NOT_OK(Scan(top.second, arcs));
      } else {
        Scan(top.second, arcs);
      }
    }
    if constexpr (ReturnsStatus<Arcs>()) return Status::OK();
  }

  /// Runs to exhaustion.
  template <typename Arcs>
  auto Run(Arcs&& arcs) {
    return Run(std::forward<Arcs>(arcs), [](NodeId) { return false; });
  }

  /// Label of the next node to settle (+inf when the frontier is empty).
  double FrontierMin() {
    while (!heap_.empty() && IsStale(heap_.top())) heap_.pop();
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : heap_.top().first;
  }

  double dist(NodeId u) const { return dist_[static_cast<size_t>(u)]; }
  NodeId parent(NodeId u) const { return parent_[static_cast<size_t>(u)]; }
  bool Reached(NodeId u) const {
    return dist(u) != std::numeric_limits<double>::infinity();
  }
  /// Nodes settled so far, a stopping node included.
  size_t settled() const { return settled_; }

  /// Parent walk from a root (a parent-less node) to v; empty when v is
  /// unreached.
  std::vector<NodeId> PathTo(NodeId v) const {
    std::vector<NodeId> path;
    if (!Reached(v)) return path;
    for (NodeId at = v; at != kInvalidNode; at = parent(at)) {
      path.push_back(at);
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

  /// Move the labels out; the search is spent afterwards.
  std::vector<double> TakeDistances() { return std::move(dist_); }
  std::vector<NodeId> TakeParents() { return std::move(parent_); }

 private:
  template <typename Arcs>
  static constexpr bool ReturnsStatus() {
    using R = std::invoke_result_t<Arcs&, NodeId, const Relax&>;
    static_assert(std::is_void_v<R> || std::is_same_v<R, Status>,
                  "arcs(u, relax) must return void or Status");
    return std::is_same_v<R, Status>;
  }

  /// A heap entry is stale once its node has been labelled lower.
  bool IsStale(const Entry& e) const {
    return e.first > dist_[static_cast<size_t>(e.second)];
  }

  NodeId Settle() {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
      if (IsStale(top)) continue;
      ++settled_;
      return top.second;
    }
    return kInvalidNode;
  }

  template <typename Arcs>
  auto Scan(NodeId u, Arcs& arcs) {
    return arcs(u, Relax(this, u));
  }

  std::vector<double> dist_;
  std::vector<NodeId> parent_;
  Heap heap_;
  size_t settled_ = 0;
};

}  // namespace atis::graph
