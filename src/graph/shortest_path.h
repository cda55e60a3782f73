// The in-memory shortest-path kernel: one heap, stale-skip and relax loop
// for every in-memory shortest-path search, and for served A* versions 4
// and 5 (core/db_search). The paper's relational engines (Iterative,
// Dijkstra, A* v1-v3, and v4 statement-at-a-time) keep their statements;
// DESIGN.md says why.
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
//
// Two type parameters turn the same loop into the served A* engine:
//   * Label: the stored label type. Relaxation compares the double sum
//     dist(u) + cost against the label and stores the sum rounded to
//     Label; `float` follows the store's 4-byte path_cost column.
//   * Potential: a callable `pi(v)` giving A*'s estimate of the cost from
//     v to the target, evaluated once, when v is first reached. The heap
//     key becomes dist(v) + pi(v); equal keys settle by larger dist, then
//     smaller id (the engines' BetterCandidate order). A node whose key is
//     +inf (the potential proves it cannot reach the target) is never
//     settled: the run ends when one tops the heap. A settled node that
//     is improved again, as an inconsistent potential allows, is reopened
//     and settled again. The search also tracks which nodes are open, as
//     R's status column does: a float label can improve to the same
//     rounded value, and the node is then settled once, not once per
//     heap entry.
// The default instantiation (double labels, no potential) keeps the plain
// (dist, id) heap entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace atis::graph {

/// The default Potential: none. The heap key is the label itself.
struct NoPotential {};

template <typename Label = double, typename Potential = NoPotential>
class BasicShortestPathSearch {
  static constexpr bool kGuided = !std::is_same_v<Potential, NoPotential>;
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// An A* frontier entry: key dist + pi, its dist, and the node.
  struct GuidedEntry {
    double key;
    double g;
    NodeId id;
  };
  /// Heap order for GuidedEntry: true when a settles after b.
  struct SettlesLater {
    bool operator()(const GuidedEntry& a, const GuidedEntry& b) const {
      if (a.key != b.key) return a.key > b.key;
      if (a.g != b.g) return a.g < b.g;
      return a.id > b.id;
    }
  };
  using Entry = std::conditional_t<kGuided, GuidedEntry,
                                   std::pair<double, NodeId>>;
  using Order = std::conditional_t<kGuided, SettlesLater, std::greater<>>;
  using Heap = std::priority_queue<Entry, std::vector<Entry>, Order>;

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
      if constexpr (kGuided) {
        search_->Open(v, d, u_);
      } else {
        dist_[static_cast<size_t>(v)] = d;
        parent_[static_cast<size_t>(v)] = u_;
        heap_->emplace(d, v);
      }
      return true;
    }

   private:
    friend class BasicShortestPathSearch;
    Relax(BasicShortestPathSearch* search, NodeId u)
        : search_(search),
          dist_(search->dist_.data()),
          parent_(search->parent_.data()),
          heap_(&search->heap_),
          u_(u),
          du_(dist_[static_cast<size_t>(u)]) {}
    BasicShortestPathSearch* search_;
    Label* dist_;
    NodeId* parent_;
    Heap* heap_;
    NodeId u_;
    double du_;
  };

  /// Empty labels (dist +inf, no parent) over [0, n).
  explicit BasicShortestPathSearch(size_t n)
    requires(!kGuided)
      : dist_(n, std::numeric_limits<Label>::infinity()),
        parent_(n, kInvalidNode) {}

  /// Starts from existing labels (no parents, empty frontier): Seed the
  /// nodes whose labels must propagate, then Run. Labels only fall, so
  /// each one handed in must be at least the distance the run should find
  /// (core/landmarks' column repair resets what may rise to +inf).
  explicit BasicShortestPathSearch(std::vector<Label> dist)
    requires(!kGuided)
      : dist_(std::move(dist)), parent_(dist_.size(), kInvalidNode) {}

  /// Empty labels over [0, n), keyed by dist + potential.
  BasicShortestPathSearch(size_t n, Potential potential)
    requires kGuided
      : dist_(n, std::numeric_limits<Label>::infinity()),
        parent_(n, kInvalidNode),
        potential_(std::move(potential)),
        pi_(n, 0.0),
        open_(n, 0) {}

  /// Offers label d, reached from `parent`, to u; queues u if it improves.
  /// Call once per source for a multi-source search. (It does not share
  /// Relax's code: one emplace call site keeps the scan's push inlined.)
  void Seed(NodeId u, double d, NodeId parent = kInvalidNode) {
    if (!(d < dist_[static_cast<size_t>(u)])) return;
    if constexpr (kGuided) {
      Open(u, d, parent);
    } else {
      dist_[static_cast<size_t>(u)] = d;
      parent_[static_cast<size_t>(u)] = parent;
      heap_.push(Entry(d, u));
    }
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
      if constexpr (kGuided) {
        if (top.key == kInf) break;
      }
      heap_.pop();
      if (IsStale(top)) continue;
      const NodeId u = IdOf(top);
      MarkSettled(u);
      if (stop(u)) break;
      if constexpr (ReturnsStatus<Arcs>()) {
        ATIS_RETURN_NOT_OK(Scan(u, arcs));
      } else {
        Scan(u, arcs);
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
  double FrontierMin()
    requires(!kGuided)
  {
    while (!heap_.empty() && IsStale(heap_.top())) heap_.pop();
    return heap_.empty() ? kInf : heap_.top().first;
  }

  double dist(NodeId u) const { return dist_[static_cast<size_t>(u)]; }
  NodeId parent(NodeId u) const { return parent_[static_cast<size_t>(u)]; }
  bool Reached(NodeId u) const { return dist(u) != kInf; }
  /// Nodes settled so far, a stopping node and re-settles included.
  size_t settled() const { return settled_; }
  /// Improvements of a settled node, each of which reopened it.
  size_t reopened() const
    requires kGuided
  {
    return reopened_;
  }

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
  std::vector<Label> TakeDistances() { return std::move(dist_); }
  std::vector<NodeId> TakeParents() { return std::move(parent_); }

 private:
  template <typename Arcs>
  static constexpr bool ReturnsStatus() {
    using R = std::invoke_result_t<Arcs&, NodeId, const Relax&>;
    static_assert(std::is_void_v<R> || std::is_same_v<R, Status>,
                  "arcs(u, relax) must return void or Status");
    return std::is_same_v<R, Status>;
  }

  static NodeId IdOf(const Entry& e) {
    if constexpr (kGuided) {
      return e.id;
    } else {
      return e.second;
    }
  }

  /// A heap entry is stale once its node has been labelled lower, or
  /// (guided) settled since the entry was pushed.
  bool IsStale(const Entry& e) const {
    if constexpr (kGuided) {
      return !open_[static_cast<size_t>(e.id)] ||
             e.g > dist_[static_cast<size_t>(e.id)];
    } else {
      return e.first > dist_[static_cast<size_t>(e.second)];
    }
  }

  /// Labels v with d (rounded to Label) from `parent` and queues it under
  /// key label + pi(v); pi is evaluated on v's first label.
  void Open(NodeId v, double d, NodeId parent)
    requires kGuided
  {
    const auto i = static_cast<size_t>(v);
    if (dist_[i] == std::numeric_limits<Label>::infinity()) {
      pi_[i] = potential_(v);
    } else if (!open_[i]) {
      ++reopened_;
    }
    dist_[i] = static_cast<Label>(d);
    parent_[i] = parent;
    open_[i] = 1;
    const double g = dist_[i];
    heap_.push(GuidedEntry{g + pi_[i], g, v});
  }

  void MarkSettled(NodeId u) {
    ++settled_;
    if constexpr (kGuided) open_[static_cast<size_t>(u)] = 0;
  }

  NodeId Settle() {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      if constexpr (kGuided) {
        if (top.key == kInf) break;
      }
      heap_.pop();
      if (IsStale(top)) continue;
      MarkSettled(IdOf(top));
      return IdOf(top);
    }
    return kInvalidNode;
  }

  template <typename Arcs>
  auto Scan(NodeId u, Arcs& arcs) {
    return arcs(u, Relax(this, u));
  }

  std::vector<Label> dist_;
  std::vector<NodeId> parent_;
  Heap heap_;
  size_t settled_ = 0;
  [[no_unique_address]] Potential potential_;
  std::vector<double> pi_;     ///< guided: pi(v), set on v's first label
  std::vector<uint8_t> open_;  ///< guided: queued and not yet settled
  size_t reopened_ = 0;
};

/// Dijkstra: double labels, no potential.
using ShortestPathSearch = BasicShortestPathSearch<>;

}  // namespace atis::graph
