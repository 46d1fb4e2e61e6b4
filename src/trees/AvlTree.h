//===- AvlTree.h - Self-balancing tree via maintained methods ---*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 7.3 of the paper: AVL search trees written as an Alphonse
/// program (Algorithm 11). `height` and `balance` are maintained methods;
/// insert/erase/contains are the *unbalanced* BST routines, because the
/// structure is self-balancing — the mutator merely calls balance on the
/// root before searching. Arbitrary batches of mutations between
/// rebalances are supported, exactly as the paper highlights ("the
/// algorithm is both an off-line as well as on-line algorithm").
///
/// The paper's Theorem 7.1 argues DET/TOP/OBS hold for this program: the
/// only side effects are rotations, which preserve tree order.
///
/// The optional unchecked-lookup mode demonstrates the (*UNCHECKED*)
/// pragma of Section 6.4: a maintained lookup whose descent path records
/// no dependencies, leaving it dependent on the found item only
/// (experiment E10).
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_TREES_AVLTREE_H
#define ALPHONSE_TREES_AVLTREE_H

#include "core/Alphonse.h"

#include <memory>
#include <vector>

namespace alphonse::trees {

/// An AVL tree whose balancing is an incrementally maintained property.
class AvlTree {
public:
  /// \p UncheckedLookups selects the Section 6.4 variant of lookup().
  explicit AvlTree(Runtime &RT, bool UncheckedLookups = false);
  ~AvlTree();

  /// Unbalanced BST insert (mutator code). Duplicate keys are ignored.
  void insert(int Key);

  /// Unbalanced BST delete (mutator code). \returns true if the key was
  /// present.
  bool erase(int Key);

  /// Rebalances from the root: Root := Root.balance(). Called implicitly
  /// by contains()/lookup(), and callable explicitly after a batch of
  /// mutations.
  void rebalance();

  /// Mutator-side search: rebalances, then walks the tree directly.
  bool contains(int Key);

  /// Maintained search: an incremental procedure keyed by the probe key,
  /// so repeated lookups of one key are O(1) until relevant data changes.
  bool lookup(int Key);

  /// Maintained height of the root subtree.
  int height();

  size_t size() const { return Pool.size(); }
  Runtime &runtime() { return RT; }

  /// Test oracle: AVL invariant over the live structure (untracked reads).
  bool isAvlBalanced() const;
  /// Test oracle: strict BST key ordering (untracked reads).
  bool isBst() const;
  /// Test oracle: number of reachable interior nodes.
  size_t reachableSize() const;

  /// Number of dependency-graph predecessors of the lookup instance for
  /// \p Key (0 if never looked up). Experiment E10 compares this between
  /// tracked and unchecked modes.
  size_t lookupDependencyCount(int Key) const;

private:
  class Node {
  public:
    Node(Runtime &RT, int Key)
        : Left(RT, nullptr, "avl.left"), Right(RT, nullptr, "avl.right"),
          Key(RT, Key, "avl.key") {}

    Cell<Node *> Left;
    Cell<Node *> Right;
    Cell<int> Key;
    /// Index of this node in the owning tree's Pool (mutator bookkeeping,
    /// untracked): discard() removes the node in O(1).
    size_t PoolSlot = 0;
  };

  Node *makeNode(int Key);
  void discard(Node *N);
  Node *removeKey(Node *N, int Key, bool &Removed);

  // The exhaustive specifications (Algorithm 11's procedures).
  int computeHeight(Node *N);
  Node *computeBalance(Node *N);
  bool computeLookup(int Key);

  int diff(Node *N);
  Node *rotateRight(Node *N);
  Node *rotateLeft(Node *N);
  Node *find(Node *N, int Key) const;

  bool checkAvl(const Node *N, int *HeightOut) const;
  bool checkBst(const Node *N, const int *Lo, const int *Hi) const;
  size_t countReachable(const Node *N) const;

  Runtime &RT;
  bool UncheckedLookups;
  Maintained<int(Node *)> Height;
  Maintained<Node *(Node *)> Balance;
  Maintained<bool(int)> Lookup;
  std::unique_ptr<Node> Nil;
  Cell<Node *> Root;
  std::vector<std::unique_ptr<Node>> Pool;
};

} // namespace alphonse::trees

#endif // ALPHONSE_TREES_AVLTREE_H
