//===- AvlTree.cpp - Self-balancing tree via maintained methods -----------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements Algorithm 11 of the paper. Balance is written exactly as the
/// exhaustive specification: rebalance both children, then fix this node
/// with (possibly double) rotations and re-balance the rotated subtree.
/// The incremental runtime caches per-subtree results, so after k
/// insertions only the affected paths re-run.
///
//===----------------------------------------------------------------------===//

#include "trees/AvlTree.h"

#include <algorithm>

namespace alphonse::trees {

AvlTree::AvlTree(Runtime &RT, bool UncheckedLookups)
    : RT(RT), UncheckedLookups(UncheckedLookups),
      Height(
          RT, [this](Node *N) { return computeHeight(N); },
          EvalStrategy::Demand, "Avl.height"),
      Balance(
          RT, [this](Node *N) { return computeBalance(N); },
          EvalStrategy::Demand, "Avl.balance"),
      Lookup(
          RT, [this](int Key) { return computeLookup(Key); },
          EvalStrategy::Demand, "Avl.lookup"),
      Nil(std::make_unique<Node>(RT, 0)), Root(RT, Nil.get(), "avl.root") {
  Nil->Left.set(Nil.get());
  Nil->Right.set(Nil.get());
}

AvlTree::~AvlTree() = default;

//===----------------------------------------------------------------------===//
// Maintained methods (the exhaustive specifications)
//===----------------------------------------------------------------------===//

int AvlTree::computeHeight(Node *N) {
  // HeightNil: the shared leaf sentinel has height 0.
  if (N == Nil.get())
    return 0;
  return std::max(Height(N->Left.get()), Height(N->Right.get())) + 1;
}

int AvlTree::diff(Node *N) {
  // PROCEDURE Diff(t) = t.left.height() - t.right.height().
  return Height(N->Left.get()) - Height(N->Right.get());
}

AvlTree::Node *AvlTree::rotateRight(Node *T) {
  Node *S = T->Left.get();
  Node *B = S->Right.get();
  S->Right.set(T);
  T->Left.set(B);
  return S;
}

AvlTree::Node *AvlTree::rotateLeft(Node *T) {
  Node *S = T->Right.get();
  Node *B = S->Left.get();
  S->Left.set(T);
  T->Right.set(B);
  return S;
}

AvlTree::Node *AvlTree::computeBalance(Node *T) {
  // BalanceNil: nothing to do at the sentinel.
  if (T == Nil.get())
    return T;
  T->Left.set(Balance(T->Left.get()));
  T->Right.set(Balance(T->Right.get()));
  if (diff(T) > 1) {
    if (diff(T->Left.get()) < 0)
      T->Left.set(rotateLeft(T->Left.get()));
    return Balance(rotateRight(T));
  }
  if (diff(T) < -1) {
    if (diff(T->Right.get()) > 0)
      T->Right.set(rotateRight(T->Right.get()));
    return Balance(rotateLeft(T));
  }
  return T;
}

bool AvlTree::computeLookup(int Key) {
  if (UncheckedLookups) {
    // Section 6.4: the programmer asserts the lookup result depends on the
    // found item, not on the O(log n) pointers traversed to locate it.
    Node *Found;
    {
      UncheckedScope Scope(RT);
      Found = find(Root.get(), Key);
    }
    if (Found != Nil.get())
      return Found->Key.get() == Key; // Tracked read of the found item.
    // Absence cannot be attributed to a single item: fall back to a
    // tracked walk so a future insert of this key invalidates us.
    Found = find(Root.get(), Key);
    return Found != Nil.get();
  }
  Node *Found = find(Root.get(), Key);
  if (Found == Nil.get())
    return false;
  return Found->Key.get() == Key;
}

AvlTree::Node *AvlTree::find(Node *N, int Key) const {
  while (N != Nil.get()) {
    int K = N->Key.get();
    if (Key == K)
      return N;
    N = (Key < K) ? N->Left.get() : N->Right.get();
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Mutator operations (plain unbalanced-BST code)
//===----------------------------------------------------------------------===//

AvlTree::Node *AvlTree::makeNode(int Key) {
  auto Owned = std::make_unique<Node>(RT, Key);
  Node *N = Owned.get();
  N->Left.set(Nil.get());
  N->Right.set(Nil.get());
  N->PoolSlot = Pool.size();
  Pool.push_back(std::move(Owned));
  return N;
}

void AvlTree::discard(Node *N) {
  assert(N != Nil.get() && "cannot discard the sentinel");
  // Drop the incremental instances keyed by the dying node first; their
  // destruction invalidates any dependents.
  Height.erase(N);
  Balance.erase(N);
  size_t Slot = N->PoolSlot;
  assert(Slot < Pool.size() && Pool[Slot].get() == N &&
         "discarding a node this tree does not own");
  Pool[Slot] = std::move(Pool.back());
  Pool[Slot]->PoolSlot = Slot;
  Pool.pop_back();
}

void AvlTree::insert(int Key) {
  Node *Fresh = makeNode(Key);
  Node *Cur = Root.get();
  if (Cur == Nil.get()) {
    Root.set(Fresh);
    return;
  }
  while (true) {
    int K = Cur->Key.get();
    if (Key == K) {
      discard(Fresh); // Duplicate: ignore.
      return;
    }
    Cell<Node *> &Child = (Key < K) ? Cur->Left : Cur->Right;
    if (Child.get() == Nil.get()) {
      Child.set(Fresh);
      return;
    }
    Cur = Child.get();
  }
}

bool AvlTree::erase(int Key) {
  bool Removed = false;
  Root.set(removeKey(Root.get(), Key, Removed));
  return Removed;
}

AvlTree::Node *AvlTree::removeKey(Node *N, int Key, bool &Removed) {
  if (N == Nil.get())
    return N;
  int K = N->Key.get();
  if (Key < K) {
    N->Left.set(removeKey(N->Left.get(), Key, Removed));
    return N;
  }
  if (Key > K) {
    N->Right.set(removeKey(N->Right.get(), Key, Removed));
    return N;
  }
  Removed = true;
  if (N->Left.get() == Nil.get()) {
    Node *Rest = N->Right.get();
    discard(N);
    return Rest;
  }
  if (N->Right.get() == Nil.get()) {
    Node *Rest = N->Left.get();
    discard(N);
    return Rest;
  }
  // Two children: adopt the in-order successor's key, then delete it from
  // the right subtree.
  Node *Succ = N->Right.get();
  while (Succ->Left.get() != Nil.get())
    Succ = Succ->Left.get();
  N->Key.set(Succ->Key.get());
  bool Inner = false;
  N->Right.set(removeKey(N->Right.get(), N->Key.get(), Inner));
  assert(Inner && "successor key vanished during delete");
  return N;
}

void AvlTree::rebalance() { Root.set(Balance(Root.get())); }

bool AvlTree::contains(int Key) {
  rebalance();
  return find(Root.get(), Key) != Nil.get();
}

bool AvlTree::lookup(int Key) {
  rebalance();
  return Lookup(Key);
}

int AvlTree::height() {
  rebalance();
  return Height(Root.get());
}

//===----------------------------------------------------------------------===//
// Oracles and introspection (untracked)
//===----------------------------------------------------------------------===//

bool AvlTree::checkAvl(const Node *N, int *HeightOut) const {
  if (N == Nil.get()) {
    *HeightOut = 0;
    return true;
  }
  int HL = 0, HR = 0;
  if (!checkAvl(N->Left.peek(), &HL) || !checkAvl(N->Right.peek(), &HR))
    return false;
  *HeightOut = std::max(HL, HR) + 1;
  return std::abs(HL - HR) <= 1;
}

bool AvlTree::checkBst(const Node *N, const int *Lo, const int *Hi) const {
  if (N == Nil.get())
    return true;
  int K = N->Key.peek();
  if (Lo && K <= *Lo)
    return false;
  if (Hi && K >= *Hi)
    return false;
  return checkBst(N->Left.peek(), Lo, &K) && checkBst(N->Right.peek(), &K, Hi);
}

size_t AvlTree::countReachable(const Node *N) const {
  if (N == Nil.get())
    return 0;
  return 1 + countReachable(N->Left.peek()) + countReachable(N->Right.peek());
}

bool AvlTree::isAvlBalanced() const {
  int H = 0;
  return checkAvl(Root.peek(), &H);
}

bool AvlTree::isBst() const { return checkBst(Root.peek(), nullptr, nullptr); }

size_t AvlTree::reachableSize() const { return countReachable(Root.peek()); }

size_t AvlTree::lookupDependencyCount(int Key) const {
  const DepNode *N = Lookup.instanceNode(Key);
  return N ? N->numPredecessors() : 0;
}

} // namespace alphonse::trees
