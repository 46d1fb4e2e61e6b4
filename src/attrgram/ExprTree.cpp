//===- ExprTree.cpp - Attribute grammars as Alphonse objects --------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Method implementations mirroring Algorithm 9 of the paper (ExpVal,
/// NullEnv, SumVal, PassEnv, Exp2Val, LetEnv, IdVal, IntVal).
///
//===----------------------------------------------------------------------===//

#include "attrgram/ExprTree.h"

namespace alphonse::attrgram {

Exp::~Exp() = default;

Env Exp::computeEnv(ExprTree &, Exp *) {
  assert(false && "env() requested from a production without nonterminal "
                  "children");
  return Env();
}

//===----------------------------------------------------------------------===//
// RootExp: ROOT ::= EXP
//===----------------------------------------------------------------------===//

// ExpVal: o.exp.value().
int RootExp::computeValue(ExprTree &Tree) { return Tree.value(Child.get()); }

// NullEnv: EmptyEnv().
Env RootExp::computeEnv(ExprTree &, Exp *) { return Env(); }

int RootExp::oracleValue(const Env &E) const {
  return Child.peek()->oracleValue(E);
}

void RootExp::appendChildren(std::vector<Exp *> &Out) const {
  if (Exp *C = Child.peek())
    Out.push_back(C);
}

//===----------------------------------------------------------------------===//
// PlusExp: EXP0 ::= EXP1 + EXP2
//===----------------------------------------------------------------------===//

// SumVal: o.expl.value() + o.exp2.value().
int PlusExp::computeValue(ExprTree &Tree) {
  return Tree.value(Lhs.get()) + Tree.value(Rhs.get());
}

// PassEnv: o.parent.env(o).
Env PlusExp::computeEnv(ExprTree &Tree, Exp *) { return Tree.envOf(this); }

int PlusExp::oracleValue(const Env &E) const {
  return Lhs.peek()->oracleValue(E) + Rhs.peek()->oracleValue(E);
}

void PlusExp::appendChildren(std::vector<Exp *> &Out) const {
  Out.push_back(Lhs.peek());
  Out.push_back(Rhs.peek());
}

//===----------------------------------------------------------------------===//
// MulExp: EXP0 ::= EXP1 * EXP2 (extension)
//===----------------------------------------------------------------------===//

int MulExp::computeValue(ExprTree &Tree) {
  return Tree.value(Lhs.get()) * Tree.value(Rhs.get());
}

Env MulExp::computeEnv(ExprTree &Tree, Exp *) { return Tree.envOf(this); }

int MulExp::oracleValue(const Env &E) const {
  return Lhs.peek()->oracleValue(E) * Rhs.peek()->oracleValue(E);
}

void MulExp::appendChildren(std::vector<Exp *> &Out) const {
  Out.push_back(Lhs.peek());
  Out.push_back(Rhs.peek());
}

//===----------------------------------------------------------------------===//
// LetExp: EXP0 ::= let ID = EXP1 in EXP2 ni
//===----------------------------------------------------------------------===//

// Exp2Val: o.exp2.value().
int LetExp::computeValue(ExprTree &Tree) { return Tree.value(Body.get()); }

// LetEnv: the nonterminal-context case analysis of Algorithm 9 — the
// binding expression inherits the outer environment, the body inherits the
// outer environment extended with the new binding.
Env LetExp::computeEnv(ExprTree &Tree, Exp *Child) {
  if (Child == Bind.get())
    return Tree.envOf(this);
  return Tree.envOf(this).update(Id.get(), Tree.value(Bind.get()));
}

int LetExp::oracleValue(const Env &E) const {
  Env Inner = E.update(Id.peek(), Bind.peek()->oracleValue(E));
  return Body.peek()->oracleValue(Inner);
}

void LetExp::appendChildren(std::vector<Exp *> &Out) const {
  Out.push_back(Bind.peek());
  Out.push_back(Body.peek());
}

//===----------------------------------------------------------------------===//
// IdExp: EXP ::= ID
//===----------------------------------------------------------------------===//

// IdVal: LookupEnv(o.parent.env(o), id). Unbound names evaluate to 0.
int IdExp::computeValue(ExprTree &Tree) {
  return Tree.envOf(this).lookup(Id.get()).value_or(0);
}

int IdExp::oracleValue(const Env &E) const {
  return E.lookup(Id.peek()).value_or(0);
}

//===----------------------------------------------------------------------===//
// IntExp: EXP ::= INT
//===----------------------------------------------------------------------===//

// IntVal: o.int.
int IntExp::computeValue(ExprTree &) { return Lit.get(); }

int IntExp::oracleValue(const Env &) const { return Lit.peek(); }

//===----------------------------------------------------------------------===//
// ExprTree
//===----------------------------------------------------------------------===//

ExprTree::ExprTree(Runtime &RT)
    : RT(RT),
      Value(
          RT, [this](Exp *N) { return N->computeValue(*this); },
          EvalStrategy::Demand, "Exp.value"),
      EnvAttr(
          RT, [this](Exp *P, Exp *C) { return P->computeEnv(*this, C); },
          EvalStrategy::Demand, "Exp.env") {}

ExprTree::~ExprTree() = default;

Exp *ExprTree::adopt(std::unique_ptr<Exp> Node) {
  return own(Node.release());
}

RootExp *ExprTree::makeRoot(Exp *Child) {
  auto *N = own(new RootExp(RT, Child));
  if (Child)
    Child->Parent.set(N);
  return N;
}

PlusExp *ExprTree::makePlus(Exp *L, Exp *R) {
  auto *N = own(new PlusExp(RT, L, R));
  L->Parent.set(N);
  R->Parent.set(N);
  return N;
}

MulExp *ExprTree::makeMul(Exp *L, Exp *R) {
  auto *N = own(new MulExp(RT, L, R));
  L->Parent.set(N);
  R->Parent.set(N);
  return N;
}

LetExp *ExprTree::makeLet(std::string Id, Exp *Bind, Exp *Body) {
  auto *N = own(new LetExp(RT, std::move(Id), Bind, Body));
  Bind->Parent.set(N);
  Body->Parent.set(N);
  return N;
}

IdExp *ExprTree::makeId(std::string Id) {
  return own(new IdExp(RT, std::move(Id)));
}

IntExp *ExprTree::makeInt(int Value) { return own(new IntExp(RT, Value)); }

void ExprTree::destroy(Exp *Root) {
  // Breadth-first: each node's children are appended behind it, and the
  // env instances of exactly those parent/child links are erased with it.
  std::vector<Exp *> Nodes{Root};
  if (Exp *P = Root->Parent.peek())
    EnvAttr.erase(P, Root);
  for (size_t I = 0; I < Nodes.size(); ++I) {
    Exp *N = Nodes[I];
    size_t FirstChild = Nodes.size();
    N->appendChildren(Nodes);
    Value.erase(N);
    for (size_t C = FirstChild; C < Nodes.size(); ++C)
      EnvAttr.erase(N, Nodes[C]);
  }
  // Swap-pop each node out of the pool; overwriting its owning slot
  // deletes it (when it is the last slot, pop_back does).
  for (Exp *N : Nodes) {
    size_t Slot = N->PoolSlot;
    assert(Slot < Pool.size() && Pool[Slot].get() == N &&
           "destroying a production this tree does not own");
    Pool[Slot] = std::move(Pool.back());
    Pool[Slot]->PoolSlot = Slot;
    Pool.pop_back();
  }
}

std::vector<Exp *> ExprTree::rootsSince(size_t Mark) const {
  std::vector<Exp *> Roots;
  for (size_t I = Mark; I < Pool.size(); ++I)
    if (!Pool[I]->Parent.peek())
      Roots.push_back(Pool[I].get());
  return Roots;
}

Env ExprTree::envOf(Exp *N) {
  Exp *P = N->Parent.get();
  if (!P)
    return Env(); // Parentless productions live in the empty environment.
  return env(P, N);
}

void ExprTree::replaceChild(Cell<Exp *> &Slot, Exp *Parent, Exp *NewChild) {
  Exp *Old = Slot.peek();
  if (Old == NewChild)
    return;
  Slot.set(NewChild);
  if (NewChild)
    NewChild->Parent.set(Parent);
  if (Old)
    Old->Parent.set(nullptr);
}

} // namespace alphonse::attrgram
