//===- ExprTree.h - Attribute grammars as Alphonse objects ------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 7.1 of the paper: every attribute grammar can be represented as
/// Alphonse data types. Each production is an object type; synthesized
/// attributes become maintained methods with no arguments; inherited
/// attributes become maintained methods taking the inheriting child, with
/// a case analysis over the child's context. This file implements the
/// paper's let-expression grammar (Algorithm 6) with the exact types of
/// Algorithms 7 and 8:
///
///   ROOT ::= EXP                 ROOT.value = EXP.value
///                                EXP.env    = EmptyEnv()
///   EXP0 ::= EXP1 + EXP2         EXP0.value = EXP1.value + EXP2.value
///                                EXPi.env   = EXP0.env
///   EXP0 ::= let ID = EXP1 in EXP2 ni
///                                EXP0.value = EXP2.value
///                                EXP1.env   = EXP0.env
///                                EXP2.env   = UpdateEnv(EXP0.env, id,
///                                                       EXP1.value)
///   EXP  ::= ID                  EXP.value  = LookupEnv(EXP.env, id)
///   EXP  ::= INT                 EXP.value  = INT
///
/// A multiplication production is added beyond the paper (it exercises the
/// same machinery and makes the spreadsheet example richer).
///
/// The tree is fully editable: parent/child pointers, identifiers, and
/// literals are tracked Cells, so any edit triggers exactly the
/// reattribution the dependencies dictate — the "incremental attribute
/// evaluation" the grammar systems of Section 10 implement, subsumed here.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_ATTRGRAM_EXPRTREE_H
#define ALPHONSE_ATTRGRAM_EXPRTREE_H

#include "attrgram/Env.h"
#include "core/Alphonse.h"

#include <memory>
#include <string>
#include <vector>

namespace alphonse::attrgram {

class ExprTree;

/// Base production object: TYPE Exp = Prod OBJECT with maintained methods
/// value() and env(c) (Algorithm 7). The parent pointer is tracked.
class Exp {
public:
  explicit Exp(Runtime &RT) : Parent(RT, nullptr, "exp.parent") {}
  virtual ~Exp();

  Cell<Exp *> Parent;

  /// LLVM-style checked downcast without RTTI: non-null iff this is an
  /// IntExp (used for in-place literal edits).
  virtual class IntExp *asIntExp() { return nullptr; }

  /// Exhaustive (non-incremental) attribute evaluation, for oracles and
  /// the E5 baseline. Reads untracked state only.
  virtual int oracleValue(const Env &E) const = 0;

protected:
  friend class ExprTree;

  /// Appends this production's non-null nonterminal children to the
  /// vector (untracked reads; ExprTree::destroy walks subtrees with it).
  virtual void appendChildren(std::vector<Exp *> &) const {}

  /// The synthesized attribute equation for this production.
  virtual int computeValue(ExprTree &Tree) = 0;

  /// The inherited attribute equation: the environment this node passes to
  /// \p Child. Only productions with nonterminal children override it.
  virtual Env computeEnv(ExprTree &Tree, Exp *Child);

private:
  /// Index in the owning ExprTree's pool (untracked bookkeeping).
  size_t PoolSlot = 0;
};

/// ROOT ::= EXP (Algorithm 8's RootExp).
class RootExp final : public Exp {
public:
  RootExp(Runtime &RT, Exp *Child) : Exp(RT), Child(RT, Child, "root.exp") {}
  Cell<Exp *> Child;

protected:
  friend class ExprTree;
  int computeValue(ExprTree &Tree) override;
  Env computeEnv(ExprTree &Tree, Exp *Child) override;
  int oracleValue(const Env &E) const override;
  void appendChildren(std::vector<Exp *> &Out) const override;
};

/// EXP0 ::= EXP1 + EXP2 (PlusExp).
class PlusExp final : public Exp {
public:
  PlusExp(Runtime &RT, Exp *L, Exp *R)
      : Exp(RT), Lhs(RT, L, "plus.lhs"), Rhs(RT, R, "plus.rhs") {}
  Cell<Exp *> Lhs;
  Cell<Exp *> Rhs;

protected:
  friend class ExprTree;
  int computeValue(ExprTree &Tree) override;
  Env computeEnv(ExprTree &Tree, Exp *Child) override;
  int oracleValue(const Env &E) const override;
  void appendChildren(std::vector<Exp *> &Out) const override;
};

/// EXP0 ::= EXP1 * EXP2 (beyond-paper extension; same machinery).
class MulExp final : public Exp {
public:
  MulExp(Runtime &RT, Exp *L, Exp *R)
      : Exp(RT), Lhs(RT, L, "mul.lhs"), Rhs(RT, R, "mul.rhs") {}
  Cell<Exp *> Lhs;
  Cell<Exp *> Rhs;

protected:
  friend class ExprTree;
  int computeValue(ExprTree &Tree) override;
  Env computeEnv(ExprTree &Tree, Exp *Child) override;
  int oracleValue(const Env &E) const override;
  void appendChildren(std::vector<Exp *> &Out) const override;
};

/// EXP0 ::= let ID = EXP1 in EXP2 ni (LetExp). Algorithm 9's LetEnv shows
/// the inherited-attribute case analysis this class reproduces.
class LetExp final : public Exp {
public:
  LetExp(Runtime &RT, std::string Id, Exp *Bind, Exp *Body)
      : Exp(RT), Id(RT, std::move(Id), "let.id"), Bind(RT, Bind, "let.exp1"),
        Body(RT, Body, "let.exp2") {}
  Cell<std::string> Id;
  Cell<Exp *> Bind;
  Cell<Exp *> Body;

protected:
  friend class ExprTree;
  int computeValue(ExprTree &Tree) override;
  Env computeEnv(ExprTree &Tree, Exp *Child) override;
  int oracleValue(const Env &E) const override;
  void appendChildren(std::vector<Exp *> &Out) const override;
};

/// EXP ::= ID (IdExp). Unbound identifiers evaluate to 0.
class IdExp final : public Exp {
public:
  IdExp(Runtime &RT, std::string Id)
      : Exp(RT), Id(RT, std::move(Id), "id.name") {}
  Cell<std::string> Id;

protected:
  friend class ExprTree;
  int computeValue(ExprTree &Tree) override;
  int oracleValue(const Env &E) const override;
};

/// EXP ::= INT (IntExp).
class IntExp final : public Exp {
public:
  IntExp(Runtime &RT, int Value) : Exp(RT), Lit(RT, Value, "int.lit") {}
  Cell<int> Lit;

  IntExp *asIntExp() override { return this; }

protected:
  friend class ExprTree;
  int computeValue(ExprTree &Tree) override;
  int oracleValue(const Env &E) const override;
};

/// Owns a forest of production objects and the two maintained attribute
/// methods (value and env) shared by all of them.
class ExprTree {
public:
  explicit ExprTree(Runtime &RT);
  ~ExprTree();

  /// Node factories; the tree owns every node and wires parent pointers.
  RootExp *makeRoot(Exp *Child);
  PlusExp *makePlus(Exp *L, Exp *R);
  MulExp *makeMul(Exp *L, Exp *R);
  LetExp *makeLet(std::string Id, Exp *Bind, Exp *Body);
  IdExp *makeId(std::string Id);
  IntExp *makeInt(int Value);

  /// Adopts an externally constructed production (e.g. the spreadsheet's
  /// CellRefExp) into this tree's ownership.
  Exp *adopt(std::unique_ptr<Exp> Node);

  /// Frees the subtree rooted at \p Root. The Value and EnvAttr instances
  /// keyed by its nodes (EnvAttr by each parent/child link inside the
  /// subtree and by the link to Root's parent) are erased first, which
  /// invalidates their dependents; only then is the memory freed, so a
  /// production later allocated at a recycled address never hits a stale
  /// argument-table entry. Each node leaves the pool in O(1).
  ///
  /// No live child slot may still point into the subtree. Env entries
  /// keyed by a link that replaceChild cut earlier are not reached; they
  /// stay harmless on a recycled address, because a production hands the
  /// same env to every child except a let's binding, and cutting that
  /// link invalidated its entry.
  ///
  /// Not transactional: inside a batch the journal holds closures over the
  /// nodes' cells, so a caller retiring a tree there must wait until the
  /// batch commits or rolls back (as Spreadsheet does).
  void destroy(Exp *Root);

  /// The parentless productions among those created since \p Mark (a
  /// size() taken earlier, with no destroy() in between): the roots of
  /// every tree built since then — after a failed parse, its fragments.
  std::vector<Exp *> rootsSince(size_t Mark) const;

  /// The maintained synthesized attribute: N.value().
  int value(Exp *N) { return Value(N); }

  /// The maintained inherited attribute: Parent.env(Child) — the
  /// environment \p Parent provides to \p Child.
  Env env(Exp *Parent, Exp *Child) { return EnvAttr(Parent, Child); }

  /// The environment of \p N itself (what its parent provides; empty when
  /// parentless). This is the "EXPi.env" of the equations.
  Env envOf(Exp *N);

  /// Structure edits that keep parent pointers coherent.
  void replaceChild(Cell<Exp *> &Slot, Exp *Parent, Exp *NewChild);

  /// Exhaustive evaluation of \p Root's attributes — the baseline
  /// attribution pass of experiment E5. Untracked.
  int oracleValue(const Exp *Root) const { return Root->oracleValue(Env()); }

  Runtime &runtime() { return RT; }
  size_t size() const { return Pool.size(); }

private:
  /// Takes ownership of a freshly built production.
  template <typename T> T *own(T *N) {
    N->PoolSlot = Pool.size();
    Pool.emplace_back(N);
    return N;
  }

  Runtime &RT;
  Maintained<int(Exp *)> Value;
  Maintained<Env(Exp *, Exp *)> EnvAttr;
  /// Every live production; Exp::PoolSlot is each one's index here.
  std::vector<std::unique_ptr<Exp>> Pool;
};

} // namespace alphonse::attrgram

#endif // ALPHONSE_ATTRGRAM_EXPRTREE_H
