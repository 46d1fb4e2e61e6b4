//===- InterpCheckpointTest.cpp - Interpreter checkpoint tests ------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpoint save/restore at the interpreter tier: globals, heap objects
/// (including object-to-object references), cached-procedure argument
/// tables, consistency bits, and print() output all survive a roundtrip
/// into a fresh interpreter over the same compiled module. Checkpoints
/// from a different module or execution mode are refused with a
/// structured error, as is restoring into an interpreter that has
/// already run.
///
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "lang/CompileTestHelper.h"
#include "support/CheckpointIO.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace alphonse::interp {
namespace {

using testing::compile;

static Value IV(long X) { return Value::integer(X); }

/// A unique temp path per test, removed (with its sidecars) on exit.
class TempCheckpoint {
public:
  explicit TempCheckpoint(const std::string &Stem) {
    const char *Dir = std::getenv("TMPDIR");
    Path = std::string(Dir ? Dir : "/tmp") + "/" + Stem + "." +
           std::to_string(::getpid()) + ".ckpt";
  }
  ~TempCheckpoint() {
    std::remove(Path.c_str());
    std::remove((Path + ".tmp").c_str());
    std::remove(deltaLogPath(Path).c_str());
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

// Globals, a two-object heap reachable from a global, a cached procedure
// over both, and plain mutators.
const char *LedgerProgram = R"(
TYPE Node = OBJECT
  val : INTEGER;
  next : Node;
END;

VAR x : INTEGER := 1;
VAR root : Node;

(*CACHED*) PROCEDURE Total(k : INTEGER) : INTEGER =
BEGIN
  RETURN x + root.val + root.next.val + k;
END Total;

PROCEDURE Init() =
VAR n : Node;
BEGIN
  root := NEW(Node);
  root.val := 10;
  n := NEW(Node);
  n.val := 20;
  root.next := n;
END Init;

PROCEDURE SetX(v : INTEGER) = BEGIN x := v; END SetX;
PROCEDURE SetVal(v : INTEGER) = BEGIN root.val := v; END SetVal;
PROCEDURE Hello() = BEGIN print("hello"); END Hello;
)";

TEST(InterpCheckpointTest, RoundtripPreservesGlobalsHeapCachesAndOutput) {
  TempCheckpoint File("interp-ckpt-roundtrip");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("Init");
  A.call("Hello");
  EXPECT_EQ(A.call("Total", {IV(5)}).Int, 1 + 10 + 20 + 5);
  EXPECT_EQ(A.call("Total", {IV(7)}).Int, 1 + 10 + 20 + 7);
  A.call("SetX", {IV(100)}); // Both cached instances go stale.
  A.saveCheckpoint(File.path());

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.restoreCheckpoint(File.path());
  EXPECT_TRUE(B.restoreNote().empty());
  EXPECT_TRUE(B.runtime().graph().verify().empty());
  EXPECT_EQ(B.global("x").Int, 100);
  EXPECT_EQ(B.field(B.global("root"), "val").Int, 10);
  EXPECT_EQ(B.field(B.field(B.global("root"), "next"), "val").Int, 20);
  EXPECT_EQ(B.output(), "hello\n");
  EXPECT_EQ(B.call("Total", {IV(5)}).Int, 100 + 10 + 20 + 5);

  // The restored interpreter keeps working incrementally.
  B.call("SetVal", {IV(-3)});
  EXPECT_EQ(B.call("Total", {IV(5)}).Int, 100 - 3 + 20 + 5);
  EXPECT_FALSE(B.failed());
}

// A self-balancing tree in the paper's style (Algorithm 11): inserts build
// an unbalanced BST, and the maintained balance() method rebalances it on
// demand. Balance reads subtrees whose own balance() is still running.
const char *AvlProgram = R"(
TYPE Tree = OBJECT
  left, right : Tree;
  key : INTEGER;
METHODS
  (*MAINTAINED*) height() : INTEGER := Height;
  (*MAINTAINED*) balance() : Tree := Balance;
END;

TYPE TreeNil = Tree OBJECT
OVERRIDES
  (*MAINTAINED*) height := HeightNil;
  (*MAINTAINED*) balance := BalanceNil;
END;

VAR nil : Tree;
VAR root : Tree;

PROCEDURE Height(t : Tree) : INTEGER =
BEGIN
  RETURN max(t.left.height(), t.right.height()) + 1;
END Height;

PROCEDURE HeightNil(t : Tree) : INTEGER = BEGIN RETURN 0; END HeightNil;

PROCEDURE Diff(t : Tree) : INTEGER =
BEGIN
  RETURN t.left.height() - t.right.height();
END Diff;

PROCEDURE RotateRight(t : Tree) : Tree =
VAR s : Tree;
BEGIN
  s := t.left;
  t.left := s.right;
  s.right := t;
  RETURN s;
END RotateRight;

PROCEDURE RotateLeft(t : Tree) : Tree =
VAR s : Tree;
BEGIN
  s := t.right;
  t.right := s.left;
  s.left := t;
  RETURN s;
END RotateLeft;

PROCEDURE Balance(t : Tree) : Tree =
VAR u : Tree;
BEGIN
  t.left := t.left.balance();
  t.right := t.right.balance();
  u := t;
  IF Diff(u) > 1 THEN
    IF Diff(u.left) < 0 THEN
      u.left := RotateLeft(u.left);
    END;
    u := RotateRight(u);
    RETURN u.balance();
  ELSIF Diff(u) < -1 THEN
    IF Diff(u.right) > 0 THEN
      u.right := RotateRight(u.right);
    END;
    u := RotateLeft(u);
    RETURN u.balance();
  END;
  RETURN u;
END Balance;

PROCEDURE BalanceNil(t : Tree) : Tree = BEGIN RETURN t; END BalanceNil;

PROCEDURE Init() =
BEGIN
  nil := NEW(TreeNil);
  root := nil;
END Init;

PROCEDURE Insert(k : INTEGER) =
VAR t, p : Tree;
BEGIN
  p := NEW(Tree);
  p.key := k;
  p.left := nil;
  p.right := nil;
  IF root = nil THEN
    root := p;
    RETURN;
  END;
  t := root;
  WHILE TRUE DO
    IF k < t.key THEN
      IF t.left = nil THEN
        t.left := p;
        RETURN;
      END;
      t := t.left;
    ELSE
      IF t.right = nil THEN
        t.right := p;
        RETURN;
      END;
      t := t.right;
    END;
  END;
END Insert;

PROCEDURE Rebalance() = BEGIN root := root.balance(); END Rebalance;

PROCEDURE RootHeight() : INTEGER = BEGIN RETURN root.height(); END RootHeight;
)";

TEST(InterpCheckpointTest, RestoreAfterFirstRebalanceOfBulkBuiltTree) {
  // The first Rebalance of a bulk-built tree leaves nodes flagged as read
  // mid-execution, which exempts their edges from the level audit of
  // verify(). The checkpoint must carry that flag, or the restored graph
  // fails the audit the live graph passes.
  TempCheckpoint File("interp-ckpt-rebalance");
  auto C = compile(AvlProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("Init");
  for (long K = 1; K <= 64; ++K)
    A.call("Insert", {IV(K)});
  A.call("Rebalance");
  ASSERT_FALSE(A.failed());
  ASSERT_TRUE(A.runtime().graph().verify().empty());
  A.saveCheckpoint(File.path());

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.restoreCheckpoint(File.path());
  EXPECT_TRUE(B.runtime().graph().verify().empty());
  EXPECT_EQ(B.call("RootHeight").Int, A.call("RootHeight").Int);
  EXPECT_EQ(B.call("RootHeight").Int, 7);

  // Both keep working alike after the round trip.
  for (long K = 65; K <= 80; ++K) {
    A.call("Insert", {IV(K)});
    B.call("Insert", {IV(K)});
  }
  A.call("Rebalance");
  B.call("Rebalance");
  EXPECT_EQ(B.call("RootHeight").Int, A.call("RootHeight").Int);
  EXPECT_FALSE(B.failed());
  EXPECT_TRUE(B.runtime().graph().verify().empty());
}

TEST(InterpCheckpointTest, DeltaRoundtrip) {
  TempCheckpoint File("interp-ckpt-delta");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("Init");
  EXPECT_EQ(A.call("Total", {IV(0)}).Int, 31);
  A.saveCheckpoint(File.path());

  A.call("SetX", {IV(50)});
  A.appendDelta(File.path());
  A.call("SetVal", {IV(11)});
  A.call("SetX", {IV(60)});
  A.appendDelta(File.path());
  long Want = A.call("Total", {IV(2)}).Int;
  EXPECT_EQ(Want, 60 + 11 + 20 + 2);

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.restoreCheckpoint(File.path());
  EXPECT_TRUE(B.restoreNote().empty());
  EXPECT_TRUE(B.runtime().graph().verify().empty());
  EXPECT_EQ(B.global("x").Int, 60);
  EXPECT_EQ(B.call("Total", {IV(2)}).Int, Want);
}

// Maintained *methods* table their implementing procedure, whose own
// pragma is not incremental (the binding's is) — the restore path must
// accept those tables and rebuild the nodes with the captured strategy.
TEST(InterpCheckpointTest, MaintainedMethodTablesRoundtrip) {
  TempCheckpoint File("interp-ckpt-methods");
  auto C = compile(testing::heightTreeProgram());
  ASSERT_TRUE(C->ok()) << C->Diags.str();

  Interp A(C->M, C->Info, ExecMode::Alphonse);
  A.call("BuildChain", {IV(8)});
  EXPECT_EQ(A.call("RootHeight").Int, 8);
  A.call("GrowLeft", {IV(3)});
  A.saveCheckpoint(File.path());
  EXPECT_EQ(A.call("RootHeight").Int, 11);

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.restoreCheckpoint(File.path());
  EXPECT_TRUE(B.runtime().graph().verify().empty());
  EXPECT_EQ(B.call("RootHeight").Int, 11);
  B.call("GrowLeft", {IV(2)});
  EXPECT_EQ(B.call("RootHeight").Int, 13);
  EXPECT_FALSE(B.failed());
}

TEST(InterpCheckpointTest, WrongModuleIsRejected) {
  TempCheckpoint File("interp-ckpt-wrong-module");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  {
    Interp A(C->M, C->Info, ExecMode::Alphonse);
    A.call("Init");
    A.saveCheckpoint(File.path());
  }

  auto Other = compile(testing::heightTreeProgram());
  ASSERT_TRUE(Other->ok()) << Other->Diags.str();
  Interp B(Other->M, Other->Info, ExecMode::Alphonse);
  try {
    B.restoreCheckpoint(File.path());
    FAIL() << "a checkpoint from a different module must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::Malformed);
  }
}

TEST(InterpCheckpointTest, ModeMismatchIsRejected) {
  TempCheckpoint File("interp-ckpt-mode");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  {
    Interp A(C->M, C->Info, ExecMode::Alphonse);
    A.call("Init");
    A.saveCheckpoint(File.path());
  }

  Interp B(C->M, C->Info, ExecMode::Conventional);
  try {
    B.restoreCheckpoint(File.path());
    FAIL() << "an Alphonse-mode checkpoint must not load conventionally";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::Malformed);
  }
}

TEST(InterpCheckpointTest, RestoreIntoUsedInterpreterIsBusy) {
  TempCheckpoint File("interp-ckpt-busy");
  auto C = compile(LedgerProgram);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  {
    Interp A(C->M, C->Info, ExecMode::Alphonse);
    A.call("Init");
    A.call("Total", {IV(1)});
    A.saveCheckpoint(File.path());
  }

  Interp B(C->M, C->Info, ExecMode::Alphonse);
  B.call("Init"); // Tracked state exists now; restore must refuse.
  B.call("Total", {IV(1)});
  try {
    B.restoreCheckpoint(File.path());
    FAIL() << "restore into a used interpreter must be refused";
  } catch (const CheckpointError &E) {
    EXPECT_EQ(E.code(), CkptError::Busy);
  }
}

} // namespace
} // namespace alphonse::interp
