//===- PeepholeTest.cpp - Flow-simplification unit tests --------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic unit tests for the guard-run deduplication inside
/// simplifyMonadTerm, pinning the soundness fix the randomized
/// differential harness caught in the parallel-pipeline PR: a data-only
/// heap write (`heap_T_update`) preserves *validity* knowledge but
/// clobbers any guard conjunct that reads the heap data being written, so
/// only data-update-immune conjuncts may survive in the "seen" set. These
/// tests build the guard/modify spines directly, so the behavior no
/// longer relies on the randomized harness to be caught.
///
//===----------------------------------------------------------------------===//

#include "monad/Peephole.h"

#include "hol/Builder.h"
#include "hol/Print.h"

#include <gtest/gtest.h>

#include <cassert>

using namespace ac;
using namespace ac::hol;
namespace nm = ac::hol::names;

namespace {

//===----------------------------------------------------------------------===//
// Term scaffolding: a hand-built lifted_globals state with one w32 heap.
//===----------------------------------------------------------------------===//

const TypeRef &stateTy() {
  static TypeRef S = recordTy("lifted_globals");
  return S;
}
const TypeRef &heapFieldTy() {
  static TypeRef T = funTy(ptrTy(wordTy(32)), wordTy(32));
  return T;
}
const TypeRef &validFieldTy() {
  static TypeRef T = funTy(ptrTy(wordTy(32)), boolTy());
  return T;
}

TermRef ptrFree(const char *Name) {
  return Term::mkFree(Name, ptrTy(wordTy(32)));
}

/// s[p] — a heap *data* read on the state variable (Bound 0 inside the
/// guard lambda).
TermRef heapRead(const TermRef &P) {
  TermRef Fld = mkFieldGet("lifted_globals", "heap_w32", heapFieldTy(),
                           stateTy(), Term::mkBound(0));
  return Term::mkApp(Fld, P);
}

/// is_valid_w32 s p — a validity read, immune to data-only updates.
TermRef validRead(const TermRef &P) {
  TermRef Fld = mkFieldGet("lifted_globals", "is_valid_w32",
                           validFieldTy(), stateTy(), Term::mkBound(0));
  return Term::mkApp(Fld, P);
}

TermRef mkStateGuard(const TermRef &Cond) {
  return mkGuard(stateTy(), unitTy(),
                 Term::mkLam("s", stateTy(), Cond));
}

/// modify (λs. heap_w32_update (λh. <h or a rewrite>) s) — the data-only
/// shape isDataOnlyModify recognizes.
TermRef dataOnlyModify() {
  TermRef UpdFn = Term::mkLam("h", heapFieldTy(), Term::mkBound(0));
  TermRef Body = mkFieldUpdate("lifted_globals", "heap_w32",
                               heapFieldTy(), stateTy(), UpdFn,
                               Term::mkBound(0));
  return mkModify(stateTy(), unitTy(),
                  Term::mkLam("s", stateTy(), Body));
}

/// modify (λs. is_valid_w32_update (λv. v) s) — NOT data-only: validity
/// changes must clear all guard knowledge.
TermRef validityModify() {
  TermRef UpdFn = Term::mkLam("v", validFieldTy(), Term::mkBound(0));
  TermRef Body = mkFieldUpdate("lifted_globals", "is_valid_w32",
                               validFieldTy(), stateTy(), UpdFn,
                               Term::mkBound(0));
  return mkModify(stateTy(), unitTy(),
                  Term::mkLam("s", stateTy(), Body));
}

/// bind chain m1 >>= λ_. m2 >>= λ_. ... >>= λ_. return 0. Each binder
/// takes the step's value type (unit for guard/modify, w32 for gets).
TermRef spine(const std::vector<TermRef> &Steps) {
  TermRef Tail = mkReturn(stateTy(), unitTy(),
                          Term::mkNum(0, wordTy(32)));
  for (size_t I = Steps.size(); I-- > 0;) {
    TypeRef S, A, E;
    bool IsMonad = destMonadTy(typeOf(Steps[I]), S, A, E);
    assert(IsMonad && "spine step is not monadic");
    (void)IsMonad;
    Tail = mkBind(Steps[I], Term::mkLam("u", A, Tail));
  }
  return Tail;
}

unsigned countGuards(const TermRef &T) {
  switch (T->kind()) {
  case Term::Kind::Const:
    return T->isConst(nm::Guard) ? 1 : 0;
  case Term::Kind::App:
    return countGuards(T->fun()) + countGuards(T->argTerm());
  case Term::Kind::Lam:
    return countGuards(T->body());
  default:
    return 0;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Baseline dedup behavior (state-preserving steps keep the seen set).
//===----------------------------------------------------------------------===//

TEST(GuardDedup, RepeatedGuardAcrossGetsIsDropped) {
  TermRef P = ptrFree("p");
  TermRef G = mkStateGuard(validRead(P));
  TermRef Gets = mkGets(stateTy(), unitTy(),
                        Term::mkLam("s", stateTy(), heapRead(P)));
  TermRef In = spine({G, Gets, G});
  TermRef Out = monad::simplifyMonadTerm(In);
  EXPECT_EQ(countGuards(Out), 1u)
      << "gets preserves guard knowledge; got:\n" << printTerm(Out);
}

TEST(GuardDedup, DistinctGuardsBothSurvive) {
  TermRef G1 = mkStateGuard(validRead(ptrFree("p")));
  TermRef G2 = mkStateGuard(validRead(ptrFree("q")));
  TermRef Out = monad::simplifyMonadTerm(spine({G1, G2}));
  EXPECT_EQ(countGuards(Out), 2u) << printTerm(Out);
}

//===----------------------------------------------------------------------===//
// The PR 1 soundness fix: data-only heap writes.
//===----------------------------------------------------------------------===//

TEST(GuardDedup, DataReadingGuardIsNotDeduplicatedAcrossDataWrite) {
  // guard (s[p] < n); modify (heap data); guard (s[p] < n)
  //
  // The write changes exactly the data the guard reads: dropping the
  // second guard was the soundness bug the differential harness caught.
  TermRef P = ptrFree("p");
  TermRef N = Term::mkFree("n", wordTy(32));
  TermRef G = mkStateGuard(mkLess(heapRead(P), N));
  TermRef In = spine({G, dataOnlyModify(), G});
  TermRef Out = monad::simplifyMonadTerm(In);
  EXPECT_EQ(countGuards(Out), 2u)
      << "arithmetic guard over heap data must survive a data-only "
         "write; got:\n"
      << printTerm(Out);
}

TEST(GuardDedup, ValidityGuardIsDeduplicatedAcrossDataWrite) {
  // guard (is_valid s p); modify (heap data); guard (is_valid s p)
  //
  // The Sec 4.4 design point: data writes cannot change validity, so the
  // repeated validity guard stays redundant (the fix must not be
  // over-broad and pessimize the common split-heap pattern).
  TermRef P = ptrFree("p");
  TermRef G = mkStateGuard(validRead(P));
  TermRef In = spine({G, dataOnlyModify(), G});
  TermRef Out = monad::simplifyMonadTerm(In);
  EXPECT_EQ(countGuards(Out), 1u)
      << "validity knowledge survives data-only writes; got:\n"
      << printTerm(Out);
}

TEST(GuardDedup, MixedConjunctionKeepsOnlyTheDataHalf) {
  // guard (is_valid s p ∧ s[p] < n); data write; same guard again.
  // The repeat is not fully covered (its data conjunct was clobbered),
  // so the second guard must survive.
  TermRef P = ptrFree("p");
  TermRef N = Term::mkFree("n", wordTy(32));
  TermRef G =
      mkStateGuard(mkConj(validRead(P), mkLess(heapRead(P), N)));
  TermRef In = spine({G, dataOnlyModify(), G});
  TermRef Out = monad::simplifyMonadTerm(In);
  EXPECT_EQ(countGuards(Out), 2u) << printTerm(Out);
}

TEST(GuardDedup, ValidityWriteClearsAllGuardKnowledge) {
  // guard (is_valid s p); modify (is_valid field); guard (is_valid s p)
  //
  // A write that can change validity invalidates even validity facts.
  TermRef P = ptrFree("p");
  TermRef G = mkStateGuard(validRead(P));
  TermRef In = spine({G, validityModify(), G});
  TermRef Out = monad::simplifyMonadTerm(In);
  EXPECT_EQ(countGuards(Out), 2u)
      << "non-data-only writes must clear the seen set; got:\n"
      << printTerm(Out);
}

//===----------------------------------------------------------------------===//
// Budget neutrality: the step budget bounds rewriting, and every budget's
// result is pinned. The strings were recorded before simplifyMonadTerm
// memoised its walks over shared subterms, so any memo that let a
// budget-starved call see a different result would show here.
//===----------------------------------------------------------------------===//

namespace {

/// A monadic program with a subterm shared twice and redexes of every
/// rule family: return-bind, skip-bind, bind associativity, a guard with
/// a True conjunct, a re-throwing catch handler, a literal condition and
/// a repeated guard for the dedup pass.
TermRef budgetPinProgram() {
  TypeRef W = wordTy(32);
  TermRef P = ptrFree("p");
  TermRef X = Term::mkFree("x", W);
  TermRef G = mkStateGuard(mkConj(mkTrue(), validRead(P)));
  TermRef Gets = mkGets(stateTy(), W,
                        Term::mkLam("s", stateTy(), heapRead(P)));
  auto Free = [&](const char *N) { return Term::mkFree(N, W); };
  auto Lam = [&](const char *N, TypeRef Ty, TermRef Body) {
    return lambdaFree(N, std::move(Ty), std::move(Body));
  };
  // bind (return x) (λv. guard G; r <- gets s[p]; return (r + v))
  TermRef Shared = mkBind(
      mkReturn(stateTy(), W, X),
      Lam("v", W,
          mkBind(G, Lam("u", unitTy(),
                        mkBind(Gets, Lam("r", W,
                                         mkReturn(stateTy(), W,
                                                  mkPlus(Free("r"),
                                                         Free("v")))))))));
  // bind (bind Shared (λa. skip; return a)) (λb. bind Shared (λc.
  //   condition (λs. True) (return (b + c)) (throw x)))
  TermRef First = mkBind(
      Shared, Lam("a", W,
                  mkBind(mkSkip(stateTy(), W),
                         Lam("u", unitTy(),
                             mkReturn(stateTy(), W, Free("a"))))));
  TermRef Cond = mkCondition(
      Term::mkLam("s", stateTy(), mkTrue()),
      mkReturn(stateTy(), W, mkPlus(Free("b"), Free("c"))),
      mkThrow(stateTy(), W, X));
  TermRef Body = mkBind(
      First, Lam("b", W, mkBind(Shared, Lam("c", W, Cond))));
  // catch Body (λe. throw e)
  return mkCatch(Body, Lam("e", W, mkThrow(stateTy(), W, Free("e"))));
}

} // namespace

TEST(PeepholeBudget, EveryBudgetGivesItsPinnedResult) {
  const std::pair<unsigned, const char *> Pins[] = {
      {0, R"pin(catch
  do b ← do a ← do v ← return x;
           guard (λs. True ∧ is_valid_w32 s p);
           r ← gets (λs. s[p]);
           return (r +w v)
        od;
        skip;
        return a
     od;
     c ← do v ← return x;
        guard (λs. True ∧ is_valid_w32 s p);
        r ← gets (λs. s[p]);
        return (r +w v)
     od;
     condition (λs. True) (return (b +w c)) (throw x)
  od
  (λe. throw e))pin"},
      {1, R"pin(catch
  do b ← do a ← do v ← return x;
           guard (λs. is_valid_w32 s p);
           r ← gets (λs. s[p]);
           return (r +w v)
        od;
        skip;
        return a
     od;
     c ← do v ← return x;
        guard (λs. True ∧ is_valid_w32 s p);
        r ← gets (λs. s[p]);
        return (r +w v)
     od;
     condition (λs. True) (return (b +w c)) (throw x)
  od
  (λe. throw e))pin"},
      {2, R"pin(catch
  do b ← do a ← do guard (λs. is_valid_w32 s p);
           r ← gets (λs. s[p]);
           return (r +w x)
        od;
        skip;
        return a
     od;
     c ← do v ← return x;
        guard (λs. True ∧ is_valid_w32 s p);
        r ← gets (λs. s[p]);
        return (r +w v)
     od;
     condition (λs. True) (return (b +w c)) (throw x)
  od
  (λe. throw e))pin"},
      {3, R"pin(catch
  do b ← do a ← do guard (λs. is_valid_w32 s p);
           r ← gets (λs. s[p]);
           return (r +w x)
        od;
        return a
     od;
     c ← do v ← return x;
        guard (λs. True ∧ is_valid_w32 s p);
        r ← gets (λs. s[p]);
        return (r +w v)
     od;
     condition (λs. True) (return (b +w c)) (throw x)
  od
  (λe. throw e))pin"},
      {10000, R"pin(do guard (λs. is_valid_w32 s p);
   r ← gets (λs. s[p]);
   r' ← gets (λs. s[p]);
   return (r +w x +w (r' +w x))
od)pin"},
  };
  TermRef In = budgetPinProgram();
  for (const auto &[Budget, Expected] : Pins)
    EXPECT_EQ(printTerm(monad::simplifyMonadTerm(In, Budget)), Expected)
        << "budget " << Budget;
}
