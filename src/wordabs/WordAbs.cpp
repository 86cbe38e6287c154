//===- WordAbs.cpp --------------------------------------------------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Forward-derivation engine for Sec 3's word abstraction. Three
// interleaved value modes:
//
//   Nat/Int mode  abstract a wordN/swordN expression as an ideal nat/int
//                 (arithmetic rules emit overflow side-conditions);
//   Id mode       reproduce a concrete value whose type is unchanged, with
//                 embedded word variables re-expressed through their ideal
//                 images (`of_nat (unat v)` etc.), comparisons moved to
//                 ideal arithmetic, and sint/unat coercions eliminated.
//
// Statement rules lift these through the monad; preconditions become
// guards at the point of use, so the judgement's outer precondition is
// literally (%_. True) and the final theorem needs no extra plumbing.
//
//===----------------------------------------------------------------------===//

#include "wordabs/WordAbs.h"

#include "hol/Names.h"
#include "hol/GroundEval.h"
#include "hol/ProofState.h"
#include "hol/RuleCache.h"
#include "monad/Peephole.h"
#include "support/RuleProfile.h"
#include "support/Trace.h"

#include <atomic>
#include <mutex>

using namespace ac;
using namespace ac::wordabs;
using namespace ac::hol;
namespace nm = ac::hol::names;

thread_local std::set<std::string> WordAbstraction::Tracked;
thread_local std::string WordAbstraction::CurFn;
thread_local unsigned WordAbstraction::FreshCtr = 0;
thread_local std::unordered_map<uint64_t, bool> WordAbstraction::TrackedMemo;
thread_local std::unordered_map<uint64_t, WordAbstraction::ValOut>
    WordAbstraction::ValIdMemo[2];
thread_local std::unordered_map<uint64_t, WordAbstraction::ValOut>
    WordAbstraction::ValNatIntMemo[2];

void WordAbstraction::trackAdd(const std::string &N) {
  Tracked.insert(N);
  TrackedMemo.clear();
  ValIdMemo[0].clear();
  ValIdMemo[1].clear();
  ValNatIntMemo[0].clear();
  ValNatIntMemo[1].clear();
}

void WordAbstraction::trackDrop(const std::string &N) {
  Tracked.erase(N);
  TrackedMemo.clear();
  ValIdMemo[0].clear();
  ValIdMemo[1].clear();
  ValNatIntMemo[0].clear();
  ValNatIntMemo[1].clear();
}

void WordAbstraction::clearFnMemos() {
  TrackedMemo.clear();
  ValIdMemo[0].clear();
  ValIdMemo[1].clear();
  ValNatIntMemo[0].clear();
  ValNatIntMemo[1].clear();
}

//===----------------------------------------------------------------------===//
// Kinds and abstraction functions
//===----------------------------------------------------------------------===//

AbsKind ac::wordabs::kindOf(const TypeRef &T) {
  if (isWordTy(T))
    return AbsKind::Nat;
  if (isSwordTy(T))
    return AbsKind::Int;
  if (T->isCon("prod"))
    return AbsKind::Pair;
  return AbsKind::Id;
}

TypeRef ac::wordabs::absTy(const TypeRef &T) {
  switch (kindOf(T)) {
  case AbsKind::Nat:
    return natTy();
  case AbsKind::Int:
    return intTy();
  case AbsKind::Pair:
    return prodTy(absTy(T->arg(0)), absTy(T->arg(1)));
  case AbsKind::Id:
    return T;
  }
  return T;
}

namespace {

TermRef unatC(unsigned W) {
  return Term::mkConst(nm::Unat, funTy(wordTy(W), natTy()));
}
TermRef sintC(unsigned W) {
  return Term::mkConst(nm::Sint, funTy(swordTy(W), intTy()));
}
TermRef ofNatC(unsigned W) {
  return Term::mkConst(nm::OfNat, funTy(natTy(), wordTy(W)));
}
TermRef ofIntC(unsigned W) {
  return Term::mkConst(nm::OfInt, funTy(intTy(), swordTy(W)));
}
TermRef idAbsC(const TypeRef &T) {
  return Term::mkConst("id_abs", funTy(T, T));
}

} // namespace

TermRef ac::wordabs::rxTerm(const TypeRef &T) {
  switch (kindOf(T)) {
  case AbsKind::Nat:
    return unatC(wordBits(T));
  case AbsKind::Int:
    return sintC(wordBits(T));
  case AbsKind::Pair: {
    TermRef F = rxTerm(T->arg(0));
    TermRef G = rxTerm(T->arg(1));
    // %p. (F (fst p), G (snd p)).
    TermRef P = Term::mkFree("p^rx", T);
    TermRef Body = mkPair(Term::mkApp(F, mkFst(P)),
                          Term::mkApp(G, mkSnd(P)));
    return lambdaFree("p^rx", T, Body);
  }
  case AbsKind::Id:
    return idAbsC(T);
  }
  return idAbsC(T);
}

//===----------------------------------------------------------------------===//
// Judgement builders
//===----------------------------------------------------------------------===//

namespace {

/// abs_w_val P f a c — types taken from f's type (tc => ta).
TermRef mkAbsWVal(const TermRef &P, const TermRef &F, const TermRef &A,
                  const TermRef &C, const TypeRef &FTy) {
  TermRef J = Term::mkConst(
      nm::AbsWVal,
      funTys({boolTy(), FTy, ranTy(FTy), domTy(FTy)}, boolTy()));
  return mkApps(J, {P, F, A, C});
}

/// abs_w_stmt P rx ex A C at explicit types.
TermRef mkAbsWStmt(const TermRef &P, const TermRef &Rx, const TermRef &Ex,
                   const TermRef &A, const TermRef &C, const TypeRef &S,
                   const TypeRef &RxTy, const TypeRef &ExTy) {
  TypeRef ATy = monadTy(S, ranTy(RxTy), ranTy(ExTy));
  TypeRef CTy = monadTy(S, domTy(RxTy), domTy(ExTy));
  TermRef J = Term::mkConst(
      nm::AbsWStmt,
      funTys({funTy(S, boolTy()), RxTy, ExTy, ATy, CTy}, boolTy()));
  return mkApps(J, {P, Rx, Ex, A, C});
}

TermRef V(const char *N, TypeRef Ty) {
  return Term::mkVar(N, 0, std::move(Ty));
}

TermRef allLoose(const char *N, const TypeRef &Ty, const TermRef &Body) {
  TermRef Lam = Term::mkLam(N, Ty, Body);
  return Term::mkApp(
      Term::mkConst(nm::All, funTy(funTy(Ty, boolTy()), boolTy())), Lam);
}

// Explicitly-typed monad constants (shared shapes with the HL engine).
TermRef returnC(const TypeRef &S, const TypeRef &A, const TypeRef &E) {
  return Term::mkConst(nm::Return, funTy(A, monadTy(S, A, E)));
}
TermRef throwC(const TypeRef &S, const TypeRef &A, const TypeRef &E) {
  return Term::mkConst(nm::Throw, funTy(E, monadTy(S, A, E)));
}
TermRef guardC(const TypeRef &S, const TypeRef &E) {
  return Term::mkConst(nm::Guard,
                       funTy(funTy(S, boolTy()), monadTy(S, unitTy(), E)));
}
TermRef getsC(const TypeRef &S, const TypeRef &A, const TypeRef &E) {
  return Term::mkConst(nm::Gets, funTy(funTy(S, A), monadTy(S, A, E)));
}
TermRef modifyC(const TypeRef &S, const TypeRef &E) {
  return Term::mkConst(nm::Modify,
                       funTy(funTy(S, S), monadTy(S, unitTy(), E)));
}
TermRef bindC(const TypeRef &S, const TypeRef &A, const TypeRef &B,
              const TypeRef &E) {
  return Term::mkConst(
      nm::Bind, funTys({monadTy(S, A, E), funTy(A, monadTy(S, B, E))},
                       monadTy(S, B, E)));
}
TermRef catchC(const TypeRef &S, const TypeRef &A, const TypeRef &E,
               const TypeRef &E2) {
  return Term::mkConst(
      nm::Catch, funTys({monadTy(S, A, E), funTy(E, monadTy(S, A, E2))},
                        monadTy(S, A, E2)));
}
TermRef condC(const TypeRef &S, const TypeRef &A, const TypeRef &E) {
  TypeRef M = monadTy(S, A, E);
  return Term::mkConst(nm::Condition,
                       funTys({funTy(S, boolTy()), M, M}, M));
}
TermRef whileC(const TypeRef &S, const TypeRef &I, const TypeRef &E) {
  return Term::mkConst(
      nm::WhileLoop,
      funTys({funTys({I, S}, boolTy()), funTy(I, monadTy(S, I, E)), I},
             monadTy(S, I, E)));
}
TermRef skipC(const TypeRef &S, const TypeRef &E) {
  return Term::mkConst(nm::Skip, monadTy(S, unitTy(), E));
}
TermRef failC(const TypeRef &S, const TypeRef &A, const TypeRef &E) {
  return Term::mkConst(nm::Fail, monadTy(S, A, E));
}

/// `do guard (%_. P); M od` for a pure bool P.
TermRef guardPure(const TypeRef &S, const TypeRef &A, const TypeRef &E,
                  const TermRef &P, const TermRef &M) {
  TermRef G = Term::mkApp(guardC(S, E),
                          Term::mkLam("_", S, liftLoose(P, 1)));
  return mkApps(bindC(S, unitTy(), A, E),
                {G, Term::mkLam("_", unitTy(), liftLoose(M, 1))});
}

/// `do guard P; M od` for a state predicate P :: S => bool.
TermRef guardPred(const TypeRef &S, const TypeRef &A, const TypeRef &E,
                  const TermRef &P, const TermRef &M) {
  return mkApps(bindC(S, unitTy(), A, E),
                {Term::mkApp(guardC(S, E), P),
                 Term::mkLam("_", unitTy(), liftLoose(M, 1))});
}

Thm ax(unsigned &Count, const std::string &Name, TermRef Prop) {
  ++Count;
  return Kernel::axiom("WA." + Name, std::move(Prop));
}

//===----------------------------------------------------------------------===//
// Generic rules
//===----------------------------------------------------------------------===//

struct WARules {
  unsigned Count = 0;
  TypeRef c = Type::var("c"), a = Type::var("a"), x = Type::var("x"),
          y = Type::var("y");

  Thm Triv, ReflId, IdApp, IdExt, PairR, WeakenL, WeakenR;
  Thm Return_, Throw_, Gets, Modify, Guard, Skip_, Fail_, Bind, Catch,
      Cond, While;

  WARules() {
    // WTRIV (Table 3, verbatim): abs_w_val True f (f b) b.
    {
      TermRef F = V("f", funTy(c, a));
      TermRef B = V("b", c);
      Triv = ax(Count, "triv",
                mkAbsWVal(mkTrue(), F, Term::mkApp(F, B), B,
                          funTy(c, a)));
    }
    // Identity-mode rules.
    {
      TermRef C = V("k", c);
      ReflId = ax(Count, "refl_id",
                  mkAbsWVal(mkTrue(), idAbsC(c), C, C, funTy(c, c)));
    }
    {
      TermRef P = V("P", boolTy()), Q = V("Q", boolTy());
      TermRef Fp = V("f'", funTy(x, y)), Fc = V("f", funTy(x, y));
      TermRef Xp = V("x'", x), Xc = V("xx", x);
      IdApp = ax(
          Count, "id_app",
          mkImp(mkAbsWVal(P, idAbsC(funTy(x, y)), Fp, Fc,
                          funTy(funTy(x, y), funTy(x, y))),
                mkImp(mkAbsWVal(Q, idAbsC(x), Xp, Xc, funTy(x, x)),
                      mkAbsWVal(mkConj(P, Q), idAbsC(y),
                                Term::mkApp(Fp, Xp),
                                Term::mkApp(Fc, Xc), funTy(y, y)))));
    }
    {
      TermRef P = V("P", boolTy());
      TermRef Gp = V("g'", funTy(x, y)), Gc = V("g", funTy(x, y));
      TermRef Prem = allLoose(
          "v", x,
          mkAbsWVal(liftLoose(P, 1), idAbsC(y),
                    Term::mkApp(liftLoose(Gp, 1), Term::mkBound(0)),
                    Term::mkApp(liftLoose(Gc, 1), Term::mkBound(0)),
                    funTy(y, y)));
      IdExt = ax(Count, "id_ext",
                 mkImp(Prem, mkAbsWVal(P, idAbsC(funTy(x, y)), Gp, Gc,
                                       funTy(funTy(x, y), funTy(x, y)))));
    }
    // Pairs (loop iterators).
    {
      TypeRef d = Type::var("d"), b = Type::var("b");
      TermRef P = V("P", boolTy()), Q = V("Q", boolTy());
      TermRef F = V("f", funTy(c, a)), G = V("g", funTy(d, b));
      TermRef Xp = V("x'", a), Xc = V("xx", c);
      TermRef Yp = V("y'", b), Yc = V("yy", d);
      // rx = %p. (f (fst p), g (snd p)).
      TermRef FstC = Term::mkConst(nm::Fst, funTy(prodTy(c, d), c));
      TermRef SndC = Term::mkConst(nm::Snd, funTy(prodTy(c, d), d));
      TermRef PairAC =
          Term::mkConst(nm::PairC, funTys({a, b}, prodTy(a, b)));
      TermRef PairCC =
          Term::mkConst(nm::PairC, funTys({c, d}, prodTy(c, d)));
      TermRef RxBody = mkApps(
          PairAC,
          {Term::mkApp(liftLoose(F, 1),
                       Term::mkApp(FstC, Term::mkBound(0))),
           Term::mkApp(liftLoose(G, 1),
                       Term::mkApp(SndC, Term::mkBound(0)))});
      TermRef Rx = Term::mkLam("p", prodTy(c, d), RxBody);
      PairR = ax(
          Count, "pair",
          mkImp(mkAbsWVal(P, F, Xp, Xc, funTy(c, a)),
                mkImp(mkAbsWVal(Q, G, Yp, Yc, funTy(d, b)),
                      mkAbsWVal(mkConj(P, Q), Rx,
                                mkApps(PairAC, {Xp, Yp}),
                                mkApps(PairCC, {Xc, Yc}),
                                funTy(prodTy(c, d), prodTy(a, b))))));
    }
    // Precondition normalisation.
    {
      TermRef Q = V("Q", boolTy());
      TermRef F = V("f", funTy(c, a));
      TermRef A2 = V("a", a), C2 = V("cc", c);
      WeakenL = ax(Count, "weaken_true_l",
                   mkImp(mkAbsWVal(mkConj(mkTrue(), Q), F, A2, C2,
                                   funTy(c, a)),
                         mkAbsWVal(Q, F, A2, C2, funTy(c, a))));
      WeakenR = ax(Count, "weaken_true_r",
                   mkImp(mkAbsWVal(mkConj(Q, mkTrue()), F, A2, C2,
                                   funTy(c, a)),
                         mkAbsWVal(Q, F, A2, C2, funTy(c, a))));
    }

    //===------------------------------------------------------------===//
    // Statement rules. State type 'st, exception types 'ec/'ea,
    // value types 'c/'a abstracted through ?rx / ?ex.
    //===------------------------------------------------------------===//
    TypeRef st = Type::var("st");
    TypeRef ec = Type::var("ec"), ea = Type::var("ea");
    TermRef Ex = V("ex", funTy(ec, ea));
    TermRef TP = Term::mkLam("_", st, mkTrue());
    auto Stmt = [&](const TermRef &Rx, const TermRef &A2,
                    const TermRef &C2, const TypeRef &RxTy) {
      return mkAbsWStmt(TP, Rx, Ex, A2, C2, st, RxTy, funTy(ec, ea));
    };

    {
      TermRef P = V("P", boolTy());
      TermRef F = V("f", funTy(c, a));
      TermRef A2 = V("a", a), C2 = V("cc", c);
      Return_ = ax(
          Count, "return",
          mkImp(mkAbsWVal(P, F, A2, C2, funTy(c, a)),
                Stmt(F,
                     guardPure(st, a, ea, P,
                               Term::mkApp(returnC(st, a, ea), A2)),
                     Term::mkApp(returnC(st, c, ec), C2),
                     funTy(c, a))));
    }
    {
      TermRef P = V("P", boolTy());
      TermRef F = V("f", funTy(c, a)); // value rx (unused payload)
      TermRef Ep = V("e'", ea), Ec = V("ee", ec);
      Throw_ = ax(
          Count, "throw",
          mkImp(mkAbsWVal(P, Ex, Ep, Ec, funTy(ec, ea)),
                Stmt(F,
                     guardPure(st, a, ea, P,
                               Term::mkApp(throwC(st, a, ea), Ep)),
                     Term::mkApp(throwC(st, c, ec), Ec), funTy(c, a))));
    }
    {
      TermRef P = V("P", funTy(st, boolTy()));
      TermRef F = V("f", funTy(c, a));
      TermRef A2 = V("a", funTy(st, a)), C2 = V("cc", funTy(st, c));
      TermRef Prem = allLoose(
          "s", st,
          mkAbsWVal(Term::mkApp(liftLoose(P, 1), Term::mkBound(0)),
                    liftLoose(F, 1),
                    Term::mkApp(liftLoose(A2, 1), Term::mkBound(0)),
                    Term::mkApp(liftLoose(C2, 1), Term::mkBound(0)),
                    funTy(c, a)));
      Gets = ax(Count, "gets",
                mkImp(Prem,
                      Stmt(F,
                           guardPred(st, a, ea, P,
                                     Term::mkApp(getsC(st, a, ea), A2)),
                           Term::mkApp(getsC(st, c, ec), C2),
                           funTy(c, a))));
    }
    {
      TermRef P = V("P", funTy(st, boolTy()));
      TermRef Mp = V("m'", funTy(st, st)), Mc = V("m", funTy(st, st));
      TermRef Prem = allLoose(
          "s", st,
          mkAbsWVal(Term::mkApp(liftLoose(P, 1), Term::mkBound(0)),
                    idAbsC(st),
                    Term::mkApp(liftLoose(Mp, 1), Term::mkBound(0)),
                    Term::mkApp(liftLoose(Mc, 1), Term::mkBound(0)),
                    funTy(st, st)));
      Modify = ax(
          Count, "modify",
          mkImp(Prem,
                Stmt(idAbsC(unitTy()),
                     guardPred(st, unitTy(), ea, P,
                               Term::mkApp(modifyC(st, ea), Mp)),
                     Term::mkApp(modifyC(st, ec), Mc),
                     funTy(unitTy(), unitTy()))));
    }
    {
      TermRef P = V("P", funTy(st, boolTy()));
      TermRef Gp = V("g'", funTy(st, boolTy()));
      TermRef Gc = V("g", funTy(st, boolTy()));
      TermRef Prem = allLoose(
          "s", st,
          mkAbsWVal(Term::mkApp(liftLoose(P, 1), Term::mkBound(0)),
                    idAbsC(boolTy()),
                    Term::mkApp(liftLoose(Gp, 1), Term::mkBound(0)),
                    Term::mkApp(liftLoose(Gc, 1), Term::mkBound(0)),
                    funTy(boolTy(), boolTy())));
      TermRef Conj = Term::mkLam(
          "s", st,
          mkConj(Term::mkApp(liftLoose(P, 1), Term::mkBound(0)),
                 Term::mkApp(liftLoose(Gp, 1), Term::mkBound(0))));
      Guard = ax(Count, "guard",
                 mkImp(Prem,
                       Stmt(idAbsC(unitTy()),
                            Term::mkApp(guardC(st, ea), Conj),
                            Term::mkApp(guardC(st, ec), Gc),
                            funTy(unitTy(), unitTy()))));
    }
    Skip_ = ax(Count, "skip",
               Stmt(idAbsC(unitTy()), skipC(st, ea), skipC(st, ec),
                    funTy(unitTy(), unitTy())));
    {
      TermRef F = V("f", funTy(c, a));
      Fail_ = ax(Count, "fail",
                 Stmt(F, failC(st, a, ea), failC(st, c, ec),
                      funTy(c, a)));
    }
    {
      TypeRef c2 = Type::var("c2"), a2 = Type::var("a2");
      TermRef Rx1 = V("rx1", funTy(c, a));
      TermRef Rx2 = V("rx2", funTy(c2, a2));
      TermRef Lp = V("L'", monadTy(st, a, ea));
      TermRef Lc = V("L", monadTy(st, c, ec));
      TermRef Rp = V("R'", funTy(a, monadTy(st, a2, ea)));
      TermRef Rc = V("R", funTy(c, monadTy(st, c2, ec)));
      TermRef Prem1 = Stmt(Rx1, Lp, Lc, funTy(c, a));
      TermRef Prem2 = allLoose(
          "r", c,
          mkAbsWStmt(
              TP, liftLoose(Rx2, 1), liftLoose(Ex, 1),
              Term::mkApp(liftLoose(Rp, 1),
                          Term::mkApp(liftLoose(Rx1, 1),
                                      Term::mkBound(0))),
              Term::mkApp(liftLoose(Rc, 1), Term::mkBound(0)), st,
              funTy(c2, a2), funTy(ec, ea)));
      TermRef Concl =
          Stmt(Rx2, mkApps(bindC(st, a, a2, ea), {Lp, Rp}),
               mkApps(bindC(st, c, c2, ec), {Lc, Rc}), funTy(c2, a2));
      Bind = ax(Count, "bind", mkImp(Prem1, mkImp(Prem2, Concl)));
    }
    {
      // catch: inner exceptions abstracted by ex1; the handler receives
      // the abstract exception.
      TypeRef e1c = Type::var("e1c"), e1a = Type::var("e1a");
      TermRef Ex1 = V("ex1", funTy(e1c, e1a));
      TermRef Rx = V("rx", funTy(c, a));
      TermRef Mp = V("M'", monadTy(st, a, e1a));
      TermRef Mc = V("M", monadTy(st, c, e1c));
      TermRef Hp = V("H'", funTy(e1a, monadTy(st, a, ea)));
      TermRef Hc = V("H", funTy(e1c, monadTy(st, c, ec)));
      TermRef Prem1 = mkAbsWStmt(TP, Rx, Ex1, Mp, Mc, st, funTy(c, a),
                                 funTy(e1c, e1a));
      TermRef Prem2 = allLoose(
          "e", e1c,
          mkAbsWStmt(
              TP, liftLoose(Rx, 1), liftLoose(Ex, 1),
              Term::mkApp(liftLoose(Hp, 1),
                          Term::mkApp(liftLoose(Ex1, 1),
                                      Term::mkBound(0))),
              Term::mkApp(liftLoose(Hc, 1), Term::mkBound(0)), st,
              funTy(c, a), funTy(ec, ea)));
      TermRef Concl =
          Stmt(Rx, mkApps(catchC(st, a, e1a, ea), {Mp, Hp}),
               mkApps(catchC(st, c, e1c, ec), {Mc, Hc}), funTy(c, a));
      Catch = ax(Count, "catch", mkImp(Prem1, mkImp(Prem2, Concl)));
    }
    {
      TermRef Rx = V("rx", funTy(c, a));
      TermRef P = V("P", funTy(st, boolTy()));
      TermRef Cp = V("c'", funTy(st, boolTy()));
      TermRef Cc = V("cnd", funTy(st, boolTy()));
      TermRef Ap = V("A'", monadTy(st, a, ea));
      TermRef Ac = V("A", monadTy(st, c, ec));
      TermRef Bp = V("B'", monadTy(st, a, ea));
      TermRef Bc = V("B", monadTy(st, c, ec));
      TermRef PremV = allLoose(
          "s", st,
          mkAbsWVal(Term::mkApp(liftLoose(P, 1), Term::mkBound(0)),
                    idAbsC(boolTy()),
                    Term::mkApp(liftLoose(Cp, 1), Term::mkBound(0)),
                    Term::mkApp(liftLoose(Cc, 1), Term::mkBound(0)),
                    funTy(boolTy(), boolTy())));
      TermRef PremA = Stmt(Rx, Ap, Ac, funTy(c, a));
      TermRef PremB = Stmt(Rx, Bp, Bc, funTy(c, a));
      TermRef AbsCond = mkApps(condC(st, a, ea), {Cp, Ap, Bp});
      Cond = ax(
          Count, "cond",
          mkImp(PremV,
                mkImp(PremA,
                      mkImp(PremB,
                            Stmt(Rx,
                                 guardPred(st, a, ea, P, AbsCond),
                                 mkApps(condC(st, c, ec), {Cc, Ac, Bc}),
                                 funTy(c, a))))));
    }
    {
      // whileLoop: iterator abstracted through ?rxi; condition guards
      // appear before the loop (at the abstract initial value) and after
      // every iteration.
      TypeRef ci = Type::var("ci"), ai = Type::var("ai");
      TermRef RxI = V("rxi", funTy(ci, ai));
      TermRef Pc = V("Pc", funTys({ai, st}, boolTy()));
      TermRef Cp = V("c'", funTys({ai, st}, boolTy()));
      TermRef Cc = V("cnd", funTys({ci, st}, boolTy()));
      TermRef Bp = V("B'", funTy(ai, monadTy(st, ai, ea)));
      TermRef Bc = V("B", funTy(ci, monadTy(st, ci, ec)));
      TermRef Pi = V("Pi", boolTy());
      TermRef Ip = V("i'", ai);
      TermRef Ic = V("i", ci);
      TermRef PremV = allLoose(
          "r", ci,
          allLoose(
              "s", st,
              mkAbsWVal(
                  mkApps(liftLoose(Pc, 2),
                         {Term::mkApp(liftLoose(RxI, 2),
                                      Term::mkBound(1)),
                          Term::mkBound(0)}),
                  idAbsC(boolTy()),
                  mkApps(liftLoose(Cp, 2),
                         {Term::mkApp(liftLoose(RxI, 2),
                                      Term::mkBound(1)),
                          Term::mkBound(0)}),
                  mkApps(liftLoose(Cc, 2),
                         {Term::mkBound(1), Term::mkBound(0)}),
                  funTy(boolTy(), boolTy()))));
      TermRef PremB = allLoose(
          "r", ci,
          mkAbsWStmt(
              TP, liftLoose(RxI, 1), liftLoose(Ex, 1),
              Term::mkApp(liftLoose(Bp, 1),
                          Term::mkApp(liftLoose(RxI, 1),
                                      Term::mkBound(0))),
              Term::mkApp(liftLoose(Bc, 1), Term::mkBound(0)), st,
              funTy(ci, ai), funTy(ec, ea)));
      TermRef PremI = mkAbsWVal(Pi, RxI, Ip, Ic, funTy(ci, ai));
      // Abstract: do guard (%_. Pi); guard (Pc i');
      //              whileLoop c' (%r. do x <- B' r; guard (Pc x);
      //                                  return x od) i' od.
      TermRef BodyAbs = Term::mkLam(
          "r", ai,
          mkApps(
              bindC(st, ai, ai, ea),
              {Term::mkApp(liftLoose(Bp, 1), Term::mkBound(0)),
               Term::mkLam(
                   "x", ai,
                   mkApps(
                       bindC(st, unitTy(), ai, ea),
                       {Term::mkApp(guardC(st, ea),
                                    Term::mkApp(liftLoose(Pc, 2),
                                                Term::mkBound(0))),
                        Term::mkLam("_", unitTy(),
                                    Term::mkApp(returnC(st, ai, ea),
                                                Term::mkBound(1)))}))}));
      TermRef Loop = mkApps(whileC(st, ai, ea), {Cp, BodyAbs, Ip});
      TermRef Guarded = guardPred(st, ai, ea, Term::mkApp(Pc, Ip), Loop);
      TermRef Whole = guardPure(st, ai, ea, Pi, Guarded);
      While = ax(Count, "while",
                 mkImp(PremV,
                       mkImp(PremB,
                             mkImp(PremI,
                                   Stmt(RxI, Whole,
                                        mkApps(whileC(st, ci, ec),
                                               {Cc, Bc, Ic}),
                                        funTy(ci, ai))))));
    }
  }
};

WARules &rules() {
  static WARules *R = new WARules();
  return *R;
}

std::atomic<unsigned> GlobalPerWidthCount{0};

/// Mint-once cache for the per-width rules below (see RuleCache.h). The
/// abstraction engine requests a rule per *use* of an operator; only the
/// first request per axiom name builds the proposition. With the cache,
/// GlobalPerWidthCount counts distinct per-width rules.
RuleCache &mintCache() {
  static auto *C = new RuleCache();
  return *C;
}

Thm inst(const Thm &Ax,
         std::vector<std::pair<const char *, TermRef>> Tms,
         std::vector<std::pair<const char *, TypeRef>> Tys = {}) {
  // Committing to a rule: the profile counts this as a fire of the
  // rule's axiom name and attributes the instantiation time to it.
  support::RuleTimer RT([&Ax] { return Ax.deriv()->name(); });
  RT.hit();
  Subst S;
  for (auto &[N, T] : Tys)
    S.bindTy(N, T);
  for (auto &[N, T] : Tms)
    S.bind(N, 0, T);
  return Kernel::instantiate(Ax, S);
}

/// Profile bookkeeping for a rule candidate that matched the shape of
/// the input but whose sub-derivation failed: a failed match of the
/// named rule. Returns nullopt so failure paths read
/// `return ruleMiss(R.Bind);`.
std::nullopt_t ruleMiss(const Thm &Rule) {
  if (support::RuleProfile::enabled())
    support::RuleProfile::record(Rule.deriv()->name(), false, 0);
  return std::nullopt;
}

/// Same, for per-width rules whose Thm was never built — the name is
/// assembled only when profiling is armed.
template <typename NameFn> std::nullopt_t ruleMissN(NameFn &&F) {
  if (support::RuleProfile::enabled())
    support::RuleProfile::record(F(), false, 0);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Per-width rules (registered on first use)
//===----------------------------------------------------------------------===//

/// Binary nat-arithmetic rule at width W: Op with side condition Side
/// (may be null) and abstract result AbsOp(a', b').
Thm natBinRule(const std::string &Name, unsigned W, const char *Op,
               const std::function<TermRef(TermRef, TermRef)> &AbsOp,
               const std::function<TermRef(TermRef, TermRef)> &Side,
               bool PurePQ = false) {
  std::string AxName =
      "WA." + Name + (PurePQ ? "_pp." : ".") + std::to_string(W);
  return mintCache().get(AxName, [&] {
    TypeRef WT = wordTy(W);
    TermRef P = PurePQ ? mkTrue() : V("P", boolTy());
    TermRef Q = PurePQ ? mkTrue() : V("Q", boolTy());
    TermRef Ap = V("a'", natTy()), Ac = V("aa", WT);
    TermRef Bp = V("b'", natTy()), Bc = V("bb", WT);
    TermRef Prem1 = mkAbsWVal(P, unatC(W), Ap, Ac, funTy(WT, natTy()));
    TermRef Prem2 = mkAbsWVal(Q, unatC(W), Bp, Bc, funTy(WT, natTy()));
    TermRef Pre = PurePQ ? (Side ? Side(Ap, Bp) : mkTrue())
                         : (Side ? mkConj(mkConj(P, Q), Side(Ap, Bp))
                                 : mkConj(P, Q));
    TermRef ConOp = mkBinop(Op, WT, Ac, Bc);
    Thm T = Kernel::axiom(
        AxName,
        mkImp(Prem1, mkImp(Prem2, mkAbsWVal(Pre, unatC(W), AbsOp(Ap, Bp),
                                            ConOp, funTy(WT, natTy())))));
    ++GlobalPerWidthCount;
    return T;
  });
}

/// Comparison rule (result bool via id).
Thm cmpRule(const std::string &Name, const TypeRef &WT, const TermRef &RxC,
            const TypeRef &ITy, const char *Op, bool PurePQ = false) {
  return mintCache().get("WA." + Name, [&] {
    TermRef P = PurePQ ? mkTrue() : V("P", boolTy());
    TermRef Q = PurePQ ? mkTrue() : V("Q", boolTy());
    TermRef Ap = V("a'", ITy), Ac = V("aa", WT);
    TermRef Bp = V("b'", ITy), Bc = V("bb", WT);
    TermRef Prem1 = mkAbsWVal(P, RxC, Ap, Ac, funTy(WT, ITy));
    TermRef Prem2 = mkAbsWVal(Q, RxC, Bp, Bc, funTy(WT, ITy));
    TermRef AbsCmp = std::string(Op) == nm::Eq
                         ? mkEq(Ap, Bp)
                         : mkBinop(Op, boolTy(), Ap, Bp);
    TermRef ConCmp = std::string(Op) == nm::Eq
                         ? mkEq(Ac, Bc)
                         : mkBinop(Op, boolTy(), Ac, Bc);
    TermRef Pre = PurePQ ? mkTrue() : mkConj(P, Q);
    Thm T = Kernel::axiom(
        "WA." + Name,
        mkImp(Prem1,
              mkImp(Prem2, mkAbsWVal(Pre, idAbsC(boolTy()),
                                     AbsCmp, ConCmp,
                                     funTy(boolTy(), boolTy())))));
    ++GlobalPerWidthCount;
    return T;
  });
}

/// Signed binary arithmetic at width W.
Thm intBinRule(const std::string &Name, unsigned W, const char *Op,
               const std::function<TermRef(TermRef, TermRef)> &AbsOp,
               const std::function<TermRef(TermRef, TermRef)> &Side,
               bool PurePQ = false) {
  std::string AxName =
      "WA." + Name + (PurePQ ? "_pp." : ".") + std::to_string(W);
  return mintCache().get(AxName, [&] {
    TypeRef WT = swordTy(W);
    TermRef P = PurePQ ? mkTrue() : V("P", boolTy());
    TermRef Q = PurePQ ? mkTrue() : V("Q", boolTy());
    TermRef Ap = V("a'", intTy()), Ac = V("aa", WT);
    TermRef Bp = V("b'", intTy()), Bc = V("bb", WT);
    TermRef Prem1 = mkAbsWVal(P, sintC(W), Ap, Ac, funTy(WT, intTy()));
    TermRef Prem2 = mkAbsWVal(Q, sintC(W), Bp, Bc, funTy(WT, intTy()));
    TermRef Pre = PurePQ ? (Side ? Side(Ap, Bp) : mkTrue())
                         : (Side ? mkConj(mkConj(P, Q), Side(Ap, Bp))
                                 : mkConj(P, Q));
    Thm T = Kernel::axiom(
        AxName,
        mkImp(Prem1,
              mkImp(Prem2, mkAbsWVal(Pre, sintC(W), AbsOp(Ap, Bp),
                                     mkBinop(Op, WT, Ac, Bc),
                                     funTy(WT, intTy())))));
    ++GlobalPerWidthCount;
    return T;
  });
}

/// Unary wrap/leaf/elim rules.
Thm wrapRule(const std::string &Name, const TypeRef &WT, const TermRef &Rx,
             const TypeRef &ITy, const TermRef &OfC) {
  return mintCache().get("WA." + Name, [&] {
    // abs_w_val P rx a' c ==> abs_w_val P id_abs (of a') c.
    TermRef P = V("P", boolTy());
    TermRef Ap = V("a'", ITy), Ac = V("cc", WT);
    Thm T = Kernel::axiom(
        "WA." + Name,
        mkImp(mkAbsWVal(P, Rx, Ap, Ac, funTy(WT, ITy)),
              mkAbsWVal(P, idAbsC(WT), Term::mkApp(OfC, Ap), Ac,
                        funTy(WT, WT))));
    ++GlobalPerWidthCount;
    return T;
  });
}

Thm leafRule(const std::string &Name, const TypeRef &WT, const TermRef &Rx,
             const TypeRef &ITy) {
  return mintCache().get("WA." + Name, [&] {
    // abs_w_val P id_abs t' t ==> abs_w_val P rx (rx t') t.
    TermRef P = V("P", boolTy());
    TermRef Tp = V("t'", WT), Tc = V("tt", WT);
    Thm T = Kernel::axiom(
        "WA." + Name,
        mkImp(mkAbsWVal(P, idAbsC(WT), Tp, Tc, funTy(WT, WT)),
              mkAbsWVal(P, Rx, Term::mkApp(Rx, Tp), Tc, funTy(WT, ITy))));
    ++GlobalPerWidthCount;
    return T;
  });
}

Thm elimRule(const std::string &Name, const TypeRef &WT, const TermRef &Rx,
             const TypeRef &ITy) {
  return mintCache().get("WA." + Name, [&] {
    // abs_w_val P rx a' c ==> abs_w_val P id_abs a' (rx c)
    // — eliminates explicit sint/unat coercions in guard expressions.
    TermRef P = V("P", boolTy());
    TermRef Ap = V("a'", ITy), Ac = V("cc", WT);
    Thm T = Kernel::axiom(
        "WA." + Name,
        mkImp(mkAbsWVal(P, Rx, Ap, Ac, funTy(WT, ITy)),
              mkAbsWVal(P, idAbsC(ITy), Ap, Term::mkApp(Rx, Ac),
                        funTy(ITy, ITy))));
    ++GlobalPerWidthCount;
    return T;
  });
}

/// If-then-else at an abstracted type.
Thm iteRule(const std::string &Name, const TypeRef &WT, const TermRef &Rx,
            const TypeRef &ITy) {
  return mintCache().get("WA." + Name, [&] {
    TermRef Pc = V("Pc", boolTy()), Pa = V("Pa", boolTy()),
            Pb = V("Pb", boolTy());
    TermRef Cp = V("c'", boolTy()), Cc = V("cnd", boolTy());
    TermRef Ap = V("a'", ITy), Ac = V("aa", WT);
    TermRef Bp = V("b'", ITy), Bc = V("bb", WT);
    TermRef PremC = mkAbsWVal(Pc, idAbsC(boolTy()), Cp, Cc,
                              funTy(boolTy(), boolTy()));
    TermRef PremA = mkAbsWVal(Pa, Rx, Ap, Ac, funTy(WT, ITy));
    TermRef PremB = mkAbsWVal(Pb, Rx, Bp, Bc, funTy(WT, ITy));
    Thm T = Kernel::axiom(
        "WA." + Name,
        mkImp(PremC,
              mkImp(PremA,
                    mkImp(PremB,
                          mkAbsWVal(mkConj(Pc, mkConj(Pa, Pb)), Rx,
                                    mkIte(Cp, Ap, Bp), mkIte(Cc, Ac, Bc),
                                    funTy(WT, ITy))))));
    ++GlobalPerWidthCount;
    return T;
  });
}

/// Base name ("nat_plus" / "int_div" / ...) of the binary arithmetic
/// rule abstracting concrete operator \p Op, or nullptr if \p Op has no
/// arithmetic abstraction rule.
const char *binBaseName(const std::string &Op, bool IsInt) {
  if (Op == nm::Plus)
    return IsInt ? "int_plus" : "nat_plus";
  if (Op == nm::Minus)
    return IsInt ? "int_minus" : "nat_minus";
  if (Op == nm::Times)
    return IsInt ? "int_times" : "nat_times";
  if (Op == nm::Div)
    return IsInt ? "int_div" : "nat_div";
  if (Op == nm::Mod)
    return IsInt ? "int_mod" : "nat_mod";
  return nullptr;
}

/// Builds (registering on first use) the width-\p W binary arithmetic
/// rule for operator \p Op. Shared by the abstraction engine and
/// registerStandardRules: both must mint byte-identical propositions for
/// a given name or Inventory::registerAxiom would reject the collision.
Thm binRuleAt(const std::string &Op, bool IsInt, unsigned W, bool PP) {
  const char *Base = binBaseName(Op, IsInt);
  assert(Base && "operator has no arithmetic abstraction rule");
  Int128 UMax = wordMaxVal(W);
  Int128 SMax = swordMaxVal(W), SMin = swordMinVal(W);
  auto IntRange = [SMin, SMax](TermRef T) {
    return mkConj(mkLessEq(mkNumOf(intTy(), SMin), T),
                  mkLessEq(T, mkNumOf(intTy(), SMax)));
  };
  std::function<TermRef(TermRef, TermRef)> AbsOp, Side;
  if (Op == nm::Plus) {
    AbsOp = [](TermRef A, TermRef B) { return mkPlus(A, B); };
    Side = [IsInt, UMax, IntRange](TermRef A, TermRef B) {
      TermRef Sum = mkPlus(A, B);
      if (!IsInt)
        return mkLessEq(Sum, mkNumOf(natTy(), UMax));
      return IntRange(Sum);
    };
  } else if (Op == nm::Minus) {
    AbsOp = [](TermRef A, TermRef B) { return mkMinus(A, B); };
    Side = [IsInt, IntRange](TermRef A, TermRef B) {
      if (!IsInt)
        return mkLessEq(B, A);
      return IntRange(mkMinus(A, B));
    };
  } else if (Op == nm::Times) {
    AbsOp = [](TermRef A, TermRef B) { return mkTimes(A, B); };
    Side = [IsInt, UMax, IntRange](TermRef A, TermRef B) {
      TermRef Pr = mkTimes(A, B);
      if (!IsInt)
        return mkLessEq(Pr, mkNumOf(natTy(), UMax));
      return IntRange(Pr);
    };
  } else if (Op == nm::Div) {
    AbsOp = [](TermRef A, TermRef B) { return mkDiv(A, B); };
    if (IsInt)
      Side = [SMin](TermRef A, TermRef B) {
        return mkNot(mkConj(mkEq(A, mkNumOf(intTy(), SMin)),
                            mkEq(B, mkNumOf(intTy(), -1))));
      };
  } else { // nm::Mod
    AbsOp = [](TermRef A, TermRef B) { return mkMod(A, B); };
  }
  return IsInt ? intBinRule(Base, W, Op.c_str(), AbsOp, Side, PP)
               : natBinRule(Base, W, Op.c_str(), AbsOp, Side, PP);
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

WordAbstraction::WordAbstraction(monad::InterpCtx &Ctx) : Ctx(Ctx) {
  (void)rules();
}

unsigned WordAbstraction::ruleCount() {
  return rules().Count + GlobalPerWidthCount.load();
}

void WordAbstraction::registerStandardRules() {
  (void)rules(); // the generic Table 3 rules

  // The canonical per-width family at the C `int` width. The engine
  // mints these lazily (and at other widths / in _pp form) as programs
  // demand them; registering the width-32 guarded forms up front gives
  // rule inventories and profiles the full standard rule set even when
  // a corpus happens not to exercise some member.
  static std::once_flag Once;
  std::call_once(Once, [] {
    const unsigned W = 32;
    for (const char *Op : {nm::Plus, nm::Minus, nm::Times, nm::Div,
                           nm::Mod}) {
      (void)binRuleAt(Op, /*IsInt=*/false, W, /*PP=*/false);
      (void)binRuleAt(Op, /*IsInt=*/true, W, /*PP=*/false);
    }
    std::string WS = std::to_string(W);
    for (const char *Op : {nm::Less, nm::LessEq, nm::Eq}) {
      (void)cmpRule("nat_cmp_" + std::string(Op) + "." + WS, wordTy(W),
                    unatC(W), natTy(), Op);
      (void)cmpRule("int_cmp_" + std::string(Op) + "." + WS, swordTy(W),
                    sintC(W), intTy(), Op);
    }
    (void)iteRule("nat_ite." + WS, wordTy(W), unatC(W), natTy());
    (void)iteRule("int_ite." + WS, swordTy(W), sintC(W), intTy());
    (void)leafRule("nat_leaf." + WS, wordTy(W), unatC(W), natTy());
    (void)leafRule("int_leaf." + WS, swordTy(W), sintC(W), intTy());
    (void)wrapRule("nat_wrap." + WS, wordTy(W), unatC(W), natTy(),
                   ofNatC(W));
    (void)wrapRule("int_wrap." + WS, swordTy(W), sintC(W), intTy(),
                   ofIntC(W));
    (void)elimRule("unat_elim." + WS, wordTy(W), unatC(W), natTy());
    (void)elimRule("sint_elim." + WS, swordTy(W), sintC(W), intTy());
  });
}

void WordAbstraction::addValRule(const Thm &Rule) {
  // Index the conclusion's concrete side (abs_w_val ?P ?f ?a ?c — the
  // pattern matched against goal subterms is ?c). Ids follow the rule's
  // position so an index-driven scan fires the same rule first.
  std::vector<TermRef> Prems;
  TermRef Concl;
  stripImps(Rule.prop(), Prems, Concl);
  std::vector<TermRef> CArgs;
  stripApp(Concl, CArgs);
  if (CArgs.size() == 4)
    UserValIndex.add(CArgs[3], static_cast<unsigned>(UserValRules.size()));
  UserValRules.push_back(Rule);
  clearFnMemos(); // cached valId results predate the new rule
}

bool WordAbstraction::containsTracked(const TermRef &T) const {
  switch (T->kind()) {
  case Term::Kind::Free:
    return Tracked.count(T->name()) != 0;
  case Term::Kind::Lam:
  case Term::Kind::App: {
    // valId consults this at every node it visits, so an unmemoised walk
    // is quadratic in expression size. Hash-consing makes the node id a
    // stable key; the table is cleared whenever Tracked changes.
    auto It = TrackedMemo.find(T->id());
    if (It != TrackedMemo.end())
      return It->second;
    bool R = T->isLam() ? containsTracked(T->body())
                        : containsTracked(T->fun()) ||
                              containsTracked(T->argTerm());
    TrackedMemo.emplace(T->id(), R);
    return R;
  }
  default:
    return false;
  }
}

bool WordAbstraction::isTrackedLeaf(const TermRef &T) const {
  if (T->isFree())
    return Tracked.count(T->name()) != 0;
  // Projection chain over a tracked tuple variable.
  if (T->isApp() && T->fun()->isConst() &&
      (T->fun()->name() == nm::Fst || T->fun()->name() == nm::Snd))
    return isTrackedLeaf(T->argTerm());
  return false;
}

namespace {

/// Strips `True &` / `& True` from the precondition of an abs_w_val thm.
Thm normalizeValPre(Thm Th) {
  WARules &R = rules();
  for (unsigned Iter = 0; Iter != 16; ++Iter) {
    std::vector<TermRef> Args;
    stripApp(Th.prop(), Args);
    if (Args.size() != 4)
      return Th;
    TermRef PL, PR;
    if (!destConj(Args[0], PL, PR))
      return Th;
    bool LT = PL->isConst(nm::True), RT = PR->isConst(nm::True);
    if (!LT && !RT)
      return Th;
    TermRef Q = LT ? PR : PL;
    TypeRef CTy = typeOf(Args[3]);
    TypeRef ATy = typeOf(Args[2]);
    Thm Rule = LT ? R.WeakenL : R.WeakenR;
    Thm Inst = inst(Rule,
                    {{"Q", Q}, {"f", Args[1]}, {"a", Args[2]},
                     {"cc", Args[3]}},
                    {{"c", CTy}, {"a", ATy}});
    Th = Kernel::mp(Inst, Th);
  }
  return Th;
}

void destValThm(const Thm &T, TermRef &P, TermRef &F, TermRef &A,
                TermRef &C) {
  std::vector<TermRef> Args;
  stripApp(T.prop(), Args);
  assert(Args.size() == 4 && "malformed abs_w_val theorem");
  P = Args[0];
  F = Args[1];
  A = Args[2];
  C = Args[3];
}

TermRef absOfStmt(const Thm &T) {
  std::vector<TermRef> Args;
  stripApp(T.prop(), Args);
  assert(Args.size() == 5 && "malformed abs_w_stmt theorem");
  return Args[3];
}

} // namespace

std::optional<WordAbstraction::ValOut>
WordAbstraction::valNatInt(const TermRef &C, bool IsInt) {
  auto &M = ValNatIntMemo[IsInt ? 1 : 0];
  auto It = M.find(C->id());
  if (It != M.end())
    return It->second;
  unsigned FreshBefore = FreshCtr;
  std::optional<ValOut> R = valNatIntUncached(C, IsInt);
  // Fresh-free results only, as in valId: hits replay recomputation
  // exactly and leave the fresh-name sequence untouched.
  if (R && FreshCtr == FreshBefore)
    M.emplace(C->id(), *R);
  return R;
}

std::optional<WordAbstraction::ValOut>
WordAbstraction::valNatIntUncached(const TermRef &C, bool IsInt) {
  TypeRef WT = typeOf(C);
  unsigned W = wordBits(WT);
  TypeRef ITy = IsInt ? intTy() : natTy();
  TermRef Rx = IsInt ? sintC(W) : unatC(W);

  auto Close = [&](const Thm &Th0) {
    Thm Th = normalizeValPre(Th0);
    ValOut Out;
    Out.Th = Th;
    TermRef F, CC;
    destValThm(Th, Out.P, F, Out.A, CC);
    return Out;
  };

  // Numerals and tracked leaves go through WTRIV: a := rx c.
  if (C->isNum() || isTrackedLeaf(C)) {
    Thm Th = inst(rules().Triv, {{"f", Rx}, {"b", C}},
                  {{"c", WT}, {"a", ITy}});
    return Close(Th);
  }

  std::vector<TermRef> Args;
  TermRef Head = stripApp(C, Args);

  if (Head->isConst() && Args.size() == 2) {
    const std::string &N = Head->name();
    if (const char *Base = binBaseName(N, IsInt)) {
      auto Miss = [&] {
        return ruleMissN([&] {
          return "WA." + std::string(Base) + "." + std::to_string(W);
        });
      };
      std::optional<ValOut> AV = valNatInt(Args[0], IsInt);
      if (!AV)
        return Miss();
      std::optional<ValOut> BV = valNatInt(Args[1], IsInt);
      if (!BV)
        return Miss();
      bool PP = AV->P->isConst(nm::True) && BV->P->isConst(nm::True);
      Thm Rule = binRuleAt(N, IsInt, W, PP);
      std::vector<std::pair<const char *, TermRef>> Tms = {
          {"a'", AV->A}, {"aa", Args[0]}, {"b'", BV->A},
          {"bb", Args[1]}};
      if (!PP) {
        Tms.push_back({"P", AV->P});
        Tms.push_back({"Q", BV->P});
      }
      Thm Inst = inst(Rule, Tms);
      return Close(Kernel::mp(Kernel::mp(Inst, AV->Th), BV->Th));
    }
  }

  // If-then-else at word type.
  if (Head->isConst(nm::Ite) && Args.size() == 3) {
    std::optional<ValOut> CV = valId(Args[0]);
    std::optional<ValOut> AV = CV ? valNatInt(Args[1], IsInt)
                                  : std::nullopt;
    std::optional<ValOut> BV = AV ? valNatInt(Args[2], IsInt)
                                  : std::nullopt;
    if (!BV)
      return ruleMissN([&] {
        return std::string(IsInt ? "WA.int_ite." : "WA.nat_ite.") +
               std::to_string(W);
      });
    Thm Rule =
        iteRule((IsInt ? std::string("int_ite.") : std::string("nat_ite.")) +
                    std::to_string(W),
                WT, Rx, ITy);
    Thm Inst = inst(Rule, {{"Pc", CV->P}, {"Pa", AV->P}, {"Pb", BV->P},
                           {"c'", CV->A}, {"cnd", Args[0]},
                           {"a'", AV->A}, {"aa", Args[1]},
                           {"b'", BV->A}, {"bb", Args[2]}});
    return Close(Kernel::mp(
        Kernel::mp(Kernel::mp(Inst, CV->Th), AV->Th), BV->Th));
  }

  // Fallback: id-abstract the whole expression, then re-enter the ideal
  // domain (wordN-opaque operations such as bit twiddling, casts, heap
  // reads stay at the word level inside).
  std::optional<ValOut> IdV = valId(C, /*SkipWrap=*/true);
  if (!IdV)
    return ruleMissN([&] {
      return std::string(IsInt ? "WA.int_leaf." : "WA.nat_leaf.") +
             std::to_string(W);
    });
  Thm Rule = leafRule((IsInt ? std::string("int_leaf.")
                             : std::string("nat_leaf.")) +
                          std::to_string(W),
                      WT, Rx, ITy);
  Thm Inst = inst(Rule, {{"P", IdV->P}, {"t'", IdV->A}, {"tt", C}});
  return Close(Kernel::mp(Inst, IdV->Th));
}

std::optional<WordAbstraction::ValOut>
WordAbstraction::valId(const TermRef &C, bool SkipWrap) {
  auto &M = ValIdMemo[SkipWrap ? 1 : 0];
  auto It = M.find(C->id());
  if (It != M.end())
    return It->second;
  unsigned FreshBefore = FreshCtr;
  std::optional<ValOut> R = valIdUncached(C, SkipWrap);
  // Only fresh-free computations are cached: a hit then returns exactly
  // what recomputation would have, and the global fresh-name sequence is
  // untouched, so the abstraction output is bit-identical with or
  // without the memo.
  if (R && FreshCtr == FreshBefore)
    M.emplace(C->id(), *R);
  return R;
}

std::optional<WordAbstraction::ValOut>
WordAbstraction::valIdUncached(const TermRef &C, bool SkipWrap) {
  WARules &R = rules();
  TypeRef Ty = typeOf(C);

  auto Close = [&](const Thm &Th0) {
    Thm Th = normalizeValPre(Th0);
    ValOut Out;
    Out.Th = Th;
    TermRef F, CC;
    destValThm(Th, Out.P, F, Out.A, CC);
    return Out;
  };

  // No tracked variables: the expression is unchanged.
  if (!containsTracked(C))
    return Close(inst(R.ReflId, {{"k", C}}, {{"c", Ty}}));

  // User idiom rules (e.g. the unsigned-overflow test of Sec 3.3).
  // Match the conclusion's concrete side, then solve the premises by
  // recursive abstraction, unifying the remaining schematics (the
  // abstract values and preconditions) with what the engine derived.
  // The index prunes rules whose pattern head cannot match C; candidates
  // come back ascending, so the first match is the scan's first match.
  std::vector<unsigned> URCands;
  UserValIndex.lookup(C, URCands);
  for (unsigned URId : URCands) {
    const Thm &UR = UserValRules[URId];
    std::vector<TermRef> Prems;
    TermRef Concl;
    stripImps(UR.prop(), Prems, Concl);
    std::vector<TermRef> CArgs;
    stripApp(Concl, CArgs);
    if (CArgs.size() != 4)
      continue;
    std::optional<Subst> M = matchTerm(CArgs[3], C);
    if (!M)
      continue;
    Subst S = *M;
    bool Ok = true;
    std::vector<Thm> SubThms;
    for (const TermRef &Prem : Prems) {
      TermRef PInst = S.apply(Prem);
      std::vector<TermRef> PArgs;
      TermRef PHead = stripApp(PInst, PArgs);
      if (!PHead->isConst(nm::AbsWVal) || PArgs.size() != 4 ||
          PArgs[3]->hasSchematic()) {
        Ok = false;
        break;
      }
      std::optional<ValOut> Sub = val(PArgs[3]);
      if (!Sub || !unifyTerms(PInst, Sub->Th.prop(), S)) {
        Ok = false;
        break;
      }
      SubThms.push_back(Sub->Th);
    }
    if (!Ok) {
      (void)ruleMiss(UR);
      continue;
    }
    Thm Cur = [&] {
      support::RuleTimer RT([&] { return UR.deriv()->name(); });
      RT.hit();
      return Kernel::instantiate(UR, S);
    }();
    for (const Thm &Sub : SubThms)
      Cur = Kernel::mp(Cur, Sub);
    return Close(Cur);
  }

  std::vector<TermRef> Args;
  TermRef Head = stripApp(C, Args);

  // Word comparisons move to ideal arithmetic.
  if (Head->isConst() && Args.size() == 2) {
    const std::string &N = Head->name();
    TypeRef OpTy = typeOf(Args[0]);
    if ((N == nm::Less || N == nm::LessEq || N == nm::Eq) &&
        (isWordTy(OpTy) || isSwordTy(OpTy))) {
      bool IsInt = isSwordTy(OpTy);
      unsigned W = wordBits(OpTy);
      std::optional<ValOut> AV = valNatInt(Args[0], IsInt);
      std::optional<ValOut> BV = AV ? valNatInt(Args[1], IsInt)
                                    : std::nullopt;
      if (!BV)
        return ruleMissN([&] {
          return (IsInt ? std::string("WA.int_cmp_")
                        : std::string("WA.nat_cmp_")) +
                 N + "." + std::to_string(W);
        });
      bool PP = AV->P->isConst(nm::True) && BV->P->isConst(nm::True);
      std::string RName = (IsInt ? std::string("int_cmp_")
                                 : std::string("nat_cmp_")) +
                          N + (PP ? "_pp." : ".") + std::to_string(W);
      Thm Rule = cmpRule(RName, OpTy,
                         IsInt ? sintC(W) : unatC(W),
                         IsInt ? intTy() : natTy(), N.c_str(), PP);
      std::vector<std::pair<const char *, TermRef>> Tms = {
          {"a'", AV->A}, {"aa", Args[0]}, {"b'", BV->A},
          {"bb", Args[1]}};
      if (!PP) {
        Tms.push_back({"P", AV->P});
        Tms.push_back({"Q", BV->P});
      }
      Thm Inst = inst(Rule, Tms);
      return Close(Kernel::mp(Kernel::mp(Inst, AV->Th), BV->Th));
    }
    // Explicit coercions in guard expressions: sint/unat.
  }
  if (Head->isConst() && Args.size() == 1) {
    const std::string &N = Head->name();
    TypeRef ArgTy = typeOf(Args[0]);
    if (N == nm::Unat && isWordTy(ArgTy)) {
      unsigned W = wordBits(ArgTy);
      std::optional<ValOut> AV = valNatInt(Args[0], /*IsInt=*/false);
      if (!AV)
        return ruleMissN(
            [&] { return "WA.unat_elim." + std::to_string(W); });
      Thm Rule = elimRule("unat_elim." + std::to_string(W), ArgTy,
                          unatC(W), natTy());
      Thm Inst = inst(Rule, {{"P", AV->P}, {"a'", AV->A},
                             {"cc", Args[0]}});
      return Close(Kernel::mp(Inst, AV->Th));
    }
    if (N == nm::Sint && isSwordTy(ArgTy)) {
      unsigned W = wordBits(ArgTy);
      std::optional<ValOut> AV = valNatInt(Args[0], /*IsInt=*/true);
      if (!AV)
        return ruleMissN(
            [&] { return "WA.sint_elim." + std::to_string(W); });
      Thm Rule = elimRule("sint_elim." + std::to_string(W), ArgTy,
                          sintC(W), intTy());
      Thm Inst = inst(Rule, {{"P", AV->P}, {"a'", AV->A},
                             {"cc", Args[0]}});
      return Close(Kernel::mp(Inst, AV->Th));
    }
  }

  // Word-typed subexpressions: go ideal and wrap back (unless we were
  // called as the ideal mode's own fallback).
  if (!SkipWrap && (isWordTy(Ty) || isSwordTy(Ty))) {
    bool IsInt = isSwordTy(Ty);
    unsigned W = wordBits(Ty);
    std::optional<ValOut> NV = valNatInt(C, IsInt);
    if (!NV)
      return ruleMissN([&] {
        return std::string(IsInt ? "WA.int_wrap." : "WA.nat_wrap.") +
               std::to_string(W);
      });
    Thm Rule = IsInt ? wrapRule("int_wrap." + std::to_string(W), Ty,
                                sintC(W), intTy(), ofIntC(W))
                     : wrapRule("nat_wrap." + std::to_string(W), Ty,
                                unatC(W), natTy(), ofNatC(W));
    Thm Inst = inst(Rule, {{"P", NV->P}, {"a'", NV->A}, {"cc", C}});
    return Close(Kernel::mp(Inst, NV->Th));
  }

  // Tracked leaves of other types: WTRIV with id (erased on output).
  if (isTrackedLeaf(C)) {
    Thm Th = inst(R.Triv, {{"f", idAbsC(Ty)}, {"b", C}},
                  {{"c", Ty}, {"a", Ty}});
    return Close(Th);
  }

  // Generic application.
  if (C->isApp()) {
    std::optional<ValOut> FV = valId(C->fun());
    std::optional<ValOut> XV = FV ? valId(C->argTerm()) : std::nullopt;
    if (!XV)
      return ruleMiss(R.IdApp);
    TypeRef XTy = typeOf(C->argTerm());
    Thm Inst = inst(R.IdApp,
                    {{"P", FV->P}, {"Q", XV->P}, {"f'", FV->A},
                     {"f", C->fun()}, {"x'", XV->A},
                     {"xx", C->argTerm()}},
                    {{"x", XTy}, {"y", Ty}});
    return Close(Kernel::mp(Kernel::mp(Inst, FV->Th), XV->Th));
  }

  // Lambda: extensionality with a fresh (untracked) binder.
  if (C->isLam()) {
    std::string VN = fresh("v");
    TermRef VFree = Term::mkFree(VN, C->type());
    TermRef Body = betaNorm(Term::mkApp(C, VFree));
    std::optional<ValOut> BV = valId(Body);
    if (!BV)
      return ruleMiss(R.IdExt);
    if (occursFree(BV->P, VN))
      return ruleMiss(R.IdExt); // precondition must not capture the binder
    TermRef GAbs = Term::mkLam(
        C->name(), C->type(), lambdaFree(VN, C->type(), BV->A)->body());
    Thm BAll = Kernel::generalize(VN, C->type(), BV->Th);
    TypeRef BTy = typeOf(Body);
    Thm Inst = inst(R.IdExt,
                    {{"P", BV->P}, {"g'", GAbs}, {"g", C}},
                    {{"x", C->type()}, {"y", BTy}});
    return Close(Kernel::mp(Inst, BAll));
  }

  return std::nullopt;
}

std::optional<WordAbstraction::ValOut>
WordAbstraction::val(const TermRef &C) {
  TypeRef Ty = typeOf(C);
  switch (kindOf(Ty)) {
  case AbsKind::Nat:
    return valNatInt(C, /*IsInt=*/false);
  case AbsKind::Int:
    return valNatInt(C, /*IsInt=*/true);
  case AbsKind::Pair: {
    std::vector<TermRef> Args;
    TermRef Head = stripApp(C, Args);
    if (Head->isConst(nm::PairC) && Args.size() == 2) {
      std::optional<ValOut> XV = val(Args[0]);
      std::optional<ValOut> YV = XV ? val(Args[1]) : std::nullopt;
      if (!YV)
        return ruleMiss(rules().PairR);
      TypeRef TC = typeOf(Args[0]), TD = typeOf(Args[1]);
      Thm Inst = inst(rules().PairR,
                      {{"P", XV->P}, {"Q", YV->P},
                       {"f", rxTerm(TC)}, {"g", rxTerm(TD)},
                       {"x'", XV->A}, {"xx", Args[0]},
                       {"y'", YV->A}, {"yy", Args[1]}},
                      {{"c", TC}, {"a", absTy(TC)}, {"d", TD},
                       {"b", absTy(TD)}});
      Thm Th = Kernel::mp(Kernel::mp(Inst, XV->Th), YV->Th);
      Th = normalizeValPre(Th);
      ValOut Out;
      Out.Th = Th;
      TermRef F, CC;
      destValThm(Th, Out.P, F, Out.A, CC);
      return Out;
    }
    // Opaque pair (a tracked tuple variable): WTRIV with the pair rx.
    if (isTrackedLeaf(C)) {
      Thm Th = inst(rules().Triv, {{"f", rxTerm(Ty)}, {"b", C}},
                    {{"c", Ty}, {"a", absTy(Ty)}});
      ValOut Out;
      Out.Th = Th;
      TermRef F, CC;
      destValThm(Th, Out.P, F, Out.A, CC);
      return Out;
    }
    return std::nullopt;
  }
  case AbsKind::Id:
    return valId(C);
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

namespace {

/// Builds %_:S. True.
TermRef truePred(const TypeRef &S) {
  return Term::mkLam("_", S, mkTrue());
}

/// Keeps a composite display name on an abstracted binder.
TermRef lamDisp(const std::string &FreeName, const std::string &Display,
                const TypeRef &Ty, const TermRef &Body) {
  TermRef L = lambdaFree(FreeName, Ty, Body);
  return Term::mkLam(Display.empty() ? FreeName : Display, Ty, L->body());
}

} // namespace

std::optional<Thm> WordAbstraction::stmt(const TermRef &C) {
  WARules &R = rules();
  std::vector<TermRef> Args;
  TermRef Head = stripApp(C, Args);
  TypeRef S, A, E;
  bool IsMonad = destMonadTy(typeOf(C), S, A, E);
  assert(IsMonad && "abs_w_stmt input must be monadic");
  (void)IsMonad;
  TypeRef AAbs = absTy(A), EAbs = absTy(E);
  TermRef RxA = rxTerm(A), ExE = rxTerm(E);
  auto TyArgs = [&](std::vector<std::pair<const char *, TypeRef>> Extra =
                        {}) {
    std::vector<std::pair<const char *, TypeRef>> Out = {
        {"st", S}, {"ec", E}, {"ea", EAbs}, {"c", A}, {"a", AAbs}};
    for (auto &X : Extra)
      Out.push_back(X);
    return Out;
  };

  if (Head->isConst(nm::Return) && Args.size() == 1) {
    std::optional<ValOut> VO = val(Args[0]);
    if (!VO)
      return ruleMiss(R.Return_);
    Thm Inst = inst(R.Return_,
                    {{"P", VO->P}, {"f", RxA}, {"a", VO->A},
                     {"cc", Args[0]}, {"ex", ExE}},
                    TyArgs());
    return Kernel::mp(Inst, VO->Th);
  }
  if (Head->isConst(nm::Throw) && Args.size() == 1) {
    std::optional<ValOut> VO = val(Args[0]);
    if (!VO)
      return ruleMiss(R.Throw_);
    Thm Inst = inst(R.Throw_,
                    {{"P", VO->P}, {"f", RxA}, {"e'", VO->A},
                     {"ee", Args[0]}, {"ex", ExE}},
                    TyArgs());
    return Kernel::mp(Inst, VO->Th);
  }
  if (Head->isConst(nm::Skip))
    return inst(R.Skip_, {{"ex", ExE}},
                {{"st", S}, {"ec", E}, {"ea", EAbs}});
  if (Head->isConst(nm::Fail))
    return inst(R.Fail_, {{"f", RxA}, {"ex", ExE}}, TyArgs());

  if (Head->isConst(nm::Gets) && Args.size() == 1 && Args[0]->isLam()) {
    // Open the state binder and abstract the body.
    std::string SN = fresh("s");
    TermRef SF = Term::mkFree(SN, S);
    TermRef Body = betaNorm(Term::mkApp(Args[0], SF));
    std::optional<ValOut> VO = val(Body);
    if (!VO)
      return ruleMiss(R.Gets);
    TermRef PAbs = lamDisp(SN, "s", S, VO->P);
    TermRef AAbsF = lamDisp(SN, "s", S, VO->A);
    Thm VAll = Kernel::generalize(SN, S, VO->Th);
    Thm Inst = inst(R.Gets,
                    {{"P", PAbs}, {"f", RxA}, {"a", AAbsF},
                     {"cc", Args[0]}, {"ex", ExE}},
                    TyArgs());
    return Kernel::mp(Inst, VAll);
  }

  if (Head->isConst(nm::Modify) && Args.size() == 1 && Args[0]->isLam()) {
    std::string SN = fresh("s");
    TermRef SF = Term::mkFree(SN, S);
    TermRef Body = betaNorm(Term::mkApp(Args[0], SF));
    std::optional<ValOut> VO = valId(Body);
    if (!VO)
      return ruleMiss(R.Modify);
    TermRef PAbs = lamDisp(SN, "s", S, VO->P);
    TermRef MAbs = lamDisp(SN, "s", S, VO->A);
    Thm VAll = Kernel::generalize(SN, S, VO->Th);
    Thm Inst = inst(R.Modify,
                    {{"P", PAbs}, {"m'", MAbs}, {"m", Args[0]},
                     {"ex", ExE}},
                    {{"st", S}, {"ec", E}, {"ea", EAbs}});
    return Kernel::mp(Inst, VAll);
  }

  if (Head->isConst(nm::Guard) && Args.size() == 1 && Args[0]->isLam()) {
    std::string SN = fresh("s");
    TermRef SF = Term::mkFree(SN, S);
    TermRef Body = betaNorm(Term::mkApp(Args[0], SF));
    std::optional<ValOut> VO = valId(Body);
    if (!VO)
      return ruleMiss(R.Guard);
    TermRef PAbs = lamDisp(SN, "s", S, VO->P);
    TermRef GAbs = lamDisp(SN, "s", S, VO->A);
    Thm VAll = Kernel::generalize(SN, S, VO->Th);
    Thm Inst = inst(R.Guard,
                    {{"P", PAbs}, {"g'", GAbs}, {"g", Args[0]},
                     {"ex", ExE}},
                    {{"st", S}, {"ec", E}, {"ea", EAbs}});
    return Kernel::mp(Inst, VAll);
  }

  if (Head->isConst(nm::Bind) && Args.size() == 2 && Args[1]->isLam()) {
    std::optional<Thm> LT = stmt(Args[0]);
    if (!LT)
      return ruleMiss(R.Bind);
    // Left value type and its abstraction.
    TypeRef S1, A1, E1;
    destMonadTy(typeOf(Args[0]), S1, A1, E1);
    TypeRef A1Abs = absTy(A1);
    TermRef Rx1 = rxTerm(A1);
    // Abstract the continuation at a tracked concrete binder.
    std::string RN = fresh("r");
    TermRef RF = Term::mkFree(RN, A1);
    trackAdd(RN);
    TermRef RBody = betaNorm(Term::mkApp(Args[1], RF));
    std::optional<Thm> RT = stmt(RBody);
    trackDrop(RN);
    if (!RT)
      return ruleMiss(R.Bind);
    // R' = %ra. body with the rx-image patterns of r replaced by ra.
    TermRef AbsBody = absOfStmt(*RT);
    TermRef Image = betaNorm(Term::mkApp(Rx1, RF));
    std::string RAN = fresh("ra");
    TermRef RAF = Term::mkFree(RAN, A1Abs);
    TermRef Repl = replaceImages(AbsBody, A1, RF, RAF);
    if (!Repl)
      return ruleMiss(R.Bind); // a bare concrete variable survived
    (void)Image;
    TermRef RAbs = lamDisp(RAN, Args[1]->name(), A1Abs, Repl);
    Thm RAll = Kernel::generalize(RN, A1, *RT);
    Thm Inst = inst(R.Bind,
                    {{"rx1", Rx1}, {"rx2", RxA}, {"ex", ExE},
                     {"L'", absOfStmt(*LT)}, {"L", Args[0]},
                     {"R'", RAbs}, {"R", Args[1]}},
                    {{"st", S}, {"ec", E}, {"ea", EAbs},
                     {"c", A1}, {"a", A1Abs}, {"c2", A}, {"a2", AAbs}});
    return Kernel::mp(Kernel::mp(Inst, *LT), RAll);
  }

  if (Head->isConst(nm::Catch) && Args.size() == 2 && Args[1]->isLam()) {
    std::optional<Thm> MT = stmt(Args[0]);
    if (!MT)
      return ruleMiss(R.Catch);
    TypeRef S1, A1, E1;
    destMonadTy(typeOf(Args[0]), S1, A1, E1);
    TypeRef E1Abs = absTy(E1);
    TermRef Ex1 = rxTerm(E1);
    std::string EN = fresh("e");
    TermRef EF = Term::mkFree(EN, E1);
    trackAdd(EN);
    TermRef HBody = betaNorm(Term::mkApp(Args[1], EF));
    std::optional<Thm> HT = stmt(HBody);
    trackDrop(EN);
    if (!HT)
      return ruleMiss(R.Catch);
    TermRef AbsBody = absOfStmt(*HT);
    std::string EAN = fresh("ea");
    TermRef EAF = Term::mkFree(EAN, E1Abs);
    TermRef Repl = replaceImages(AbsBody, E1, EF, EAF);
    if (!Repl)
      return ruleMiss(R.Catch);
    TermRef HAbs = lamDisp(EAN, Args[1]->name(), E1Abs, Repl);
    Thm HAll = Kernel::generalize(EN, E1, *HT);
    Thm Inst = inst(R.Catch,
                    {{"rx", RxA}, {"ex", ExE}, {"ex1", Ex1},
                     {"M'", absOfStmt(*MT)}, {"M", Args[0]},
                     {"H'", HAbs}, {"H", Args[1]}},
                    {{"st", S}, {"ec", E}, {"ea", EAbs},
                     {"c", A}, {"a", AAbs},
                     {"e1c", E1}, {"e1a", E1Abs}});
    return Kernel::mp(Kernel::mp(Inst, *MT), HAll);
  }

  if (Head->isConst(nm::Condition) && Args.size() == 3 &&
      Args[0]->isLam()) {
    std::string SN = fresh("s");
    TermRef SF = Term::mkFree(SN, S);
    TermRef CBody = betaNorm(Term::mkApp(Args[0], SF));
    std::optional<ValOut> CV = valId(CBody);
    if (!CV)
      return ruleMiss(R.Cond);
    std::optional<Thm> AT = stmt(Args[1]);
    std::optional<Thm> BT = AT ? stmt(Args[2]) : std::nullopt;
    if (!BT)
      return ruleMiss(R.Cond);
    TermRef PAbs = lamDisp(SN, "s", S, CV->P);
    TermRef CAbs = lamDisp(SN, "s", S, CV->A);
    Thm CAll = Kernel::generalize(SN, S, CV->Th);
    Thm Inst = inst(R.Cond,
                    {{"rx", RxA}, {"ex", ExE}, {"P", PAbs},
                     {"c'", CAbs}, {"cnd", Args[0]},
                     {"A'", absOfStmt(*AT)}, {"A", Args[1]},
                     {"B'", absOfStmt(*BT)}, {"B", Args[2]}},
                    TyArgs());
    return Kernel::mp(Kernel::mp(Kernel::mp(Inst, CAll), *AT), *BT);
  }

  if (Head->isConst(nm::WhileLoop) && Args.size() == 3 &&
      Args[0]->isLam() && Args[1]->isLam()) {
    TypeRef ITy = Args[0]->type();
    TypeRef IAbs = absTy(ITy);
    TermRef RxI = rxTerm(ITy);
    // Condition, opened at tracked r and state s.
    std::string RN = fresh("r"), SN = fresh("s");
    TermRef RF = Term::mkFree(RN, ITy);
    TermRef SF = Term::mkFree(SN, S);
    trackAdd(RN);
    TermRef CondBody =
        betaNorm(mkApps(Args[0], {RF, SF}));
    std::optional<ValOut> CV = valId(CondBody);
    trackDrop(RN);
    if (!CV)
      return ruleMiss(R.While);
    std::string RAN = fresh("ra");
    TermRef RAF = Term::mkFree(RAN, IAbs);
    TermRef PIm = replaceImages(CV->P, ITy, RF, RAF);
    TermRef CIm = replaceImages(CV->A, ITy, RF, RAF);
    if (!PIm || !CIm)
      return ruleMiss(R.While);
    TermRef PAbs = lamDisp(RAN, Args[0]->name(), IAbs,
                           lamDisp(SN, "s", S, PIm));
    TermRef CAbs = lamDisp(RAN, Args[0]->name(), IAbs,
                           lamDisp(SN, "s", S, CIm));
    Thm CAll = Kernel::generalize(
        RN, ITy, Kernel::generalize(SN, S, CV->Th));
    // Body at a tracked binder.
    std::string RN2 = fresh("r");
    TermRef RF2 = Term::mkFree(RN2, ITy);
    trackAdd(RN2);
    TermRef BBody = betaNorm(Term::mkApp(Args[1], RF2));
    std::optional<Thm> BT = stmt(BBody);
    trackDrop(RN2);
    if (!BT)
      return ruleMiss(R.While);
    std::string RAN2 = fresh("ra");
    TermRef RAF2 = Term::mkFree(RAN2, IAbs);
    TermRef BIm = replaceImages(absOfStmt(*BT), ITy, RF2, RAF2);
    if (!BIm)
      return ruleMiss(R.While);
    TermRef BAbs = lamDisp(RAN2, Args[1]->name(), IAbs, BIm);
    Thm BAll = Kernel::generalize(RN2, ITy, *BT);
    // Initial value.
    std::optional<ValOut> IV = val(Args[2]);
    if (!IV)
      return ruleMiss(R.While);
    Thm Inst = inst(R.While,
                    {{"rxi", RxI}, {"ex", ExE}, {"Pc", PAbs},
                     {"c'", CAbs}, {"cnd", Args[0]},
                     {"B'", BAbs}, {"B", Args[1]},
                     {"Pi", IV->P}, {"i'", IV->A}, {"i", Args[2]}},
                    {{"st", S}, {"ec", E}, {"ea", EAbs},
                     {"ci", ITy}, {"ai", IAbs}});
    return Kernel::mp(Kernel::mp(Kernel::mp(Inst, CAll), BAll), IV->Th);
  }

  // Calls: wa-callee at abstracted argument values.
  if (Head->isConst() && (Head->name().rfind("hl:", 0) == 0 ||
                          Head->name().rfind("l2:", 0) == 0)) {
    std::string Callee = Head->name().substr(3);
    bool SelfCall = Callee == CurFn;
    bool CalleeAbstracted = SelfCall;
    if (!SelfCall) {
      std::shared_lock<std::shared_mutex> L(ResultsM);
      auto It = Results.find(Callee);
      CalleeAbstracted = It != Results.end() && It->second.Abstracted;
    }
    if (!CalleeAbstracted) {
      // Cross-boundary call (Sec 3.2's per-function selection): the
      // callee stays on machine words, so re-concretize the abstracted
      // argument values, call the concrete function, and abstract its
      // result. Exceptions cannot cross function boundaries after L2
      // (the converter catches all abrupt exits), but the *type* may
      // still be a word type from the return encoding — a vacuous
      // rethrow handler fixes up the exception type in that case.
      std::vector<TermRef> ConcArgs;
      TermRef Pre = mkTrue();
      std::vector<Thm> ArgThms;
      for (const TermRef &Arg : Args) {
        std::optional<ValOut> AV = val(Arg);
        if (!AV)
          return std::nullopt;
        TypeRef CTy = typeOf(Arg);
        TermRef CV;
        switch (kindOf(CTy)) {
        case AbsKind::Nat:
          CV = Term::mkApp(ofNatC(wordBits(CTy)), AV->A);
          break;
        case AbsKind::Int:
          CV = Term::mkApp(ofIntC(wordBits(CTy)), AV->A);
          break;
        case AbsKind::Id:
          CV = AV->A;
          break;
        case AbsKind::Pair:
          return std::nullopt;
        }
        ConcArgs.push_back(CV);
        Pre = termEq(Pre, mkTrue()) ? AV->P : mkConj(Pre, AV->P);
        ArgThms.push_back(AV->Th);
      }
      TermRef ConcCall = mkApps(Head, ConcArgs);
      TermRef AbsCall = ConcCall;
      if (kindOf(A) != AbsKind::Id) {
        std::string RvN = fresh("rv");
        TermRef RvF = Term::mkFree(RvN, A);
        TermRef Ret = mkApps(returnC(S, AAbs, E),
                             {betaNorm(Term::mkApp(RxA, RvF))});
        AbsCall = mkApps(bindC(S, A, AAbs, E),
                         {ConcCall, lamDisp(RvN, "rv", A, Ret)});
      }
      if (!typeEq(E, EAbs)) {
        std::string EN = fresh("e");
        TermRef EF = Term::mkFree(EN, E);
        TermRef Rethrow =
            mkThrow(S, AAbs, betaNorm(Term::mkApp(ExE, EF)));
        AbsCall = mkCatch(AbsCall, lamDisp(EN, "e", E, Rethrow));
      }
      if (!Pre->isConst(nm::True))
        AbsCall = guardPure(S, AAbs, EAbs, Pre, AbsCall);
      TermRef Prop =
          mkAbsWStmt(truePred(S), RxA, ExE, AbsCall, C, S, funTy(A, AAbs),
                     funTy(E, EAbs));
      return Kernel::oracle("word_abs_call", Prop);
    }
    std::vector<TermRef> AbsArgs;
    std::vector<TypeRef> AbsTys;
    TermRef Pre = mkTrue();
    std::vector<Thm> ArgThms;
    for (const TermRef &Arg : Args) {
      std::optional<ValOut> AV = val(Arg);
      if (!AV)
        return std::nullopt;
      AbsArgs.push_back(AV->A);
      AbsTys.push_back(typeOf(AV->A));
      Pre = termEq(Pre, mkTrue()) ? AV->P : mkConj(Pre, AV->P);
      ArgThms.push_back(AV->Th);
    }
    TermRef WAC = Term::mkConst(
        "wa:" + Callee, funTys(AbsTys, monadTy(S, AAbs, EAbs)));
    TermRef AbsCall = mkApps(WAC, AbsArgs);
    if (!Pre->isConst(nm::True))
      AbsCall = guardPure(S, AAbs, EAbs, Pre, AbsCall);
    TermRef Prop =
        mkAbsWStmt(truePred(S), RxA, ExE, AbsCall, C, S,
                   funTy(A, AAbs), funTy(E, EAbs));
    // Justified by the callee's own (differentially validated)
    // abstraction; recursion uses the standard fixpoint argument.
    return Kernel::oracle("word_abs_call", Prop);
  }

  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Image replacement and output folding
//===----------------------------------------------------------------------===//

/// Replaces every rx-image pattern of the concrete variable \p CF
/// (`unat v`, `sint v`, `id_abs v`, componentwise through fst/snd for
/// tuples) by the corresponding projection of \p AF. Returns null if a
/// bare occurrence of the concrete variable survives.
TermRef WordAbstraction::replaceImages(const TermRef &T, const TypeRef &CTy,
                                       const TermRef &CF,
                                       const TermRef &AF) {
  // Build the pattern list.
  std::vector<std::pair<TermRef, TermRef>> Pats;
  std::function<void(const TypeRef &, const TermRef &, const TermRef &)>
      Collect = [&](const TypeRef &Ty, const TermRef &CV,
                    const TermRef &AV) {
        switch (kindOf(Ty)) {
        case AbsKind::Nat:
          Pats.emplace_back(Term::mkApp(unatC(wordBits(Ty)), CV), AV);
          return;
        case AbsKind::Int:
          Pats.emplace_back(Term::mkApp(sintC(wordBits(Ty)), CV), AV);
          return;
        case AbsKind::Id:
          Pats.emplace_back(Term::mkApp(idAbsC(Ty), CV), AV);
          return;
        case AbsKind::Pair:
          Collect(Ty->arg(0), mkFst(CV), mkFst(AV));
          Collect(Ty->arg(1), mkSnd(CV), mkSnd(AV));
          return;
        }
      };
  Collect(CTy, CF, AF);

  // Every pattern mentions CF, so a subterm whose free-name summary lacks
  // CF's bit has nothing to replace and is returned as it is.
  const uint64_t Bit = freeNameBit(CF->name());
  std::function<TermRef(const TermRef &)> Go =
      [&](const TermRef &U) -> TermRef {
    if (!(U->freeMask() & Bit))
      return U;
    for (const auto &[Pat, Rep] : Pats)
      if (termEq(U, Pat))
        return Rep;
    switch (U->kind()) {
    case Term::Kind::Free:
      if (U->name() == CF->name())
        return nullptr; // bare concrete variable: not abstractable
      return U;
    case Term::Kind::Lam: {
      TermRef B = Go(U->body());
      if (!B)
        return nullptr;
      if (B.get() == U->body().get())
        return U;
      return Term::mkLam(U->name(), U->type(), B);
    }
    case Term::Kind::App: {
      TermRef F = Go(U->fun());
      TermRef X = F ? Go(U->argTerm()) : nullptr;
      if (!X)
        return nullptr;
      if (F.get() == U->fun().get() && X.get() == U->argTerm().get())
        return U;
      return Term::mkApp(F, X);
    }
    default:
      return U;
    }
  };
  TermRef Out = Go(T);
  return Out ? betaNorm(Out) : nullptr;
}

namespace {

/// Output-level constant folding: evaluates rx/coercion applications to
/// literals and erases id_abs. Semantics-preserving; applied to the
/// published definition only (the theorem keeps the raw form).
TermRef foldCoercions(const TermRef &T) {
  switch (T->kind()) {
  case Term::Kind::App: {
    TermRef F = foldCoercions(T->fun());
    TermRef X = foldCoercions(T->argTerm());
    if (F->isConst()) {
      const std::string &N = F->name();
      if (N == "id_abs")
        return X;
      if ((N == nm::Unat || N == nm::Sint || N == nm::OfNat ||
           N == nm::OfInt) &&
          X->isNum()) {
        TypeRef ResTy = ranTy(F->type());
        return Term::mkNum(normalizeToType(X->value(), ResTy), ResTy);
      }
    }
    if (F.get() == T->fun().get() && X.get() == T->argTerm().get())
      return T;
    return Term::mkApp(F, X);
  }
  case Term::Kind::Lam: {
    TermRef B = foldCoercions(T->body());
    if (B.get() == T->body().get())
      return T;
    return Term::mkLam(T->name(), T->type(), B);
  }
  default:
    return T;
  }
}

} // namespace

WAResult &WordAbstraction::abstractFunction(
    const std::string &FnName, const TermRef &Body,
    const std::vector<std::string> &ArgNames,
    const std::vector<TypeRef> &ArgTys, const WAOptions &Opts) {
  support::Span Sp("wordabs.fn");
  Sp.arg("fn", FnName);
  CurFn = FnName;
  FreshCtr = 0; // Fresh names restart per function: schedule-independent.
  WAResult Res;
  Res.ArgNames = ArgNames;
  Res.ConcArgTys = ArgTys;
  Tracked.clear();
  for (const std::string &N : ArgNames)
    Tracked.insert(N);
  clearFnMemos();

  if (Opts.Enabled) {
    std::optional<Thm> Th = stmt(Body);
    if (Th) {
      Res.Corres = *Th;
      // Replace the rx-images of the arguments by fresh abstract frees.
      TermRef A = absOfStmt(*Th);
      bool Ok = true;
      for (size_t I = 0; I != ArgNames.size() && Ok; ++I) {
        TermRef CF = Term::mkFree(ArgNames[I], ArgTys[I]);
        TypeRef ATy = absTy(ArgTys[I]);
        TermRef AF = Term::mkFree(ArgNames[I] + "'", ATy);
        TermRef Out = replaceImages(A, ArgTys[I], CF, AF);
        if (!Out) {
          Ok = false;
          break;
        }
        // Rename back to the plain argument name at the abstract type.
        A = substFree(Out, ArgNames[I] + "'",
                      Term::mkFree(ArgNames[I], ATy));
        Res.AbsArgTys.push_back(ATy);
      }
      if (Ok) {
        Res.Abstracted = true;
        A = foldCoercions(A);
        A = monad::simplifyMonadTerm(A);
        Res.AppliedBody = A;
        TermRef Def = A;
        for (size_t I = ArgNames.size(); I-- > 0;)
          Def = lambdaFree(ArgNames[I], Res.AbsArgTys[I], Def);
        Res.Def = Def;
        Ctx.installDef("wa:" + FnName, Def);
      }
    }
  }
  std::unique_lock<std::shared_mutex> L(ResultsM);
  return Results.emplace(FnName, std::move(Res)).first->second;
}

void WordAbstraction::seedCached(const std::string &Name, bool Abstracted) {
  WAResult Res;
  Res.Abstracted = Abstracted;
  std::unique_lock<std::shared_mutex> L(ResultsM);
  Results.emplace(Name, std::move(Res));
}
