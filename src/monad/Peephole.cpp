//===- Peephole.cpp -------------------------------------------------------===//

#include "monad/Peephole.h"

#include "support/Trace.h"

#include "hol/Names.h"

#include <unordered_map>
#include <unordered_set>

using namespace ac;
using namespace ac::monad;
using namespace ac::hol;
namespace nm = ac::hol::names;

namespace {

/// Matches `Const(Name) a1 .. aN` exactly.
bool matchC(const TermRef &T, const char *Name, unsigned Arity,
            std::vector<TermRef> &Args, TermRef *HeadOut = nullptr) {
  TermRef Head = stripApp(T, Args);
  if (!Head->isConst(Name) || Args.size() != Arity)
    return false;
  if (HeadOut)
    *HeadOut = Head;
  return true;
}

/// A value cheap enough to inline at every use site.
bool isCheapValue(const TermRef &T) {
  switch (T->kind()) {
  case Term::Kind::Free:
  case Term::Kind::Num:
  case Term::Kind::Const:
  case Term::Kind::Bound:
    return true;
  case Term::Kind::App: {
    std::vector<TermRef> Args;
    TermRef Cpy = T;
    TermRef Head = stripApp(Cpy, Args);
    if (!Head->isConst())
      return false;
    const std::string &N = Head->name();
    if ((N == nm::Fst || N == nm::Snd) && Args.size() == 1)
      return isCheapValue(Args[0]);
    if (N == nm::PairC && Args.size() == 2)
      return isCheapValue(Args[0]) && isCheapValue(Args[1]);
    return false;
  }
  default:
    return false;
  }
}

/// Number of references to Bound \p Idx in \p T.
unsigned usesOfBound(const TermRef &T, unsigned Idx) {
  switch (T->kind()) {
  case Term::Kind::Bound:
    return T->index() == Idx ? 1 : 0;
  case Term::Kind::App:
    return usesOfBound(T->fun(), Idx) + usesOfBound(T->argTerm(), Idx);
  case Term::Kind::Lam:
    return usesOfBound(T->body(), Idx + 1);
  default:
    return 0;
  }
}

/// Monadic heads that can never raise an exception or fail in a way that
/// the catch handler would see differently.
bool isNothrowHead(const TermRef &T) {
  std::vector<TermRef> Args;
  TermRef Head = stripApp(T, Args);
  if (!Head->isConst())
    return false;
  const std::string &N = Head->name();
  if (N == nm::Gets || N == nm::Modify || N == nm::Guard ||
      N == nm::Return || N == nm::Skip || N == nm::Get || N == nm::Put)
    return true;
  // Lifted function constants never throw: the L2 converter catches all
  // abrupt exits at the function boundary, and the HL/WA phases preserve
  // that. (L1 constants are excluded — returns are still encoded as
  // throws at that level.)
  return N.rfind("l2:", 0) == 0 || N.rfind("hl:", 0) == 0 ||
         N.rfind("wa:", 0) == 0;
}

/// Conservative proof that a monadic term never raises an exception
/// (used to push catch inside binds / drop it entirely).
bool neverThrows(const TermRef &T) {
  std::vector<TermRef> Args;
  TermRef Head = stripApp(T, Args);
  if (Head->isLam())
    return Args.empty() && neverThrows(Head->body());
  if (!Head->isConst())
    return false;
  const std::string &N = Head->name();
  if (N == nm::Gets || N == nm::Modify || N == nm::Guard ||
      N == nm::Return || N == nm::Skip || N == nm::Get || N == nm::Put ||
      N == nm::Fail)
    return true;
  if (N == nm::Bind && Args.size() == 2)
    return neverThrows(Args[0]) &&
           (Args[1]->isLam() ? neverThrows(Args[1]->body()) : false);
  if (N == nm::Condition && Args.size() == 3)
    return neverThrows(Args[1]) && neverThrows(Args[2]);
  if (N == nm::WhileLoop && Args.size() == 3) {
    const TermRef &B = Args[1];
    return B->isLam() && neverThrows(B->body());
  }
  if (N == nm::Catch && Args.size() == 2)
    return Args[1]->isLam() && neverThrows(Args[1]->body());
  return isNothrowHead(T);
}

class Peephole {
public:
  explicit Peephole(unsigned Budget) : Budget(Budget) {}

  TermRef run(const TermRef &T) { return simp(T); }

private:
  unsigned Budget;
  /// Intern ids of nodes that simp returned unchanged without spending
  /// budget: no rule fired anywhere inside them, so simp returns them
  /// unchanged and spends nothing at any budget not above the current
  /// one — and the budget only falls. A shared subterm is then walked
  /// once per call, not once per occurrence, with unchanged results even
  /// when the budget runs out.
  std::unordered_set<uint64_t> Normal;

  TermRef simp(const TermRef &T) {
    if (Normal.count(T->id()))
      return T;
    unsigned Before = Budget;
    TermRef R = simpUncached(T);
    if (R.get() == T.get() && Budget == Before)
      Normal.insert(T->id());
    return R;
  }

  TermRef simpUncached(const TermRef &T) {
    TermRef Cur = simpChildren(T);
    for (unsigned I = 0; I != 100 && Budget != 0; ++I) {
      TermRef Next = rules(Cur);
      if (Next.get() == Cur.get())
        return Cur;
      --Budget;
      Cur = simpChildren(Next);
    }
    return Cur;
  }

  TermRef simpChildren(const TermRef &T) {
    switch (T->kind()) {
    case Term::Kind::App: {
      TermRef F = simp(T->fun());
      TermRef X = simp(T->argTerm());
      if (F.get() == T->fun().get() && X.get() == T->argTerm().get())
        return T;
      return Term::mkApp(std::move(F), std::move(X));
    }
    case Term::Kind::Lam: {
      TermRef B = simp(T->body());
      if (B.get() == T->body().get())
        return T;
      return Term::mkLam(T->name(), T->type(), std::move(B));
    }
    default:
      return T;
    }
  }

  /// Result monad type of a bind/catch constant (the range of its range).
  static TypeRef resultMonadTy(const TermRef &HeadConst) {
    return ranTy(ranTy(HeadConst->type()));
  }

  TermRef rules(const TermRef &T) {
    std::vector<TermRef> A, B;
    TermRef BindHead;

    // --- bind rules -----------------------------------------------------
    if (matchC(T, nm::Bind, 2, A, &BindHead)) {
      const TermRef &M = A[0];
      const TermRef &F = A[1];
      TypeRef ResTy = resultMonadTy(BindHead);

      // bind (return x) f  ==>  f x — but only when inlining x cannot
      // blow the term up (cheap value or single use).
      if (matchC(M, nm::Return, 1, B)) {
        bool SingleUse =
            F->isLam() && usesOfBound(F->body(), 0) <= 1;
        if (isCheapValue(B[0]) || SingleUse)
          return betaNorm(Term::mkApp(F, B[0]));
      }
      // bind skip f  ==>  f ()
      if (M->isConst(nm::Skip))
        return betaNorm(Term::mkApp(F, mkUnit()));
      // bind (guard (%_. True)) f  ==>  f ()
      if (matchC(M, nm::Guard, 1, B) && B[0]->isLam() &&
          B[0]->body()->isConst(nm::True))
        return betaNorm(Term::mkApp(F, mkUnit()));
      // bind (throw e) f  ==>  throw e (at the result type)
      if (matchC(M, nm::Throw, 1, B)) {
        TermRef ThrowHead = M->fun();
        TermRef NewThrow = Term::mkConst(
            nm::Throw, funTy(domTy(ThrowHead->type()), ResTy));
        return Term::mkApp(NewThrow, B[0]);
      }
      // bind fail f  ==>  fail
      if (M->isConst(nm::Fail))
        return Term::mkConst(nm::Fail, ResTy);
      // bind m (%v. return v)  ==>  m
      if (F->isLam()) {
        std::vector<TermRef> RA;
        if (matchC(F->body(), nm::Return, 1, RA) && RA[0]->isBound() &&
            RA[0]->index() == 0)
          return M;
      }
      // Adjacent identical guards: guard P; guard P; K  ==>  guard P; K
      std::vector<TermRef> GA;
      if (matchC(M, nm::Guard, 1, GA) && F->isLam()) {
        std::vector<TermRef> IB;
        TermRef IBH;
        if (matchC(F->body(), nm::Bind, 2, IB, &IBH)) {
          std::vector<TermRef> GB;
          if (matchC(IB[0], nm::Guard, 1, GB) && GB[0]->maxLoose() == 0 &&
              termEq(GA[0], GB[0]) && IB[1]->isLam()) {
            // Drop the inner guard; both unit binders are unused.
            TermRef InnerBody = substBound(
                IB[1]->body(), Term::mkConst(nm::Unity, unitTy()));
            TermRef NewF =
                Term::mkLam(F->name(), F->type(), InnerBody);
            TermRef BindC2 = Term::mkConst(
                nm::Bind, funTys({domTy(BindHead->type()),
                                  funTy(F->type(), ResTy)},
                                 ResTy));
            return mkApps(BindC2, {M, NewF});
          }
        }
      }
      // bind (bind m g) f  ==>  bind m (%v. bind (g v) f)
      std::vector<TermRef> IA;
      TermRef InnerHead;
      if (matchC(M, nm::Bind, 2, IA, &InnerHead) && IA[1]->isLam()) {
        const TermRef &M0 = IA[0];
        const TermRef &G = IA[1];
        // All types come from the two bind constants (subterms may be
        // open, so typeOf is not available here).
        TypeRef M0Ty = domTy(InnerHead->type());
        TypeRef GTy = domTy(ranTy(InnerHead->type()));
        TypeRef FTy = domTy(ranTy(BindHead->type()));
        TypeRef VTy = G->type();
        TermRef GV = betaNorm(
            Term::mkApp(liftLoose(G, 1), Term::mkBound(0)));
        TermRef NewInner =
            Term::mkConst(nm::Bind, funTys({ranTy(GTy), FTy}, ResTy));
        TermRef Body = mkApps(NewInner, {GV, liftLoose(F, 1)});
        TermRef NewF = Term::mkLam(G->name(), VTy, Body);
        TermRef NewOuter = Term::mkConst(
            nm::Bind, funTys({M0Ty, funTy(VTy, ResTy)}, ResTy));
        return mkApps(NewOuter, {M0, NewF});
      }
      // bind (condition c X Y) f  ==>  condition c (bind X f) (bind Y f)
      // (bounded duplication of f)
      std::vector<TermRef> CA;
      TermRef CondHead;
      if (matchC(M, nm::Condition, 3, CA, &CondHead)) {
        // Only push the continuation into the branches when both are
        // trivial (return/throw) AND the continuation is small: that
        // collapses the max-style pattern without duplicating real code.
        bool BranchesTrivial =
            (stripHeadName(CA[1]) == nm::Throw ||
             stripHeadName(CA[1]) == nm::Return) &&
            (stripHeadName(CA[2]) == nm::Throw ||
             stripHeadName(CA[2]) == nm::Return);
        if (BranchesTrivial && F->size() <= 24) {
          TypeRef BranchTy = domTy(ranTy(CondHead->type()));
          TypeRef FTy = domTy(ranTy(BindHead->type()));
          TermRef BindC =
              Term::mkConst(nm::Bind, funTys({BranchTy, FTy}, ResTy));
          TermRef X = mkApps(BindC, {CA[1], F});
          TermRef Y = mkApps(BindC, {CA[2], F});
          TermRef CondC = Term::mkConst(
              nm::Condition,
              funTys({domTy(CondHead->type()), ResTy, ResTy}, ResTy));
          return mkApps(CondC, {CA[0], X, Y});
        }
      }
      return T;
    }

    // --- catch rules ----------------------------------------------------
    TermRef CatchHead;
    if (matchC(T, nm::Catch, 2, A, &CatchHead)) {
      const TermRef &M = A[0];
      const TermRef &H = A[1];
      TypeRef ResTy = resultMonadTy(CatchHead);

      // catch (return x) h  ==>  return x
      if (matchC(M, nm::Return, 1, B)) {
        TermRef RetC = Term::mkConst(
            nm::Return, funTy(domTy(M->fun()->type()), ResTy));
        return Term::mkApp(RetC, B[0]);
      }
      // catch (throw e) h  ==>  h e
      if (matchC(M, nm::Throw, 1, B))
        return betaNorm(Term::mkApp(H, B[0]));
      // catch fail h  ==>  fail
      if (M->isConst(nm::Fail))
        return Term::mkConst(nm::Fail, ResTy);
      // catch m (%e. throw e)  ==>  m  (only at unchanged exception type)
      if (H->isLam() && typeEq(domTy(CatchHead->type()), ResTy)) {
        std::vector<TermRef> TA;
        if (matchC(H->body(), nm::Throw, 1, TA) && TA[0]->isBound() &&
            TA[0]->index() == 0)
          return M;
      }
      // catch m h  ==>  m, when m never throws (type permitting).
      if (neverThrows(M) && typeEq(domTy(CatchHead->type()), ResTy))
        return M;
      // catch (bind NT g) h  ==>  bind NT (%v. catch (g v) h)
      std::vector<TermRef> IA;
      TermRef IBHead;
      if (matchC(M, nm::Bind, 2, IA, &IBHead) && IA[1]->isLam() &&
          (isNothrowHead(IA[0]) || neverThrows(IA[0]))) {
        const TermRef &NT = IA[0];
        const TermRef &G = IA[1];
        TypeRef HTy = domTy(ranTy(CatchHead->type()));
        TypeRef NTTy = domTy(IBHead->type());
        TypeRef GTy = domTy(ranTy(IBHead->type()));
        TermRef GV = betaNorm(
            Term::mkApp(liftLoose(G, 1), Term::mkBound(0)));
        TermRef NewCatch = Term::mkConst(
            nm::Catch, funTys({ranTy(GTy), HTy}, ResTy));
        TermRef Body = mkApps(NewCatch, {GV, liftLoose(H, 1)});
        TermRef NewG = Term::mkLam(G->name(), G->type(), Body);
        TermRef BindC = Term::mkConst(
            nm::Bind,
            funTys({NTTy, funTy(G->type(), ResTy)}, ResTy));
        return mkApps(BindC, {NT, NewG});
      }
      // catch (condition c X Y) h  ==>  condition c (catch X h) (catch Y h)
      std::vector<TermRef> CA;
      TermRef CondHead;
      if (matchC(M, nm::Condition, 3, CA, &CondHead)) {
        TypeRef HTy = domTy(ranTy(CatchHead->type()));
        TypeRef BranchTy = domTy(ranTy(CondHead->type()));
        TermRef CatchC = Term::mkConst(
            nm::Catch, funTys({BranchTy, HTy}, ResTy));
        TermRef X = mkApps(CatchC, {CA[1], H});
        TermRef Y = mkApps(CatchC, {CA[2], H});
        TermRef CondC = Term::mkConst(
            nm::Condition,
            funTys({domTy(CondHead->type()), ResTy, ResTy}, ResTy));
        return mkApps(CondC, {CA[0], X, Y});
      }
      return T;
    }

    // --- guard body cleanup: True conjuncts inside guard lambdas -------
    if (matchC(T, nm::Guard, 1, A) && A[0]->isLam()) {
      TermRef L2, R2;
      if (destConj(A[0]->body(), L2, R2)) {
        TermRef NewBody;
        if (L2->isConst(nm::True))
          NewBody = R2;
        else if (R2->isConst(nm::True))
          NewBody = L2;
        if (NewBody) {
          TermRef GHead = T->fun();
          return Term::mkApp(
              GHead, Term::mkLam(A[0]->name(), A[0]->type(), NewBody));
        }
      }
      return T;
    }

    // --- condition rules --------------------------------------------------
    if (matchC(T, nm::Condition, 3, A)) {
      const TermRef &C = A[0];
      // condition c X X ==> X
      if (termEq(A[1], A[2]))
        return A[1];
      // Fully pure conditional of returns: return (if c then x else y).
      if (C->isLam() && C->body()->maxLoose() == 0) {
        std::vector<TermRef> XA, YA;
        if (matchC(A[1], nm::Return, 1, XA) &&
            matchC(A[2], nm::Return, 1, YA)) {
          TermRef CondBody =
              substBound(C->body(), Term::mkFree("_", C->type()));
          TermRef RetC = A[1]->fun();
          return Term::mkApp(RetC, mkIte(CondBody, XA[0], YA[0]));
        }
        // condition with literal condition.
        if (C->body()->isConst(nm::True))
          return A[1];
        if (C->body()->isConst(nm::False))
          return A[2];
      }
      return T;
    }

    return T;
  }

  static std::string stripHeadName(const TermRef &T) {
    std::vector<TermRef> Args;
    TermRef Head = stripApp(T, Args);
    return Head->isConst() ? Head->name() : "";
  }
};

//===----------------------------------------------------------------------===//
// Guard-run deduplication
//===----------------------------------------------------------------------===//
//
// Along a bind spine, a guard whose conjuncts have all been established by
// earlier guards is redundant. The "seen" set survives state-preserving
// steps (gets/return/skip) and - the split-heap design point of Sec 4.4 -
// data-only heap updates (`heap_T_update`), which cannot change validity.

void conjuncts(const TermRef &T, std::vector<TermRef> &Out) {
  TermRef A, B;
  if (destConj(T, A, B)) {
    conjuncts(A, Out);
    conjuncts(B, Out);
    return;
  }
  Out.push_back(T);
}

bool seenHas(const std::vector<TermRef> &Seen, const TermRef &T) {
  for (const TermRef &S : Seen)
    if (termEq(S, T))
      return true;
  return false;
}

/// True if a modify function only updates heap_* data fields of the
/// lifted state (validity-preserving).
bool isDataOnlyModify(const TermRef &Fn) {
  if (!Fn->isLam())
    return false;
  std::vector<TermRef> Args;
  TermRef Head = stripApp(Fn->body(), Args);
  return Head->isConst() && Args.size() == 2 &&
         Head->name().rfind("upd:lifted_globals.heap_", 0) == 0 &&
         Args[1]->isBound() && Args[1]->index() == 0;
}

/// True if every use of the state variable (loose Bound \p Depth) in \p T
/// is a field read a data-only heap update cannot change: validity fields
/// and plain globals, but not heap_* data fields. Only such conjuncts may
/// stay in the "seen" set across a data-only modify — an arithmetic guard
/// over heap reads is clobbered by the very write it guards.
bool dataUpdateImmune(const TermRef &T, unsigned Depth) {
  switch (T->kind()) {
  case Term::Kind::Bound:
    return T->index() != Depth;
  case Term::Kind::Lam:
    return dataUpdateImmune(T->body(), Depth + 1);
  case Term::Kind::App: {
    const TermRef &F = T->fun();
    const TermRef &X = T->argTerm();
    if (F->isConst() && X->isBound() && X->index() == Depth) {
      const std::string &N = F->name();
      if (N.rfind("fld:lifted_globals.", 0) == 0 &&
          N.rfind("fld:lifted_globals.heap_", 0) != 0)
        return true;
    }
    return dataUpdateImmune(F, Depth) && dataUpdateImmune(X, Depth);
  }
  default:
    return true;
  }
}

/// The guard-run deduplication walk. dedupSpine(T, {}) depends on T
/// alone, so it is memoised on T's intern id: a subterm shared across the
/// DAG is deduplicated once per call.
class GuardDedup {
public:
  TermRef dedupSpine(const TermRef &T, std::vector<TermRef> Seen) {
    if (!Seen.empty())
      return dedupSpineUncached(T, std::move(Seen));
    auto It = Fresh.find(T->id());
    if (It != Fresh.end())
      return It->second;
    TermRef R = dedupSpineUncached(T, {});
    Fresh.emplace(T->id(), R);
    return R;
  }

private:
  /// dedupSpine(T, {}) by intern id.
  std::unordered_map<uint64_t, TermRef> Fresh;

  TermRef dedupChildren(const TermRef &T) {
    switch (T->kind()) {
    case Term::Kind::App: {
      TermRef F = dedupChildren(T->fun());
      TermRef X = dedupSpine(T->argTerm(), {});
      if (F.get() == T->fun().get() && X.get() == T->argTerm().get())
        return T;
      return Term::mkApp(std::move(F), std::move(X));
    }
    case Term::Kind::Lam: {
      TermRef B = dedupSpine(T->body(), {});
      if (B.get() == T->body().get())
        return T;
      return Term::mkLam(T->name(), T->type(), std::move(B));
    }
    default:
      return T;
    }
  }

  /// Rebuilds `bind M (λ. Body)` from \p T's parts, or returns \p T when
  /// neither changed.
  static TermRef rebind(const TermRef &T, const TermRef &BindHead,
                        const TermRef &M, const TermRef &F,
                        const TermRef &NewM, TermRef NewBody) {
    if (NewM.get() == M.get() && NewBody.get() == F->body().get())
      return T;
    TermRef NewF = Term::mkLam(F->name(), F->type(), std::move(NewBody));
    return mkApps(BindHead, {NewM, NewF});
  }

  TermRef dedupSpineUncached(const TermRef &T, std::vector<TermRef> Seen) {
    std::vector<TermRef> A;
    TermRef BindHead;
    if (!matchC(T, nm::Bind, 2, A, &BindHead) || !A[1]->isLam())
      return dedupChildren(T);
    const TermRef &M = A[0];
    const TermRef &F = A[1];

    std::vector<TermRef> GA;
    if (matchC(M, nm::Guard, 1, GA) && GA[0]->isLam() &&
        GA[0]->body()->maxLoose() <= 1) {
      std::vector<TermRef> Cs;
      conjuncts(GA[0]->body(), Cs);
      bool AllSeen = true;
      for (const TermRef &C : Cs)
        if (!seenHas(Seen, C)) {
          AllSeen = false;
          break;
        }
      if (AllSeen) {
        // Redundant guard: drop it (the unit binder is unused).
        TermRef Rest =
            substBound(F->body(), Term::mkConst(nm::Unity, unitTy()));
        return dedupSpine(Rest, std::move(Seen));
      }
      for (const TermRef &C : Cs)
        if (!seenHas(Seen, C))
          Seen.push_back(C);
      return rebind(T, BindHead, M, F, M,
                    dedupSpine(F->body(), std::move(Seen)));
    }

    // Decide whether the step preserves the guard knowledge.
    std::vector<TermRef> MA;
    bool Preserves = false;
    if (matchC(M, nm::Gets, 1, MA) || matchC(M, nm::Return, 1, MA) ||
        M->isConst(nm::Skip))
      Preserves = true;
    else if (matchC(M, nm::Modify, 1, MA) && isDataOnlyModify(MA[0])) {
      // The write changes heap data: drop conjuncts that read it, keep
      // validity facts and plain globals (the Sec 4.4 design point).
      std::vector<TermRef> Kept;
      for (const TermRef &C : Seen)
        if (dataUpdateImmune(C, 0))
          Kept.push_back(C);
      Seen = std::move(Kept);
      Preserves = true;
    }
    if (!Preserves)
      Seen.clear();
    TermRef NewM = dedupChildren(M);
    return rebind(T, BindHead, M, F, NewM,
                  dedupSpine(F->body(), std::move(Seen)));
  }
};

} // namespace

TermRef ac::monad::simplifyMonadTerm(const TermRef &T, unsigned Budget) {
  AC_SPAN("monad.peephole");
  Peephole P(Budget);
  return GuardDedup().dedupSpine(P.run(T), {});
}
