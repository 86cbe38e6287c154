//===- Term.cpp -----------------------------------------------------------===//

#include "hol/Term.h"

#include "hol/Intern.h"

#include <algorithm>
#include <functional>
#include <map>

using namespace ac::hol;

static size_t combineHash(size_t A, size_t B) {
  return A ^ (B + 0x9e3779b97f4a7c15ULL + (A << 6) + (A >> 2));
}

/// The arena store every term factory funnels through (see Intern.h).
/// Every structurally distinct node is built exactly once; children of a
/// prospective node are already canonical, so the structural matches in
/// the factories below reduce to pointer comparisons and the per-node
/// cached flags/ids are computed exactly once.
static InternStore<Term> &termStore() {
  // Leaked on purpose: avoids destruction-order races with other statics
  // and makes every TermRef immortal (they are non-owning aliases).
  static auto *T = new InternStore<Term>();
  return *T;
}

size_t ac::hol::internedTermCount() { return termStore().size(); }

/// The top six bits of the name's string hash pick the bit.
static uint64_t nameBit(size_t NameHash) {
  return uint64_t(1) << (static_cast<uint64_t>(NameHash) >> 58);
}

uint64_t ac::hol::freeNameBit(const std::string &Name) {
  return nameBit(std::hash<std::string>()(Name));
}

/// If \p T is `Pair a b`, fills A/B.
static bool destPairApp(const TermRef &T, TermRef &A, TermRef &B) {
  if (!T->isApp() || !T->fun()->isApp())
    return false;
  const TermRef &H = T->fun()->fun();
  if (!H->isConst() || H->name() != "Pair")
    return false;
  A = T->fun()->argTerm();
  B = T->argTerm();
  return true;
}

/// True if `F X` reduces at the root: a beta redex, or the fst/snd-of-
/// Pair projection redex betaNorm also contracts.
static bool isRootRedex(const TermRef &F, const TermRef &X) {
  if (F->isLam())
    return true;
  if (F->isConst() && (F->name() == "fst" || F->name() == "snd")) {
    TermRef A, B;
    if (destPairApp(X, A, B))
      return true;
  }
  return false;
}

TermRef Term::mkConst(const std::string &Name, TypeRef Ty) {
  assert(Ty && "constant requires a type");
  size_t H = combineHash(std::hash<std::string>()(Name), 0x11);
  H = combineHash(H, Ty->hash());
  return termStore().get(
      H,
      [&](const Term &R) {
        return R.isConst() && R.Ty.get() == Ty.get() && R.Name == Name;
      },
      [&](uint64_t Id) {
        Term T;
        T.K = Kind::Const;
        T.Name = Name;
        T.Hash = H;
        T.Id = Id;
        T.TyVar = Ty->hasVar();
        T.Ty = std::move(Ty);
        return T;
      });
}

TermRef Term::mkFree(const std::string &Name, TypeRef Ty) {
  assert(Ty && "free variable requires a type");
  // The hash keys the name only (as termEq compares Frees); same-name
  // Frees at different types share a bucket and are split by the match.
  size_t NameHash = std::hash<std::string>()(Name);
  size_t H = combineHash(NameHash, 0x22);
  return termStore().get(
      H,
      [&](const Term &R) {
        return R.isFree() && R.Ty.get() == Ty.get() && R.Name == Name;
      },
      [&](uint64_t Id) {
        Term T;
        T.K = Kind::Free;
        T.Name = Name;
        T.Hash = H;
        T.Id = Id;
        T.FreeMask = nameBit(NameHash);
        T.TyVar = Ty->hasVar();
        T.Ty = std::move(Ty);
        return T;
      });
}

TermRef Term::mkVar(const std::string &Name, unsigned Index, TypeRef Ty) {
  assert(Ty && "schematic variable requires a type");
  size_t H = combineHash(std::hash<std::string>()(Name), 0x33 + Index);
  return termStore().get(
      H,
      [&](const Term &R) {
        return R.isVar() && R.Index == Index && R.Ty.get() == Ty.get() &&
               R.Name == Name;
      },
      [&](uint64_t Id) {
        Term T;
        T.K = Kind::Var;
        T.Name = Name;
        T.Index = Index;
        T.Hash = H;
        T.Id = Id;
        T.Schematic = true;
        T.TyVar = Ty->hasVar();
        T.Ty = std::move(Ty);
        return T;
      });
}

TermRef Term::mkBound(unsigned Index) {
  size_t H = combineHash(0x44, Index);
  return termStore().get(
      H, [&](const Term &R) { return R.isBound() && R.Index == Index; },
      [&](uint64_t Id) {
        Term T;
        T.K = Kind::Bound;
        T.Index = Index;
        T.Hash = H;
        T.Id = Id;
        T.MaxLoose = Index + 1;
        return T;
      });
}

TermRef Term::mkLam(const std::string &Name, TypeRef ArgTy, TermRef Body) {
  assert(ArgTy && Body && "lambda requires argument type and body");
  // The hash ignores the display name (as alpha-equality does); the
  // interner's match keys on it so printing is preserved exactly.
  size_t H = combineHash(0x55, Body->hash());
  H = combineHash(H, ArgTy->hash());
  return termStore().get(
      H,
      [&](const Term &R) {
        return R.isLam() && R.A.get() == Body.get() &&
               R.Ty.get() == ArgTy.get() && R.Name == Name;
      },
      [&](uint64_t Id) {
        Term T;
        T.K = Kind::Lam;
        T.Name = Name;
        T.Hash = H;
        T.Id = Id;
        T.Size = 1 + Body->size();
        T.MaxLoose = Body->maxLoose() > 0 ? Body->maxLoose() - 1 : 0;
        T.Schematic = Body->hasSchematic();
        T.TyVar = ArgTy->hasVar() || Body->hasTyVar();
        T.BetaNormal = Body->isBetaNormal();
        T.FreeMask = Body->freeMask();
        T.Ty = std::move(ArgTy);
        T.A = std::move(Body);
        return T;
      });
}

TermRef Term::mkApp(TermRef F, TermRef X) {
  assert(F && X && "application requires both terms");
  size_t H = combineHash(F->hash(), X->hash());
  return termStore().get(
      H,
      [&](const Term &R) {
        return R.isApp() && R.A.get() == F.get() && R.B.get() == X.get();
      },
      [&](uint64_t Id) {
        Term T;
        T.K = Kind::App;
        T.Hash = H;
        T.Id = Id;
        T.Size = 1 + F->size() + X->size();
        T.MaxLoose = std::max(F->maxLoose(), X->maxLoose());
        T.Schematic = F->hasSchematic() || X->hasSchematic();
        T.TyVar = F->hasTyVar() || X->hasTyVar();
        T.BetaNormal =
            F->isBetaNormal() && X->isBetaNormal() && !isRootRedex(F, X);
        T.FreeMask = F->freeMask() | X->freeMask();
        T.A = std::move(F);
        T.B = std::move(X);
        return T;
      });
}

TermRef Term::mkNum(Int128 Value, TypeRef Ty) {
  assert(Ty && "numeral requires a type");
  size_t H = combineHash(0x66, static_cast<size_t>(static_cast<uint64_t>(
                                   Value ^ (Value >> 64))));
  H = combineHash(H, Ty->hash());
  return termStore().get(
      H,
      [&](const Term &R) {
        return R.isNum() && R.Value == Value && R.Ty.get() == Ty.get();
      },
      [&](uint64_t Id) {
        Term T;
        T.K = Kind::Num;
        T.Value = Value;
        T.Hash = H;
        T.Id = Id;
        T.TyVar = Ty->hasVar();
        T.Ty = std::move(Ty);
        return T;
      });
}

bool ac::hol::termEq(const TermRef &A, const TermRef &B) {
  if (A.get() == B.get())
    return true;
  if (!A || !B)
    return false;
  if (A->hash() != B->hash() || A->kind() != B->kind() ||
      A->size() != B->size())
    return false;
  switch (A->kind()) {
  case Term::Kind::Const:
    return A->name() == B->name() && typeEq(A->type(), B->type());
  case Term::Kind::Free:
    return A->name() == B->name();
  case Term::Kind::Var:
    return A->name() == B->name() && A->index() == B->index();
  case Term::Kind::Bound:
    return A->index() == B->index();
  case Term::Kind::Num:
    return A->value() == B->value() && typeEq(A->type(), B->type());
  case Term::Kind::Lam:
    return typeEq(A->type(), B->type()) && termEq(A->body(), B->body());
  case Term::Kind::App:
    return termEq(A->fun(), B->fun()) && termEq(A->argTerm(), B->argTerm());
  }
  return false;
}

TermRef ac::hol::mkApps(TermRef F, const std::vector<TermRef> &Args) {
  for (const TermRef &A : Args)
    F = Term::mkApp(std::move(F), A);
  return F;
}

TermRef ac::hol::stripApp(TermRef T, std::vector<TermRef> &Args) {
  Args.clear();
  while (T->isApp()) {
    Args.push_back(T->argTerm());
    T = T->fun();
  }
  std::reverse(Args.begin(), Args.end());
  return T;
}

TypeRef ac::hol::typeOf(const TermRef &T, std::vector<TypeRef> *BoundTys) {
  switch (T->kind()) {
  case Term::Kind::Const:
  case Term::Kind::Free:
  case Term::Kind::Var:
  case Term::Kind::Num:
    return T->type();
  case Term::Kind::Bound: {
    std::vector<TypeRef> *Env = BoundTys;
    assert(Env && T->index() < Env->size() &&
           "loose bound variable in typeOf");
    return (*Env)[Env->size() - 1 - T->index()];
  }
  case Term::Kind::Lam:
  case Term::Kind::App:
    break;
  }

  // Closed compound terms cache their type on the node (types are
  // immortal interned nodes, so the raw pointer re-wraps safely).
  bool Closed = T->maxLoose() == 0;
  if (Closed)
    if (const Type *C = T->cachedTypePtr())
      return TypeRef(TypeRef{}, C);

  std::vector<TypeRef> Local;
  std::vector<TypeRef> &Env = BoundTys ? *BoundTys : Local;
  TypeRef R;
  if (T->isLam()) {
    Env.push_back(T->type());
    TypeRef BodyTy = typeOf(T->body(), &Env);
    Env.pop_back();
    R = funTy(T->type(), BodyTy);
  } else {
    TypeRef FTy = typeOf(T->fun(), &Env);
    assert(isFunTy(FTy) && "application of non-function");
    R = ranTy(FTy);
  }
  if (Closed)
    T->cacheTypePtr(R.get());
  return R;
}

TermRef ac::hol::liftLoose(const TermRef &T, unsigned Inc, unsigned Cutoff) {
  if (Inc == 0 || T->maxLoose() <= Cutoff)
    return T;
  switch (T->kind()) {
  case Term::Kind::Bound:
    return Term::mkBound(T->index() + Inc);
  case Term::Kind::Lam:
    return Term::mkLam(T->name(), T->type(),
                       liftLoose(T->body(), Inc, Cutoff + 1));
  case Term::Kind::App:
    return Term::mkApp(liftLoose(T->fun(), Inc, Cutoff),
                       liftLoose(T->argTerm(), Inc, Cutoff));
  default:
    return T;
  }
}

TermRef ac::hol::substBound(const TermRef &Body, const TermRef &Arg,
                            unsigned Depth) {
  if (Body->maxLoose() <= Depth)
    return Body; // No reference to Bound(Depth) or anything looser.
  switch (Body->kind()) {
  case Term::Kind::Bound:
    if (Body->index() == Depth)
      return liftLoose(Arg, Depth);
    if (Body->index() > Depth)
      return Term::mkBound(Body->index() - 1);
    return Body;
  case Term::Kind::Lam:
    return Term::mkLam(Body->name(), Body->type(),
                       substBound(Body->body(), Arg, Depth + 1));
  case Term::Kind::App:
    return Term::mkApp(substBound(Body->fun(), Arg, Depth),
                       substBound(Body->argTerm(), Arg, Depth));
  default:
    return Body;
  }
}

TermRef ac::hol::betaNorm(const TermRef &T) {
  if (T->isBetaNormal())
    return T;
  switch (T->kind()) {
  case Term::Kind::App: {
    TermRef F = betaNorm(T->fun());
    TermRef X = betaNorm(T->argTerm());
    if (F->isLam())
      return betaNorm(substBound(F->body(), X));
    // Projection reduction: fst (a, b) = a, snd (a, b) = b. Part of the
    // normal form alongside beta (tuple iterators rely on it).
    if (F->isConst() && (F->name() == "fst" || F->name() == "snd")) {
      TermRef A, B;
      if (destPairApp(X, A, B))
        return F->name() == "fst" ? A : B;
    }
    if (F.get() == T->fun().get() && X.get() == T->argTerm().get())
      return T;
    return Term::mkApp(std::move(F), std::move(X));
  }
  case Term::Kind::Lam: {
    TermRef B = betaNorm(T->body());
    if (B.get() == T->body().get())
      return T;
    return Term::mkLam(T->name(), T->type(), std::move(B));
  }
  default:
    return T;
  }
}

/// substFree under \p Depth binders: \p Repl is lifted only where it is
/// placed, so a walk that finds no occurrence interns nothing.
static TermRef substFreeBit(const TermRef &T, const std::string &Name,
                            uint64_t Bit, const TermRef &Repl,
                            unsigned Depth) {
  if (!(T->freeMask() & Bit))
    return T;
  switch (T->kind()) {
  case Term::Kind::Free:
    if (T->name() == Name)
      return liftLoose(Repl, Depth);
    return T;
  case Term::Kind::Lam: {
    TermRef B = substFreeBit(T->body(), Name, Bit, Repl, Depth + 1);
    if (B.get() == T->body().get())
      return T;
    return Term::mkLam(T->name(), T->type(), std::move(B));
  }
  case Term::Kind::App: {
    TermRef F = substFreeBit(T->fun(), Name, Bit, Repl, Depth);
    TermRef X = substFreeBit(T->argTerm(), Name, Bit, Repl, Depth);
    if (F.get() == T->fun().get() && X.get() == T->argTerm().get())
      return T;
    return Term::mkApp(std::move(F), std::move(X));
  }
  default:
    return T;
  }
}

TermRef ac::hol::substFree(const TermRef &T, const std::string &Name,
                           const TermRef &Repl) {
  return substFreeBit(T, Name, freeNameBit(Name), Repl, 0);
}

static bool occursFreeBit(const TermRef &T, const std::string &Name,
                          uint64_t Bit) {
  if (!(T->freeMask() & Bit))
    return false;
  switch (T->kind()) {
  case Term::Kind::Free:
    return T->name() == Name;
  case Term::Kind::Lam:
    return occursFreeBit(T->body(), Name, Bit);
  case Term::Kind::App:
    return occursFreeBit(T->fun(), Name, Bit) ||
           occursFreeBit(T->argTerm(), Name, Bit);
  default:
    return false;
  }
}

bool ac::hol::occursFree(const TermRef &T, const std::string &Name) {
  return occursFreeBit(T, Name, freeNameBit(Name));
}

static void collectFrees(const TermRef &T, std::vector<std::string> &Out) {
  if (T->freeMask() == 0)
    return;
  switch (T->kind()) {
  case Term::Kind::Free:
    for (const std::string &N : Out)
      if (N == T->name())
        return;
    Out.push_back(T->name());
    return;
  case Term::Kind::Lam:
    collectFrees(T->body(), Out);
    return;
  case Term::Kind::App:
    collectFrees(T->fun(), Out);
    collectFrees(T->argTerm(), Out);
    return;
  default:
    return;
  }
}

std::vector<std::string> ac::hol::freeVars(const TermRef &T) {
  std::vector<std::string> Out;
  collectFrees(T, Out);
  return Out;
}

/// Turns Free \p Name into Bound(\p Depth) and shifts the loose bounds at
/// or past \p Depth over the new binder. A subterm without the name's bit
/// and without such bounds is already its own result.
static TermRef abstractFree(const TermRef &T, const std::string &Name,
                            uint64_t Bit, unsigned Depth) {
  if (!(T->freeMask() & Bit) && T->maxLoose() <= Depth)
    return T;
  switch (T->kind()) {
  case Term::Kind::Free:
    if (T->name() == Name)
      return Term::mkBound(Depth);
    return T;
  case Term::Kind::Bound:
    // Keep loose bounds pointing past the new binder.
    if (T->index() >= Depth)
      return Term::mkBound(T->index() + 1);
    return T;
  case Term::Kind::Lam: {
    TermRef B = abstractFree(T->body(), Name, Bit, Depth + 1);
    if (B.get() == T->body().get())
      return T;
    return Term::mkLam(T->name(), T->type(), std::move(B));
  }
  case Term::Kind::App: {
    TermRef F = abstractFree(T->fun(), Name, Bit, Depth);
    TermRef X = abstractFree(T->argTerm(), Name, Bit, Depth);
    if (F.get() == T->fun().get() && X.get() == T->argTerm().get())
      return T;
    return Term::mkApp(std::move(F), std::move(X));
  }
  default:
    return T;
  }
}

TermRef ac::hol::lambdaFree(const std::string &Name, TypeRef Ty,
                            const TermRef &T) {
  return Term::mkLam(Name, std::move(Ty),
                     abstractFree(T, Name, freeNameBit(Name), 0));
}
