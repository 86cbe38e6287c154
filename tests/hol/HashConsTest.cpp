//===- HashConsTest.cpp - Hash-consing property suite ---------------------===//
//
// Randomized properties of the interned term/type representation
// (Term.h/Type.h/Intern.h):
//
//   * canonicity: building the same structure twice yields the same node
//     (pointer equality), and pointer equality holds *exactly* for full
//     structural identity — Lam display names and Free/Var types included;
//   * hash stability: node hashes are deterministic functions of the
//     structure termEq sees, so alpha-variant nodes hash alike;
//   * id uniqueness: intern ids never collide, across the term and the
//     type arena both;
//   * thread safety: 8 threads racing to intern the same and distinct
//     structures agree on canonical nodes and never duplicate ids
//     (scripts/tier1.sh replays this suite under ThreadSanitizer);
//   * free-name summaries: freeMask() covers every free name, and the
//     walks that skip on it (lambdaFree, substFree, occursFree) agree with
//     naive reference walks that do not.
//
// The generators are seeded PRNGs, so every run checks the same terms.
//
//===----------------------------------------------------------------------===//

#include "hol/Builder.h"
#include "hol/Term.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <thread>
#include <vector>

using namespace ac::hol;

namespace {

using Rng = std::mt19937_64;

unsigned pick(Rng &R, unsigned N) {
  return static_cast<unsigned>(R() % N);
}

TypeRef randomType(Rng &R, unsigned Depth) {
  switch (pick(R, Depth == 0 ? 5u : 7u)) {
  case 0:
    return natTy();
  case 1:
    return boolTy();
  case 2:
    return wordTy(8u << pick(R, 3));
  case 3:
    return intTy();
  case 4:
    return Type::var("'t" + std::to_string(pick(R, 3)));
  case 5:
    return funTy(randomType(R, Depth - 1), randomType(R, Depth - 1));
  default:
    return ptrTy(randomType(R, Depth - 1));
  }
}

/// A random term over a small grammar. Interning does not typecheck, so
/// the generator is free to build ill-typed applications — the properties
/// under test are purely structural.
TermRef randomTerm(Rng &R, unsigned Depth) {
  switch (pick(R, Depth == 0 ? 5u : 7u)) {
  case 0:
    return Term::mkConst("k" + std::to_string(pick(R, 4)), randomType(R, 1));
  case 1:
    return Term::mkFree("x" + std::to_string(pick(R, 4)), randomType(R, 1));
  case 2:
    return Term::mkVar("V" + std::to_string(pick(R, 3)), pick(R, 2),
                       randomType(R, 1));
  case 3:
    return Term::mkBound(pick(R, 3));
  case 4:
    return Term::mkNum(static_cast<Int128>(R() % 1000), randomType(R, 0));
  case 5:
    return Term::mkLam("v" + std::to_string(pick(R, 2)), randomType(R, 1),
                       randomTerm(R, Depth - 1));
  default:
    return Term::mkApp(randomTerm(R, Depth - 1), randomTerm(R, Depth - 1));
  }
}

/// Reference implementation of the interner's equality: *full* structural
/// identity, strictly finer than termEq — Lam display names and Free/Var
/// types distinguish terms here. Written independently of the interner so
/// the test does not assume what it is checking.
bool structIdentical(const TermRef &A, const TermRef &B) {
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case Term::Kind::Const:
  case Term::Kind::Free:
  case Term::Kind::Var:
    return A->name() == B->name() && A->index() == B->index() &&
           typeEq(A->type(), B->type());
  case Term::Kind::Bound:
    return A->index() == B->index();
  case Term::Kind::Num:
    return A->value() == B->value() && typeEq(A->type(), B->type());
  case Term::Kind::Lam:
    return A->name() == B->name() && typeEq(A->type(), B->type()) &&
           structIdentical(A->body(), B->body());
  case Term::Kind::App:
    return structIdentical(A->fun(), B->fun()) &&
           structIdentical(A->argTerm(), B->argTerm());
  }
  return false;
}

void collectIds(const TermRef &T, std::set<uint64_t> &TermIds,
                std::set<const Term *> &Seen) {
  if (!Seen.insert(T.get()).second)
    return;
  TermIds.insert(T->id());
  if (T->isLam())
    collectIds(T->body(), TermIds, Seen);
  if (T->isApp()) {
    collectIds(T->fun(), TermIds, Seen);
    collectIds(T->argTerm(), TermIds, Seen);
  }
}

/// Reference walks for the free-name operations: no summaries, no sharing,
/// every node rebuilt.
TermRef naiveAbstract(const TermRef &T, const std::string &Name,
                      unsigned Depth) {
  switch (T->kind()) {
  case Term::Kind::Free:
    return T->name() == Name ? Term::mkBound(Depth) : T;
  case Term::Kind::Bound:
    return T->index() >= Depth ? Term::mkBound(T->index() + 1) : T;
  case Term::Kind::Lam:
    return Term::mkLam(T->name(), T->type(),
                       naiveAbstract(T->body(), Name, Depth + 1));
  case Term::Kind::App:
    return Term::mkApp(naiveAbstract(T->fun(), Name, Depth),
                       naiveAbstract(T->argTerm(), Name, Depth));
  default:
    return T;
  }
}

TermRef naiveSubst(const TermRef &T, const std::string &Name,
                   const TermRef &Repl) {
  switch (T->kind()) {
  case Term::Kind::Free:
    return T->name() == Name ? Repl : T;
  case Term::Kind::Lam:
    return Term::mkLam(T->name(), T->type(),
                       naiveSubst(T->body(), Name, liftLoose(Repl, 1)));
  case Term::Kind::App:
    return Term::mkApp(naiveSubst(T->fun(), Name, Repl),
                       naiveSubst(T->argTerm(), Name, Repl));
  default:
    return T;
  }
}

bool naiveOccurs(const TermRef &T, const std::string &Name) {
  switch (T->kind()) {
  case Term::Kind::Free:
    return T->name() == Name;
  case Term::Kind::Lam:
    return naiveOccurs(T->body(), Name);
  case Term::Kind::App:
    return naiveOccurs(T->fun(), Name) || naiveOccurs(T->argTerm(), Name);
  default:
    return false;
  }
}

} // namespace

/// Replaying one generator twice must reproduce every node pointer: the
/// second build of each structure is a pure lookup.
TEST(HashCons, CanonicalRebuild) {
  Rng R1(0xac5eed01), R2(0xac5eed01);
  for (int I = 0; I != 2000; ++I) {
    TermRef A = randomTerm(R1, 4);
    TermRef B = randomTerm(R2, 4);
    ASSERT_EQ(A.get(), B.get()) << "iteration " << I;
    ASSERT_EQ(A->id(), B->id());
    ASSERT_EQ(A->hash(), B->hash());
  }
}

/// Pointer equality ⇔ full structural identity, over random cross pairs.
/// The ⇐ direction is the hash-consing guarantee; ⇒ is interner
/// correctness (no two distinct structures share a node).
TEST(HashCons, PointerEqIffStructIdentical) {
  Rng R(0xac5eed02);
  std::vector<TermRef> Pool;
  // Depth 2 keeps the structure space small enough that identical pairs
  // actually occur (the ⇐ direction needs witnesses).
  for (int I = 0; I != 400; ++I)
    Pool.push_back(randomTerm(R, 2));
  size_t IdenticalPairs = 0;
  for (size_t I = 0; I != Pool.size(); ++I)
    for (size_t J = I + 1; J != Pool.size(); ++J) {
      bool SameNode = Pool[I].get() == Pool[J].get();
      ASSERT_EQ(SameNode, structIdentical(Pool[I], Pool[J]))
          << "pair " << I << "," << J;
      IdenticalPairs += SameNode;
    }
  EXPECT_GT(IdenticalPairs, 0u) << "generator never repeated a structure; "
                                   "the iff's ⇐ direction went untested";
}

/// Pointer equality must imply termEq (the fast path the kernel relies
/// on), and node hashes must be stable under the structure termEq
/// ignores: alpha-variant lambdas and retyped frees hash alike.
TEST(HashCons, HashConsistentWithTermEq) {
  Rng R(0xac5eed03);
  for (int I = 0; I != 500; ++I) {
    TermRef Body = randomTerm(R, 3);
    TermRef L1 = Term::mkLam("a", natTy(), Body);
    TermRef L2 = Term::mkLam("b", natTy(), Body);
    // Different display names: distinct interned nodes, alpha-equal,
    // equal hashes (hash must refine termEq, not the interner equality).
    ASSERT_NE(L1.get(), L2.get());
    ASSERT_TRUE(termEq(L1, L2));
    ASSERT_EQ(L1->hash(), L2->hash());
  }
  // Free variables are compared by name only under termEq; their types
  // distinguish interned nodes but may not influence the hash.
  TermRef F1 = Term::mkFree("h", natTy());
  TermRef F2 = Term::mkFree("h", boolTy());
  ASSERT_NE(F1.get(), F2.get());
  ASSERT_EQ(F1->hash(), F2->hash());
}

/// Intern ids are unique across *both* arenas: no term ever shares an id
/// with another term, a type with another type, nor terms with types —
/// the simplifier memo and the rule index key on the raw id.
TEST(HashCons, NoCrossArenaIdCollisions) {
  Rng R(0xac5eed04);
  std::set<uint64_t> TermIds, TypeIds;
  std::set<const Term *> SeenTerms;
  size_t DistinctTerms = 0;
  {
    std::set<const Term *> Roots;
    for (int I = 0; I != 1000; ++I) {
      TermRef T = randomTerm(R, 4);
      if (Roots.insert(T.get()).second)
        collectIds(T, TermIds, SeenTerms);
    }
    DistinctTerms = SeenTerms.size();
  }
  ASSERT_EQ(TermIds.size(), DistinctTerms)
      << "two distinct term nodes share an intern id";
  ASSERT_EQ(TermIds.count(0), 0u) << "id 0 is reserved";

  std::set<const Type *> SeenTypes;
  for (int I = 0; I != 1000; ++I) {
    TypeRef Ty = randomType(R, 3);
    if (SeenTypes.insert(Ty.get()).second)
      TypeIds.insert(Ty->id());
  }
  ASSERT_EQ(TypeIds.size(), SeenTypes.size())
      << "two distinct type nodes share an intern id";
  ASSERT_EQ(TypeIds.count(0), 0u) << "id 0 is reserved";

  // The arenas draw from one process-wide counter, so the id sets are
  // disjoint.
  for (uint64_t Id : TypeIds)
    ASSERT_EQ(TermIds.count(Id), 0u)
        << "type id " << Id << " collides with a term id";
}

/// 8 threads interning the same generator output must agree on every
/// canonical pointer, while thread-private structures get globally unique
/// ids. Run under TSan this doubles as the concurrency gate for the
/// intern store's sharded locking.
TEST(HashCons, ConcurrentInternStress) {
  constexpr unsigned NThreads = 8;
  constexpr int NShared = 1500, NPrivate = 200;

  std::vector<std::vector<TermRef>> Shared(NThreads);
  std::vector<std::vector<TermRef>> Private(NThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NThreads; ++T)
    Threads.emplace_back([T, &Shared, &Private] {
      // Same seed in every thread: all 8 race to intern each structure.
      Rng RS(0xac5eed05);
      for (int I = 0; I != NShared; ++I)
        Shared[T].push_back(randomTerm(RS, 3));
      // Thread-specific frees: each thread also mints nodes nobody else
      // builds, exercising fresh-insertion against concurrent lookups.
      Rng RP(0xac5eed06 + T);
      for (int I = 0; I != NPrivate; ++I)
        Private[T].push_back(Term::mkApp(
            Term::mkFree("t" + std::to_string(T) + "_" + std::to_string(I),
                         natTy()),
            randomTerm(RP, 2)));
    });
  for (std::thread &Th : Threads)
    Th.join();

  for (unsigned T = 1; T != NThreads; ++T)
    for (int I = 0; I != NShared; ++I) {
      ASSERT_EQ(Shared[0][I].get(), Shared[T][I].get())
          << "thread " << T << " interned a duplicate at " << I;
      ASSERT_EQ(Shared[0][I]->id(), Shared[T][I]->id());
    }

  std::set<uint64_t> Ids;
  std::set<const Term *> Nodes;
  for (unsigned T = 0; T != NThreads; ++T)
    for (const TermRef &P : Private[T])
      if (Nodes.insert(P.get()).second)
        ASSERT_TRUE(Ids.insert(P->id()).second)
            << "concurrently interned nodes share id " << P->id();
}

/// The free-name summary is sound: every name freeVars finds has its bit
/// set on the root, and every bit set on the root belongs to one of them.
TEST(HashCons, FreeMaskCoversFreeVars) {
  Rng R(0xac5eed07);
  for (int I = 0; I != 2000; ++I) {
    TermRef T = randomTerm(R, 5);
    uint64_t Expected = 0;
    for (const std::string &N : freeVars(T))
      Expected |= freeNameBit(N);
    ASSERT_EQ(T->freeMask(), Expected) << "iteration " << I;
  }
}

/// The walks that skip subterms by freeMask() build exactly what the
/// naive rebuild-everything walks build. The names probed include ones
/// the generator uses (x0..x3) and ones it never does, and the random
/// replacements carry loose bounds so the lifting under binders and the
/// shift of loose bounds past the new binder are both exercised.
TEST(HashCons, MaskedWalksAgreeWithNaiveWalks) {
  Rng R(0xac5eed08);
  const char *Names[] = {"x0", "x1", "x2", "x3", "absent", "y"};
  for (int I = 0; I != 2000; ++I) {
    TermRef T = randomTerm(R, 5);
    TermRef Repl = randomTerm(R, 2);
    for (const char *N : Names) {
      ASSERT_EQ(occursFree(T, N), naiveOccurs(T, N))
          << "iteration " << I << " name " << N;
      ASSERT_EQ(substFree(T, N, Repl).get(), naiveSubst(T, N, Repl).get())
          << "iteration " << I << " name " << N;
      ASSERT_EQ(lambdaFree(N, natTy(), T).get(),
                Term::mkLam(N, natTy(), naiveAbstract(T, N, 0)).get())
          << "iteration " << I << " name " << N;
    }
  }
}

/// Substituting a name that does not occur returns the very same node and
/// interns nothing, however large the term — even when the name's bit
/// collides with a name that does occur.
TEST(HashCons, AbsentNameSubstIsFree) {
  Rng R(0xac5eed09);
  for (int I = 0; I != 500; ++I) {
    TermRef T = randomTerm(R, 6);
    // A replacement with a loose bound: lifting it under a binder would
    // intern new nodes, so a walk that did not skip would show here.
    TermRef Repl = Term::mkApp(Term::mkFree("r", natTy()),
                               Term::mkBound(static_cast<unsigned>(I)));
    size_t Before = internedTermCount();
    TermRef Out = substFree(T, "absent", Repl);
    ASSERT_EQ(Out.get(), T.get()) << "iteration " << I;
    ASSERT_EQ(internedTermCount(), Before) << "iteration " << I;
  }
}
