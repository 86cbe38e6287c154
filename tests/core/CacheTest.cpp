//===- CacheTest.cpp - Abstraction-cache equivalence gate -------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The acceptance gate of the content-addressed abstraction cache
/// (core/ResultCache.h): runs with the cache — cold, warm, and after a
/// source edit — must be byte-identical to runs without it, at every job
/// count. Invalidation must flow up the call graph: editing one function
/// recomputes exactly it and its transitive callers, while untouched
/// functions replay as hits. A damaged, foreign or stale entry file must
/// degrade to a recompute, never to wrong output, and processes or
/// threads sharing one directory must never lose each other's entries.
///
//===----------------------------------------------------------------------===//

#include "core/AutoCorres.h"
#include "core/ResultCache.h"
#include "support/Fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace ac;

namespace {

/// A five-function program with a diamond-free chain top -> mid -> leaf,
/// an unrelated pure function, and an unrelated pointer function (so the
/// heap-lifting path is exercised too).
///
///   top --> mid --> leaf        lone        bump
///     \------------^
const char *chainSource(const char *LeafExpr) {
  static std::string Buf;
  Buf = std::string("unsigned int leaf(unsigned int x) { return ") +
        LeafExpr +
        "; }\n"
        "unsigned int mid(unsigned int x) { return leaf(x) * 2u; }\n"
        "unsigned int top(unsigned int x) { return mid(x) + leaf(x); }\n"
        "unsigned int lone(unsigned int a, unsigned int b) {\n"
        "  if (a < b) { return a; }\n"
        "  return b;\n"
        "}\n"
        "void bump(unsigned int *p) { *p = *p + 1u; }\n";
  return Buf.c_str();
}

/// Everything the equivalence gate compares, per function, using the
/// accessors that are defined for both live and cache-replayed outputs.
struct Snapshot {
  std::vector<std::string> Names;
  std::vector<std::string> Rendered;
  std::vector<std::string> FinalKeys;
  std::vector<std::string> Pipelines;
  std::vector<std::string> Diags;
  core::ACStats Stats;
};

Snapshot runWith(const std::string &Src, const std::string &CacheDir,
                 unsigned Jobs = 1) {
  DiagEngine Diags;
  core::ACOptions Opts;
  Opts.Jobs = Jobs;
  Opts.CacheDir = CacheDir;
  auto AC = core::AutoCorres::run(Src, Diags, Opts);
  EXPECT_TRUE(AC) << Diags.str();
  Snapshot S;
  if (!AC)
    return S;
  for (const std::string &Name : AC->order()) {
    const core::FuncOutput *F = AC->func(Name);
    if (!F) {
      ADD_FAILURE() << "no output for " << Name;
      continue;
    }
    S.Names.push_back(Name);
    S.Rendered.push_back(AC->render(Name));
    S.FinalKeys.push_back(F->finalKey());
    S.Pipelines.push_back(F->pipelineProp());
  }
  for (const Diagnostic &D : Diags.diagnostics())
    S.Diags.push_back(D.str());
  S.Stats = AC->stats();
  return S;
}

void expectIdentical(const Snapshot &A, const Snapshot &B,
                     const std::string &What) {
  ASSERT_EQ(A.Names.size(), B.Names.size()) << What;
  for (size_t I = 0; I != A.Names.size(); ++I) {
    ASSERT_EQ(A.Names[I], B.Names[I]) << What;
    EXPECT_EQ(A.FinalKeys[I], B.FinalKeys[I])
        << What << ": finalKey diverged for " << A.Names[I];
    EXPECT_EQ(A.Rendered[I], B.Rendered[I])
        << What << ": rendered spec diverged for " << A.Names[I];
    EXPECT_EQ(A.Pipelines[I], B.Pipelines[I])
        << What << ": pipeline proposition diverged for " << A.Names[I];
  }
  EXPECT_EQ(A.Diags, B.Diags) << What << ": diagnostic stream diverged";
  // Table 5 output columns must not depend on cache warmth either.
  EXPECT_EQ(A.Stats.ACSpecLines, B.Stats.ACSpecLines) << What;
  EXPECT_EQ(A.Stats.ACTermSizeTotal, B.Stats.ACTermSizeTotal) << What;
}

/// Fresh empty directory under the test temp root.
class CacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    // The option-passed directory must govern regardless of the
    // environment the test runner happens to have.
    ::unsetenv("AC_CACHE");
    ::unsetenv("AC_CACHE_DIR");
    Dir = ::testing::TempDir() + "ac-cache-test/" +
          ::testing::UnitTest::GetInstance()
              ->current_test_info()
              ->name();
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  /// The entry file of function \p Name under \p Key.
  std::string entryPath(const std::string &Name, uint64_t Key) const {
    return Dir + "/accache-v" +
           std::to_string(core::ResultCache::FormatVersion) + "/" + Name +
           "/" + support::Fingerprint::hex(Key);
  }

  /// Every file under the entry tree, as paths relative to it.
  std::vector<std::string> entryFiles() const {
    std::vector<std::string> Out;
    std::string Root = Dir + "/accache-v" +
                       std::to_string(core::ResultCache::FormatVersion);
    std::error_code EC;
    for (auto It = std::filesystem::recursive_directory_iterator(Root, EC);
         !EC && It != std::filesystem::recursive_directory_iterator();
         It.increment(EC))
      if (It->is_regular_file())
        Out.push_back(
            std::filesystem::relative(It->path(), Root).string());
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  /// The keys a run over \p Src gives each function.
  std::map<std::string, uint64_t> keysOf(const std::string &Src) const {
    DiagEngine Diags;
    auto AC = core::AutoCorres::run(Src, Diags, core::ACOptions());
    EXPECT_TRUE(AC) << Diags.str();
    return core::computeFunctionKeys(AC->program(), {}, {});
  }

  std::string Dir;
};

} // namespace

TEST_F(CacheTest, ColdAndWarmMatchUncachedRun) {
  std::string Src = chainSource("x + 1u");
  Snapshot Ref = runWith(Src, /*CacheDir=*/"");
  ASSERT_EQ(Ref.Names.size(), 5u);
  EXPECT_FALSE(Ref.Stats.CacheEnabled);

  Snapshot Cold = runWith(Src, Dir);
  EXPECT_TRUE(Cold.Stats.CacheEnabled);
  EXPECT_EQ(Cold.Stats.CacheHits, 0u);
  EXPECT_EQ(Cold.Stats.CacheMisses, 5u);
  EXPECT_EQ(Cold.Stats.CacheInvalidations, 0u);
  expectIdentical(Ref, Cold, "uncached vs cold");
  // One immutable entry file per function, named by its key, and no
  // temp file left behind.
  std::vector<std::string> Want;
  for (const auto &[Name, Key] : keysOf(Src))
    Want.push_back(Name + "/" + support::Fingerprint::hex(Key));
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(entryFiles(), Want);

  Snapshot Warm = runWith(Src, Dir);
  EXPECT_EQ(Warm.Stats.CacheHits, 5u);
  EXPECT_EQ(Warm.Stats.CacheMisses, 0u);
  expectIdentical(Ref, Warm, "uncached vs warm");
}

TEST_F(CacheTest, InvalidationFlowsUpTheCallGraphOnly) {
  std::string Before = chainSource("x + 1u");
  std::string After = chainSource("x + 2u");

  Snapshot Cold = runWith(Before, Dir);
  ASSERT_EQ(Cold.Stats.CacheMisses, 5u);

  // Editing leaf must recompute leaf, mid and top (its transitive
  // callers) while lone and bump stay warm.
  Snapshot Edited = runWith(After, Dir);
  EXPECT_EQ(Edited.Stats.CacheHits, 2u);
  EXPECT_EQ(Edited.Stats.CacheMisses, 3u);
  EXPECT_EQ(Edited.Stats.CacheInvalidations, 3u);
  expectIdentical(runWith(After, /*CacheDir=*/""), Edited,
                  "uncached vs partially-invalidated");

  // The edited results are stored too: a second run is fully warm.
  Snapshot Warm = runWith(After, Dir);
  EXPECT_EQ(Warm.Stats.CacheHits, 5u);
  EXPECT_EQ(Warm.Stats.CacheMisses, 0u);

  // Reverting the edit (the A -> B -> A of an edit-and-undo session)
  // finds the original entries still on disk: entry files are keyed by
  // content, so the edit added entries beside them instead of replacing
  // them. Fully warm, nothing invalidated, byte-identical.
  Snapshot Back = runWith(Before, Dir);
  EXPECT_EQ(Back.Stats.CacheHits, 5u);
  EXPECT_EQ(Back.Stats.CacheMisses, 0u);
  EXPECT_EQ(Back.Stats.CacheInvalidations, 0u);
  expectIdentical(runWith(Before, /*CacheDir=*/""), Back,
                  "uncached vs reverted");
}

TEST_F(CacheTest, WarmReplayIsJobCountInvariant) {
  std::string Src = chainSource("x + 1u");
  Snapshot Ref = runWith(Src, /*CacheDir=*/"");

  // Populate at Jobs=4, replay at Jobs=1 and Jobs=4: identical output
  // and full hit coverage everywhere.
  Snapshot Cold4 = runWith(Src, Dir, /*Jobs=*/4);
  expectIdentical(Ref, Cold4, "uncached vs cold Jobs=4");

  Snapshot Warm1 = runWith(Src, Dir, /*Jobs=*/1);
  EXPECT_EQ(Warm1.Stats.CacheHits, 5u);
  expectIdentical(Ref, Warm1, "uncached vs warm Jobs=1");

  Snapshot Warm4 = runWith(Src, Dir, /*Jobs=*/4);
  EXPECT_EQ(Warm4.Stats.CacheHits, 5u);
  expectIdentical(Ref, Warm4, "uncached vs warm Jobs=4");
}

TEST_F(CacheTest, DamagedOrForeignEntryFilesAreCountedMisses) {
  std::string Src = chainSource("x + 1u");
  Snapshot Ref = runWith(Src, /*CacheDir=*/"");
  runWith(Src, Dir);
  std::map<std::string, uint64_t> Keys = keysOf(Src);

  auto readBytes = [](const std::string &P) {
    std::ifstream In(P, std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    return Buf.str();
  };
  auto writeBytes = [](const std::string &P, const std::string &Bytes) {
    std::ofstream Out(P, std::ios::binary | std::ios::trunc);
    Out << Bytes;
  };

  // Three kinds of damage on three functions: a truncated file (a torn
  // write), one flipped bit, and a foreign file (a valid entry of
  // another function copied over this one).
  std::string Leaf = entryPath("leaf", Keys.at("leaf"));
  std::string Lone = entryPath("lone", Keys.at("lone"));
  std::string Bump = entryPath("bump", Keys.at("bump"));
  std::string Bytes = readBytes(Leaf);
  writeBytes(Leaf, Bytes.substr(0, Bytes.size() / 2));
  Bytes = readBytes(Lone);
  Bytes[Bytes.size() / 3] ^= 0x01;
  writeBytes(Lone, Bytes);
  writeBytes(Bump, readBytes(entryPath("top", Keys.at("top"))));

  Snapshot Damaged = runWith(Src, Dir);
  EXPECT_EQ(Damaged.Stats.CacheDroppedEntries, 3u);
  EXPECT_EQ(Damaged.Stats.CacheHits, 2u);
  EXPECT_EQ(Damaged.Stats.CacheMisses, 3u);
  expectIdentical(Ref, Damaged, "uncached vs damaged entries");

  // The recompute overwrote the three files: warmth is restored and
  // this run met no damage.
  Snapshot Warm = runWith(Src, Dir);
  EXPECT_EQ(Warm.Stats.CacheHits, 5u);
  EXPECT_EQ(Warm.Stats.CacheDroppedEntries, 0u);
  expectIdentical(Ref, Warm, "uncached vs healed");
}

TEST_F(CacheTest, StaleSingleFileStoreIsIgnored) {
  // A directory last used by the single-file store (format v2) still
  // holds its accache-v2.txt. The entry tree never reads it: the run is
  // cold, meets no damage, and leaves the old file as it was.
  std::filesystem::create_directories(Dir);
  core::CachedFunc Old;
  Old.Key = 0x1234;
  Old.Name = "leaf";
  Old.Render = "stale render";
  const std::string Stale =
      "ACCACHE 2\n" + core::serializeCachedFunc(Old) + "garbage\n";
  {
    std::ofstream Out(Dir + "/accache-v2.txt", std::ios::binary);
    Out << Stale;
  }
  std::string Src = chainSource("x + 1u");
  Snapshot Run = runWith(Src, Dir);
  EXPECT_EQ(Run.Stats.CacheHits, 0u);
  EXPECT_EQ(Run.Stats.CacheMisses, 5u);
  EXPECT_EQ(Run.Stats.CacheInvalidations, 0u);
  EXPECT_EQ(Run.Stats.CacheDroppedEntries, 0u);
  expectIdentical(runWith(Src, /*CacheDir=*/""), Run,
                  "uncached vs stale-store");
  std::ifstream In(Dir + "/accache-v2.txt", std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Stale);
}

TEST_F(CacheTest, OptionChangesInvalidate) {
  std::string Src = chainSource("x + 1u");
  Snapshot Cold = runWith(Src, Dir);
  ASSERT_EQ(Cold.Stats.CacheMisses, 5u);

  // Turning off word abstraction for one function changes its key (and
  // its callers'), so those entries miss; the cache must never serve a
  // result computed under different options.
  DiagEngine Diags;
  core::ACOptions Opts;
  Opts.CacheDir = Dir;
  Opts.NoWordAbs.insert("leaf");
  auto AC = core::AutoCorres::run(Src, Diags, Opts);
  ASSERT_TRUE(AC) << Diags.str();
  EXPECT_GE(AC->stats().CacheMisses, 3u);
  EXPECT_EQ(AC->stats().CacheHits, 2u);
}

TEST_F(CacheTest, NonIdentifierNamesNeverBecomePaths) {
  // Only C identifiers name entry directories: anything else stays in
  // the memory tier and never reaches the file system.
  core::ResultCache C(Dir);
  core::CachedFunc E;
  E.Key = 0xE71;
  E.Name = "../escape";
  E.Render = "render";
  C.insert(E);
  EXPECT_NE(C.lookup("../escape", 0xE71), nullptr);
  EXPECT_TRUE(entryFiles().empty());
  EXPECT_FALSE(std::filesystem::exists(Dir + "/escape"));

  core::ResultCache Fresh(Dir);
  EXPECT_EQ(Fresh.lookup("../escape", 0xE71), nullptr);
  EXPECT_FALSE(Fresh.knowsFunction("../escape"));
}

//===----------------------------------------------------------------------===//
// Writers sharing one directory (write-through entry files)
//===----------------------------------------------------------------------===//

TEST_F(CacheTest, InstancesShareEntriesThroughTheDirectory) {
  // A is constructed first and B inserts afterwards: A still serves B's
  // entry (read from its file on a memory miss) and knows B's function.
  // Nothing is locked and nothing waits for a save.
  core::ResultCache A(Dir);
  {
    core::ResultCache B(Dir);
    core::CachedFunc E;
    E.Key = 0xB0B;
    E.Name = "from_b";
    E.Render = "render b";
    B.insert(std::move(E));
  }
  core::CachedFunc E;
  E.Key = 0xA11CE;
  E.Name = "from_a";
  E.Render = "render a";
  A.insert(std::move(E));
  EXPECT_TRUE(A.knowsFunction("from_b"));
  ASSERT_NE(A.lookup("from_b", 0xB0B), nullptr);
  EXPECT_EQ(A.lookup("from_b", 0xB0B)->Render, "render b");
  EXPECT_EQ(A.diskHits(), 1u);

  core::ResultCache Final(Dir);
  EXPECT_TRUE(Final.knowsFunction("from_a"));
  EXPECT_TRUE(Final.knowsFunction("from_b"));
  EXPECT_NE(Final.lookup("from_a", 0xA11CE), nullptr);
  EXPECT_NE(Final.lookup("from_b", 0xB0B), nullptr);
  EXPECT_EQ(Final.diskHits(), 2u);
  EXPECT_FALSE(std::filesystem::exists(Dir + "/accache.lock"))
      << "the directory store takes no lock";
}

TEST_F(CacheTest, EveryKeyOfANameStaysServable) {
  // Two writers computed `shared` under different keys (say the source
  // changed between their runs). Entry files are immutable and keyed by
  // content, so both stay on disk and both keys keep serving; the memory
  // tier still holds one entry per name.
  auto makeEntry = [](uint64_t Key) {
    core::CachedFunc E;
    E.Key = Key;
    E.Name = "shared";
    E.Render = "render " + std::to_string(Key);
    return E;
  };
  core::ResultCache A(Dir), B(Dir);
  A.insert(makeEntry(111));
  B.insert(makeEntry(222));

  core::ResultCache Final(Dir);
  EXPECT_TRUE(Final.knowsFunction("shared"));
  ASSERT_NE(Final.lookup("shared", 111), nullptr);
  EXPECT_EQ(Final.lookup("shared", 111)->Render, "render 111");
  ASSERT_NE(Final.lookup("shared", 222), nullptr);
  EXPECT_EQ(Final.lookup("shared", 222)->Render, "render 222");
  EXPECT_EQ(Final.size(), 1u) << "memory keeps one entry per name";
  EXPECT_EQ(Final.lookup("shared", 333), nullptr);
}

TEST_F(CacheTest, ConcurrentWritersLoseNoEntries) {
  // Two threads, each with its own instance per round, and two threads
  // sharing one instance, all write into one directory at once. Every
  // pair of threads also rewrites one common key each round, so
  // same-key writers race on the rename: temp names are per writer, and
  // the published file must always be one complete entry.
  constexpr int Rounds = 25;
  core::ResultCache Shared(Dir);
  auto makeEntry = [](const std::string &Name, uint64_t Key) {
    core::CachedFunc E;
    E.Key = Key;
    E.Name = Name;
    E.Render = "render " + Name;
    return E;
  };
  auto Writer = [&](unsigned Id, bool OwnInstance) {
    for (int R = 0; R != Rounds; ++R) {
      core::ResultCache Own(Dir);
      core::ResultCache &C = OwnInstance ? Own : Shared;
      std::string Name = "fn_" + std::to_string(Id) + "_" + std::to_string(R);
      C.insert(makeEntry(Name, Id * 1000u + static_cast<unsigned>(R) + 1));
      C.insert(makeEntry(OwnInstance ? "common_own" : "common_shared", 7));
    }
  };
  std::thread T1(Writer, 1, true), T2(Writer, 2, true);
  std::thread T3(Writer, 3, false), T4(Writer, 4, false);
  T1.join();
  T2.join();
  T3.join();
  T4.join();

  core::ResultCache Final(Dir);
  for (unsigned Id = 1; Id <= 4; ++Id)
    for (int R = 0; R != Rounds; ++R) {
      std::string Name = "fn_" + std::to_string(Id) + "_" + std::to_string(R);
      core::CachedFuncRef E =
          Final.lookup(Name, Id * 1000u + static_cast<unsigned>(R) + 1);
      ASSERT_NE(E, nullptr) << "lost entry of writer " << Id << " round "
                            << R;
      EXPECT_EQ(E->Render, "render " + Name);
    }
  EXPECT_NE(Final.lookup("common_own", 7), nullptr);
  EXPECT_NE(Final.lookup("common_shared", 7), nullptr);
  EXPECT_EQ(Final.corruptDropped(), 0u);
  for (const std::string &F : entryFiles())
    EXPECT_EQ(F.find(".tmp."), std::string::npos)
        << "temp file left behind: " << F;
}
