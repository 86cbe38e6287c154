//===- ResultCache.cpp ----------------------------------------------------===//

#include "core/ResultCache.h"

#include "core/CallGraph.h"
#include "simpl/PrintSimpl.h"
#include "support/FaultInject.h"
#include "support/Log.h"
#include "support/Trace.h"
#include "support/Fingerprint.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace ac;
using namespace ac::core;
using support::FaultSite;
using support::Fingerprint;

// Entry-write fault sites (docs/EXPERIMENTS.md has the inventory).
// `crash` and `bitflip` corrupt the *published* bytes — they prove the
// CRC recovery path; the other four fail the write cleanly and must
// publish nothing.
static const FaultSite FaultSaveOpen("cache.save.open");
static const FaultSite FaultSaveWrite("cache.save.write");
static const FaultSite FaultSaveFsync("cache.save.fsync");
static const FaultSite FaultSaveRename("cache.save.rename");
static const FaultSite FaultSaveCrash("cache.save.crash");
static const FaultSite FaultSaveBitflip("cache.save.bitflip");

//===----------------------------------------------------------------------===//
// Directory resolution
//===----------------------------------------------------------------------===//

std::string ResultCache::resolveDir(const std::string &OptDir) {
  const char *Toggle = std::getenv("AC_CACHE");
  if (Toggle && std::string(Toggle) == "0")
    return "";
  if (!OptDir.empty())
    return OptDir;
  const char *EnvDir = std::getenv("AC_CACHE_DIR");
  if (EnvDir && *EnvDir)
    return EnvDir;
  if (Toggle && std::string(Toggle) == "1")
    return ".ac-cache";
  return "";
}

//===----------------------------------------------------------------------===//
// The entry format. Line-framed text with length-prefixed blobs, ending
// with a CRC-32 of the serialized body, so a torn write, a truncated
// file or a flipped bit is caught when the entry is read.
//===----------------------------------------------------------------------===//

namespace {

// Strict cursor-based parsing over the whole file image. Strictness is
// deliberate: the only writer is writeEntry below, so any deviation from
// its exact byte layout *is* corruption, and failing fast makes the
// entry a miss (the CRC would reject it anyway).

bool eatLit(const std::string &D, size_t &P, std::string_view Lit) {
  if (D.size() - P < Lit.size() || D.compare(P, Lit.size(), Lit) != 0)
    return false;
  P += Lit.size();
  return true;
}

/// A non-empty run of chars up to the next ' ' or '\n' (exclusive).
bool readWord(const std::string &D, size_t &P, std::string &Out) {
  size_t Start = P;
  while (P < D.size() && D[P] != ' ' && D[P] != '\n')
    ++P;
  if (P == Start)
    return false;
  Out.assign(D, Start, P - Start);
  return true;
}

bool readNum(const std::string &D, size_t &P, uint64_t &V) {
  size_t Start = P;
  V = 0;
  while (P < D.size() && D[P] >= '0' && D[P] <= '9') {
    if (V > (UINT64_MAX - 9) / 10)
      return false;
    V = V * 10 + static_cast<uint64_t>(D[P] - '0');
    ++P;
  }
  return P != Start;
}

/// "blob <len>\n<raw bytes>\n"; false on any mismatch or if \p len
/// overruns the image (truncated file).
bool readBlobAt(const std::string &D, size_t &P, std::string &Out) {
  uint64_t Len;
  if (!eatLit(D, P, "blob ") || !readNum(D, P, Len) || !eatLit(D, P, "\n"))
    return false;
  if (Len > D.size() - P)
    return false;
  Out.assign(D, P, Len);
  P += Len;
  return eatLit(D, P, "\n");
}

void writeBlob(std::ostream &Out, const std::string &S) {
  Out << "blob " << S.size() << "\n" << S << "\n";
}

/// Parses one entry whose "entry " keyword starts at \p P. On success
/// fills \p E, advances \p P past the trailing "end\n", and guarantees
/// the body bytes match the stored CRC. On failure \p P is unspecified.
bool parseEntryAt(const std::string &D, size_t &P, CachedFunc &E) {
  size_t Body = P;
  std::string Tok;
  if (!eatLit(D, P, "entry ") || !readWord(D, P, Tok) ||
      !Fingerprint::parseHex(Tok, E.Key) || !eatLit(D, P, "\n"))
    return false;
  if (!eatLit(D, P, "name ") || !readWord(D, P, E.Name) ||
      !eatLit(D, P, "\n"))
    return false;
  uint64_t HL, WAE, WA;
  if (!eatLit(D, P, "flags ") || !readNum(D, P, HL) || HL > 1 ||
      !eatLit(D, P, " ") || !readNum(D, P, WAE) || WAE > 1 ||
      !eatLit(D, P, " ") || !readNum(D, P, WA) || WA > 1 ||
      !eatLit(D, P, "\n"))
    return false;
  E.HeapLifted = HL != 0;
  E.WAEngineAbstracted = WAE != 0;
  E.WordAbstracted = WA != 0;
  uint64_t N;
  if (!eatLit(D, P, "args ") || !readNum(D, P, N) || N > 4096)
    return false;
  E.ArgNames.resize(N);
  for (std::string &A : E.ArgNames)
    if (!eatLit(D, P, " ") || !readWord(D, P, A))
      return false;
  if (!eatLit(D, P, "\n"))
    return false;
  uint64_t SL, TS;
  if (!eatLit(D, P, "stat ") || !readNum(D, P, SL) || SL > 0xffffffffu ||
      !eatLit(D, P, " ") || !readNum(D, P, TS) || TS > 0xffffffffu ||
      !eatLit(D, P, "\n"))
    return false;
  E.SpecLines = static_cast<unsigned>(SL);
  E.TermSize = static_cast<unsigned>(TS);
  if (!eatLit(D, P, "notes ") || !readNum(D, P, N) || N > 4096 ||
      !eatLit(D, P, "\n"))
    return false;
  E.Notes.resize(N);
  for (std::string &Note : E.Notes)
    if (!readBlobAt(D, P, Note))
      return false;
  for (std::string *S : {&E.Render, &E.L1Spec, &E.L2Spec, &E.HLSpec,
                         &E.WASpec, &E.PipelineProp})
    if (!readBlobAt(D, P, *S))
      return false;
  uint32_t Want;
  size_t BodyEnd = P;
  if (!eatLit(D, P, "crc ") || !readWord(D, P, Tok) ||
      !support::parseCrcHex(Tok, Want) || !eatLit(D, P, "\nend\n"))
    return false;
  return support::crc32(D.data() + Body, BodyEnd - Body) == Want;
}

/// Serializes \p E followed by the CRC-32 of exactly those bytes.
void writeEntry(std::ostream &Final, const CachedFunc &E) {
  std::ostringstream Out;
  Out << "entry " << Fingerprint::hex(E.Key) << "\n";
  Out << "name " << E.Name << "\n";
  Out << "flags " << (E.HeapLifted ? 1 : 0) << " "
      << (E.WAEngineAbstracted ? 1 : 0) << " "
      << (E.WordAbstracted ? 1 : 0) << "\n";
  Out << "args " << E.ArgNames.size();
  for (const std::string &A : E.ArgNames)
    Out << " " << A;
  Out << "\n";
  Out << "stat " << E.SpecLines << " " << E.TermSize << "\n";
  Out << "notes " << E.Notes.size() << "\n";
  for (const std::string &Note : E.Notes)
    writeBlob(Out, Note);
  for (const std::string *S : {&E.Render, &E.L1Spec, &E.L2Spec, &E.HLSpec,
                               &E.WASpec, &E.PipelineProp})
    writeBlob(Out, *S);
  std::string Body = Out.str();
  Final << Body << "crc " << support::crcHex(support::crc32(Body))
        << "\nend\n";
}

/// Parses one whole entry file, rejecting trailing bytes and any CRC
/// mismatch (torn write, truncation, bit flip).
bool parseCachedFunc(const std::string &Blob, CachedFunc &Out) {
  size_t P = 0;
  return parseEntryAt(Blob, P, Out) && P == Blob.size();
}

} // namespace

std::string core::serializeCachedFunc(const CachedFunc &E) {
  std::ostringstream Out;
  writeEntry(Out, E);
  return Out.str();
}

//===----------------------------------------------------------------------===//
// The entry tree
//===----------------------------------------------------------------------===//

namespace {

/// Function names become path components, so only C identifiers
/// qualify: no separator, no "..", no empty component.
bool pathSafeName(const std::string &Name) {
  if (Name.empty() || (Name[0] >= '0' && Name[0] <= '9'))
    return false;
  for (char C : Name)
    if (!((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
          (C >= '0' && C <= '9') || C == '_'))
      return false;
  return true;
}

/// The root of this format version's entry tree. A version bump moves
/// every entry out of sight; older roots (and v2's single
/// `accache-v2.txt` file) are never read.
std::string storeRoot(const std::string &Dir) {
  return Dir + "/accache-v" + std::to_string(ResultCache::FormatVersion);
}

/// False when the file is absent or unreadable (a plain miss).
bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return !In.bad();
}

/// Temp-file names must differ between every concurrent writer of one
/// key: other processes (the pid) and other threads or instances of
/// this one (the counter).
std::atomic<uint64_t> TmpSeq{0};

} // namespace

std::string ResultCache::entryPath(const std::string &Name,
                                   uint64_t Key) const {
  return storeRoot(Dir) + "/" + Name + "/" + Fingerprint::hex(Key);
}

CachedFuncRef ResultCache::lookup(const std::string &Name,
                                  uint64_t Key) const {
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Entries.find(Key);
    if (It != Entries.end())
      return It->second;
  }
  if (Dir.empty() || !pathSafeName(Name))
    return nullptr;
  // The file read runs outside the mutex: a slow disk must not serialize
  // concurrent memory hits.
  std::string Path = entryPath(Name, Key);
  std::string Blob;
  if (!readFile(Path, Blob))
    return nullptr; // no entry file: a plain miss
  CachedFunc E;
  if (!parseCachedFunc(Blob, E) || E.Key != Key || E.Name != Name) {
    {
      std::lock_guard<std::mutex> L(M);
      ++CorruptDropped;
    }
    // "dropped" is load-bearing: operators (and tier-1) grep for it.
    support::Log::warn("cache.entry_dropped",
                       {{"path", Path},
                        {"msg", "dropped damaged cache entry; the function "
                                "re-verifies"}});
    return nullptr;
  }
  auto Ref = std::make_shared<const CachedFunc>(std::move(E));
  {
    std::lock_guard<std::mutex> L(M);
    ++DiskHits;
    auto It = KnownNames.find(Name);
    if (It != KnownNames.end() && It->second != Key)
      Entries.erase(It->second);
    KnownNames[Name] = Key;
    Entries[Key] = Ref; // promote: next time it is a memory hit
  }
  return Ref;
}

size_t ResultCache::diskHits() const {
  std::lock_guard<std::mutex> L(M);
  return DiskHits;
}

bool ResultCache::knowsFunction(const std::string &Name) const {
  {
    std::lock_guard<std::mutex> L(M);
    if (KnownNames.count(Name))
      return true;
  }
  if (Dir.empty() || !pathSafeName(Name))
    return false;
  std::error_code EC;
  return std::filesystem::is_directory(storeRoot(Dir) + "/" + Name, EC);
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> L(M);
  return Entries.size();
}

size_t ResultCache::corruptDropped() const {
  std::lock_guard<std::mutex> L(M);
  return CorruptDropped;
}

void ResultCache::insert(CachedFunc E) {
  CachedFuncRef Ref;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = KnownNames.find(E.Name);
    if (It != KnownNames.end() && It->second != E.Key)
      Entries.erase(It->second); // superseded: the inputs changed
    KnownNames[E.Name] = E.Key;
    uint64_t Key = E.Key;
    Ref = std::make_shared<const CachedFunc>(std::move(E));
    Entries[Key] = Ref;
  }
  // Write-through, outside the mutex (file I/O); best-effort.
  if (!Dir.empty() && pathSafeName(Ref->Name))
    (void)writeEntryFile(*Ref);
}

bool ResultCache::writeEntryFile(const CachedFunc &E) const {
  AC_SPAN("cache.save");
  std::string Image = serializeCachedFunc(E);

  // cache.save.crash: a torn image lands on the *published* path — the
  // state a power cut leaves on a filesystem that reordered data and
  // rename journal entries. The next lookup's CRC check must cope.
  bool Torn = FaultSaveCrash.fire();
  if (Torn)
    Image.resize(Image.size() - Image.size() / 3);
  // cache.save.bitflip: silent single-bit corruption. The write itself
  // reports success; the *next lookup* must catch the entry by CRC.
  if (FaultSaveBitflip.fire() && !Image.empty())
    Image[Image.size() / 2] ^= 0x20;

  if (FaultSaveOpen.fire())
    return false;
  std::string Final = entryPath(E.Name, E.Key);
  std::error_code EC;
  std::filesystem::create_directories(storeRoot(Dir) + "/" + E.Name, EC);
  std::string Tmp = Final + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(TmpSeq.fetch_add(1));
  int FD = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (FD < 0)
    return false;
  auto Fail = [&] {
    ::close(FD);
    std::remove(Tmp.c_str());
    return false;
  };
  if (FaultSaveWrite.fire()) {
    // Partial write then failure: the temp file is abandoned and
    // nothing is published.
    (void)!::write(FD, Image.data(), Image.size() / 2);
    return Fail();
  }
  const char *Ptr = Image.data();
  size_t Left = Image.size();
  while (Left) {
    ssize_t N = ::write(FD, Ptr, Left);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Fail();
    }
    Ptr += N;
    Left -= static_cast<size_t>(N);
  }
  // fsync before rename: otherwise the rename can become durable while
  // the data is not — exactly the torn-file state the CRC check exists
  // for, but not one we should manufacture ourselves.
  if (FaultSaveFsync.fire() || ::fsync(FD) != 0)
    return Fail();
  ::close(FD);
  // rename() replaces atomically: a concurrent reader sees the old file
  // or the new one, never a mix, and two writers of one key both land
  // complete (identical) images.
  if (FaultSaveRename.fire() ||
      std::rename(Tmp.c_str(), Final.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  // A torn image did land (that is the point of the site), but the
  // write as a whole did not complete normally.
  return !Torn;
}

//===----------------------------------------------------------------------===//
// Fingerprinting
//===----------------------------------------------------------------------===//

namespace {

std::string typeName(const hol::TypeRef &T) {
  return T ? hol::typeStr(T) : "<void>";
}

/// Everything program-wide that shapes rendered output beyond a single
/// function's own body: record layouts (globals, structs, lifted_globals)
/// and the heap-type list that drives the split-heap field generation.
/// Per-function `<f>_state` records are hashed with their function.
uint64_t programSalt(const simpl::SimplProgram &Prog) {
  Fingerprint FP;
  FP.u32(ResultCache::FormatVersion);
  for (const auto &[Name, RI] : Prog.Records.all()) {
    if (Name.size() > 6 && Name.rfind("_state") == Name.size() - 6)
      continue;
    FP.str(Name);
    FP.u64(RI.Fields.size());
    for (const auto &[FName, FTy] : RI.Fields) {
      FP.str(FName);
      FP.str(typeName(FTy));
    }
  }
  FP.u64(Prog.HeapTypes.size());
  for (const hol::TypeRef &T : Prog.HeapTypes)
    FP.str(typeName(T));
  return FP.digest();
}

/// One function's own contribution: signature, locals (they shape the
/// Simpl state record), options, and the rendered Simpl body.
void hashFunction(Fingerprint &FP, const simpl::SimplFunc &F,
                  bool NoHL, bool NoWA) {
  FP.str(F.Name);
  FP.boolean(NoHL);
  FP.boolean(NoWA);
  FP.boolean(F.IsRecursive);
  FP.u64(F.Params.size());
  for (const auto &[Name, Ty] : F.Params) {
    FP.str(Name);
    FP.str(typeName(Ty));
  }
  FP.u64(F.Locals.size());
  for (const auto &[Name, Ty] : F.Locals) {
    FP.str(Name);
    FP.str(typeName(Ty));
  }
  FP.str(typeName(F.RetTy));
  FP.str(simpl::printSimplFunc(F));
}

} // namespace

std::map<std::string, uint64_t>
core::computeFunctionKeys(const simpl::SimplProgram &Prog,
                          const std::set<std::string> &NoHeapAbs,
                          const std::set<std::string> &NoWordAbs) {
  uint64_t Salt = programSalt(Prog);
  CallGraphSchedule Sched = buildCallGraphSchedule(Prog);

  std::map<std::string, size_t> SCCOf;
  for (size_t I = 0; I != Sched.SCCs.size(); ++I)
    for (const std::string &Name : Sched.SCCs[I])
      SCCOf.emplace(Name, I);

  std::map<std::string, uint64_t> Keys;
  // Callee-first topological order: external callee keys always exist.
  for (size_t I = 0; I != Sched.SCCs.size(); ++I) {
    Fingerprint FP(Salt);
    for (const std::string &Name : Sched.SCCs[I]) {
      const simpl::SimplFunc *F = Prog.function(Name);
      hashFunction(FP, *F, NoHeapAbs.count(Name) != 0,
                   NoWordAbs.count(Name) != 0);
      for (const std::string &Callee : calleesOf(Prog, *F)) {
        if (SCCOf.at(Callee) == I)
          continue; // intra-SCC: the member bodies above cover it
        FP.str(Callee);
        FP.u64(Keys.at(Callee));
      }
    }
    uint64_t SCCKey = FP.digest();
    for (const std::string &Name : Sched.SCCs[I]) {
      Fingerprint MF(SCCKey);
      MF.str(Name);
      Keys[Name] = MF.digest();
    }
  }
  return Keys;
}
