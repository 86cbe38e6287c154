//===- ResultCache.h - On-disk abstraction cache ----------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed cache of per-function pipeline results.
/// In an interactive verification workflow only a handful of functions
/// change between runs, so the driver fingerprints every function's
/// pipeline *inputs* — its Simpl body and signature, the per-function
/// options that affect output, and (transitively) its callees'
/// fingerprints, so invalidation flows up the call graph — and skips the
/// whole L1 -> L2 -> HL -> WA chain for functions whose fingerprint has a
/// cached entry. Cached output is bit-identical to a cold run at any job
/// count; the golden-spec snapshot suite and the cache-equivalence test
/// are the enforcing oracles.
///
/// On disk each entry is one file of length-prefixed text under a
/// versioned root in the cache directory. Corrupt, truncated, or
/// version-mismatched content is treated as a miss — the cache can
/// always be deleted.
/// What a cached entry stores is the *rendered* artefacts (final spec,
/// per-phase specs, composed-theorem proposition, diagnostics) plus the
/// result signature callers need (heap-lifted / word-abstracted flags);
/// the in-memory term and theorem objects are not reconstructed, so a
/// cache-hit FuncOutput serves rendering and statistics, not further
/// term-level processing.
///
//===----------------------------------------------------------------------===//

#ifndef AC_CORE_RESULTCACHE_H
#define AC_CORE_RESULTCACHE_H

#include "simpl/Program.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace ac::core {

/// One cached per-function pipeline result.
struct CachedFunc {
  uint64_t Key = 0;
  std::string Name;
  /// Result signature (what call sites in other functions observe).
  bool HeapLifted = false;         ///< HL engine lifted the function
  bool WAEngineAbstracted = false; ///< WA engine produced an abstraction
  /// Driver-level selection: the WA result was kept as the final body
  /// (can be false while WAEngineAbstracted is true, Sec 3.2).
  bool WordAbstracted = false;
  std::vector<std::string> ArgNames;
  /// Rendered artefacts, byte-identical to a cold run.
  std::string Render;       ///< AutoCorres::render() output
  std::string L1Spec;       ///< printTerm of the L1 term
  std::string L2Spec;       ///< printTerm of the applied L2 body
  std::string HLSpec;       ///< empty when not heap-lifted
  std::string WASpec;       ///< empty when not word-abstracted
  std::string PipelineProp; ///< printTerm of the composed theorem's prop
  /// Per-function driver notes, replayed verbatim on a hit so the merged
  /// diagnostic stream matches a cold run.
  std::vector<std::string> Notes;
  /// Table 5 contributions of the final body.
  unsigned SpecLines = 0;
  unsigned TermSize = 0;
};

/// A shared, immutable cached entry. Lookups hand out shared ownership so
/// a concurrent insert/eviction (the daemon runs sessions in parallel
/// against one cache) can never invalidate an entry a reader still holds.
using CachedFuncRef = std::shared_ptr<const CachedFunc>;

/// Serializes one entry: the whole content of one entry file, CRC
/// trailer included.
std::string serializeCachedFunc(const CachedFunc &E);

/// The store: a memory tier in front of an optional directory of entry
/// files. Fully thread-safe — the verification daemon keeps one
/// long-lived instance per cache directory and runs concurrent
/// abstraction sessions against it; the CLI path constructs one per run.
///
/// Memory tier: one entry per function name. A recompute evicts the
/// superseded entry, so daemon memory is bounded by the number of names.
///
/// Disk tier (non-empty directory): immutable, content-addressed entry
/// files at `DIR/accache-v3/<function name>/<16-hex key>`, each holding
/// one serializeCachedFunc blob. insert() writes the file through at
/// once (temp file with a per-writer unique name, fsync, rename), so
/// processes sharing a directory never lock, never merge and never
/// lose an entry, and a killed process keeps everything it computed.
/// lookup() reads the file on a memory miss. A damaged or foreign file
/// (bad CRC, truncation, another key's bytes) is a miss that is counted
/// (corruptDropped()) and warned about; the recompute overwrites it.
/// Names that are not C identifiers are never turned into paths: their
/// entries stay memory-only.
class ResultCache {
public:
  /// Bump when CachedFunc gains fields or the key derivation changes:
  /// entries then live under a new `accache-vN` root, and older ones are
  /// never read (stale == miss).
  /// v3: one entry file per (name, key) under a directory tree.
  static constexpr unsigned FormatVersion = 3;

  /// A cache over the entry tree under \p Dir (created on first write).
  /// An empty \p Dir makes a memory-only cache.
  explicit ResultCache(std::string Dir) : Dir(std::move(Dir)) {}

  /// The entry for function \p Name under \p Key, or null (miss). A
  /// memory miss reads the entry file (outside the cache mutex, so a
  /// disk read never stalls concurrent memory hits) and promotes a
  /// disk hit into the memory tier.
  CachedFuncRef lookup(const std::string &Name, uint64_t Key) const;

  /// Entries served from the directory after a memory miss.
  size_t diskHits() const;

  /// True if function \p Name is known in memory or has an entry
  /// directory — a miss for a known name is an invalidation, not a
  /// first sight, whichever process computed the earlier entry.
  bool knowsFunction(const std::string &Name) const;

  /// Records a freshly computed result in memory (evicting the name's
  /// superseded entry) and writes its entry file through. The write is
  /// best-effort: a failure only costs warmth.
  void insert(CachedFunc E);

  const std::string &dir() const { return Dir; }
  /// Entries in the memory tier.
  size_t size() const;

  /// Damaged or foreign entry files met by this instance's lookups, over
  /// its lifetime. Zero on a healthy cache.
  size_t corruptDropped() const;

  /// Resolves the effective cache directory: AC_CACHE=0 force-disables;
  /// otherwise \p OptDir, else $AC_CACHE_DIR, else ".ac-cache" when
  /// AC_CACHE=1. Empty result means the cache is disabled.
  static std::string resolveDir(const std::string &OptDir);

private:
  /// Writes \p E's entry file; false on any I/O failure.
  bool writeEntryFile(const CachedFunc &E) const;
  std::string entryPath(const std::string &Name, uint64_t Key) const;

  std::string Dir;
  /// Mutable: a const lookup() promotes disk hits into the memory tier
  /// — logically read-only caching.
  mutable std::map<uint64_t, CachedFuncRef> Entries;
  /// Name -> current key, for eviction and invalidation accounting.
  mutable std::map<std::string, uint64_t> KnownNames;
  mutable size_t CorruptDropped = 0;
  mutable size_t DiskHits = 0;
  mutable std::mutex M;
};

/// Computes every function's content fingerprint, callee-first. The key
/// covers the Simpl body and signature, the per-function NoHeapAbs /
/// NoWordAbs options, a whole-program salt (record layouts and heap types,
/// which shape the lifted_globals state), and the keys of all callees —
/// mutating one function therefore re-keys exactly that function and its
/// transitive callers. Mutually recursive functions share an SCC-level
/// fingerprint, salted per member.
std::map<std::string, uint64_t>
computeFunctionKeys(const simpl::SimplProgram &Prog,
                    const std::set<std::string> &NoHeapAbs,
                    const std::set<std::string> &NoWordAbs);

} // namespace ac::core

#endif // AC_CORE_RESULTCACHE_H
