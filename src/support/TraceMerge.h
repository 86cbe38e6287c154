//===- TraceMerge.h - Fleet trace fragment merger ---------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Merges per-process Chrome trace fragments (each one Trace::exportJson
/// output, pulled over the wire with `trace_pull` or scraped from
/// --trace-dir files) into a single fleet trace: one pid lane per
/// process, labelled with the process's role via `process_name` metadata
/// events, with every fragment's timestamps rebased onto one timeline
/// using the wall-clock anchor each export embeds
/// (`otherData.anchorUnixUs`). Span ids and parent references are
/// process-unique by construction (`(pid << 32) | seq`), so events
/// merge without rewriting — a request's spans from the daemon that
/// served it and the cache store it consulted chain under one trace id.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SUPPORT_TRACEMERGE_H
#define AC_SUPPORT_TRACEMERGE_H

#include <string>
#include <vector>

namespace ac::support {

/// Merges \p Fragments (each a Chrome trace JSON document) into one.
/// Empty fragments are skipped. Returns false with \p Err set when a
/// fragment fails to parse; partial input never produces partial output.
bool mergeTraceFragments(const std::vector<std::string> &Fragments,
                         std::string &MergedJson, std::string &Err);

} // namespace ac::support

#endif // AC_SUPPORT_TRACEMERGE_H
