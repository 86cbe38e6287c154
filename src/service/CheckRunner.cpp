//===- CheckRunner.cpp ----------------------------------------------------===//

#include "service/CheckRunner.h"

#include "core/AutoCorres.h"
#include "core/ResultCache.h"
#include "service/Client.h"
#include "support/Diagnostics.h"
#include "support/Log.h"
#include "support/ThreadPool.h"

using namespace ac::service;
using namespace ac::core;

CheckResponse ac::service::runCheck(const CheckRequest &Req,
                                    const CheckContext &Ctx) {
  ACOptions ACO;
  ACO.NoHeapAbs.insert(Req.NoHeapAbs.begin(), Req.NoHeapAbs.end());
  ACO.NoWordAbs.insert(Req.NoWordAbs.begin(), Req.NoWordAbs.end());
  ACO.Jobs = Ctx.Jobs ? Ctx.Jobs : support::ThreadPool::defaultJobs();
  ACO.SharedCache = Ctx.SharedCache;
  ACO.SharedPool = Ctx.SharedPool;
  ACO.TracePath = Ctx.TracePath;
  ACO.CertPath = Ctx.CertPath;
  ACO.CertDir = Ctx.CertDir;
  if (!Ctx.SharedCache)
    ACO.CacheDir = Req.CacheDir;

  CheckResponse Resp;
  ac::DiagEngine Diags;
  std::unique_ptr<AutoCorres> AC;
  try {
    AC = AutoCorres::run(Req.Source, Diags, ACO);
  } catch (const std::exception &E) {
    Resp = CheckResponse::error(ErrorCode::Internal,
                                std::string("pipeline threw: ") + E.what());
  }

  if (AC) {
    Resp.Ok = true;
    const ACStats &St = AC->stats();
    for (const std::string &Name : AC->order()) {
      const FuncOutput *FO = AC->func(Name);
      if (!FO)
        continue;
      FuncResult F;
      F.Name = Name;
      F.FinalKey = FO->finalKey();
      F.HeapLifted = FO->HeapLifted;
      F.WordAbstracted = FO->WordAbstracted;
      F.Render = AC->render(Name);
      F.Pipeline = FO->pipelineProp();
      if (Req.WantSpecs) {
        F.L1Spec = FO->l1Spec();
        F.L2Spec = FO->l2Spec();
        F.HLSpec = FO->hlSpec();
        F.WASpec = FO->waSpec();
      }
      Resp.Functions.push_back(std::move(F));
    }
    Resp.SourceLines = St.SourceLines;
    Resp.NumFunctions = St.NumFunctions;
    Resp.Jobs = St.Jobs;
    Resp.ParseSeconds = St.ParserSeconds;
    Resp.AbstractWallSeconds = St.AutoCorresWallSeconds;
    Resp.ParseCpuSeconds = St.ParserCpuSeconds;
    Resp.AbstractCpuSeconds = St.AutoCorresSeconds;
    Resp.CacheEnabled = St.CacheEnabled;
    Resp.CacheHits = St.CacheHits;
    Resp.CacheMisses = St.CacheMisses;
    Resp.CacheInvalidations = St.CacheInvalidations;
    Resp.CacheDroppedEntries = St.CacheDroppedEntries;
    Resp.CertsWritten = St.CertsWritten;
    Resp.CertClaims = St.CertClaims;
    Resp.CertSkipped = St.CertSkipped;
  } else if (Resp.Err == ErrorCode::None) {
    Resp = CheckResponse::error(ErrorCode::ParseError,
                                "translation failed");
  }
  for (const ac::Diagnostic &D : Diags.diagnostics())
    Resp.Diagnostics.push_back(D.str());
  Resp.TraceId = Req.TraceId;
  if (!Resp.Ok)
    ac::support::Log::error("check.failed",
                            {{"trace_id", Req.TraceId},
                             {"error", errorCodeName(Resp.Err)},
                             {"message", Resp.Message}});
  return Resp;
}

CheckResponse ac::service::runLocalCheck(const CheckRequest &Req) {
  CheckContext Ctx;
  Ctx.Jobs = Req.Jobs;
  return runCheck(Req, Ctx);
}

namespace {

/// Does the daemon's answer justify running the pipeline locally?
bool shouldFallBack(const CheckResponse &Resp) {
  switch (Resp.Err) {
  case ErrorCode::Busy:             // retries exhausted
  case ErrorCode::Draining:         // daemon is going away
  case ErrorCode::DeadlineExceeded: // local run gets unbounded time
  case ErrorCode::Internal:         // daemon-side state may be wedged
    return true;
  case ErrorCode::None:
  case ErrorCode::BadRequest: // the request itself is broken
  case ErrorCode::ParseError: // the *source* is broken; local == same
  case ErrorCode::AuthFailed: // wrong token is a config error; a local
                              // run would mask it and it won't heal
  case ErrorCode::Shed:       // overload policy refused the work; doing
                              // it locally would bypass quotas/shedding
    return false;
  }
  return false;
}

} // namespace

CheckResponse ac::service::checkWithFallback(const Endpoint &At,
                                             const std::string &Token,
                                             const CheckRequest &Req,
                                             bool &UsedFallback,
                                             std::string &Note) {
  UsedFallback = false;
  Note.clear();

  std::string Why, DialErr;
  Client C = Client::dial(At, Token, DialErr);
  if (!C.connected()) {
    // connectTcp() reports a refused token as a typed `auth_failed`
    // message; like the in-band answer, it is never degraded.
    if (DialErr.rfind(errorCodeName(ErrorCode::AuthFailed), 0) == 0)
      return CheckResponse::error(ErrorCode::AuthFailed, DialErr);
    Why = "daemon unreachable at " + At.Address +
          (DialErr.empty() ? "" : " (" + DialErr + ")");
  } else {
    CheckResponse Resp;
    std::string Err;
    if (!C.checkRetry(Req, Resp, Err)) {
      // Transport failure mid-request: the daemon died under us (or a
      // frame was torn). The connection is unusable; run locally.
      Why = "daemon connection failed: " + Err;
    } else if (shouldFallBack(Resp)) {
      Why = std::string("daemon answered `") + errorCodeName(Resp.Err) +
            "`" + (Resp.Message.empty() ? "" : ": " + Resp.Message);
    } else {
      return Resp; // served (ok, or a typed error a local run would repeat)
    }
  }

  UsedFallback = true;
  Note = Why + "; falling back to in-process run";
  return runLocalCheck(Req);
}
