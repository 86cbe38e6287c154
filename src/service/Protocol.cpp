//===- Protocol.cpp -------------------------------------------------------===//

#include "service/Protocol.h"

#include <atomic>
#include <fstream>

#include <unistd.h>

using namespace ac::service;
using ac::support::Json;

bool ac::service::constantTimeEqual(const std::string &A,
                                    const std::string &B) {
  // Length mismatch leaks only the length, which the framing exposes
  // anyway. Always scan all of A so timing is independent of content.
  volatile unsigned char Acc = A.size() == B.size() ? 0 : 1;
  for (size_t I = 0; I != A.size(); ++I) {
    unsigned char X = static_cast<unsigned char>(A[I]);
    unsigned char Y =
        static_cast<unsigned char>(B.empty() ? 0 : B[I % B.size()]);
    Acc = Acc | static_cast<unsigned char>(X ^ Y);
  }
  return Acc == 0 && A.size() == B.size();
}

bool ac::service::readTokenFile(const std::string &Path,
                                std::string &Token) {
  std::ifstream In(Path, std::ios::binary);
  if (!In.good())
    return false;
  std::getline(In, Token);
  while (!Token.empty() &&
         (Token.back() == '\n' || Token.back() == '\r'))
    Token.pop_back();
  return !Token.empty();
}

bool ac::service::pathSafeTraceId(const std::string &Id) {
  if (Id.empty() || Id.size() > 128)
    return false;
  auto Alnum = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9');
  };
  if (!Alnum(Id[0]))
    return false;
  for (char C : Id)
    if (!Alnum(C) && C != '.' && C != '_' && C != '-')
      return false;
  return true;
}

std::string ac::service::mintTraceId(const char *Prefix) {
  static std::atomic<uint64_t> Seq{0};
  return std::string(Prefix) + "-" + std::to_string(getpid()) + "-" +
         std::to_string(Seq.fetch_add(1, std::memory_order_relaxed) + 1);
}

const char *ac::service::errorCodeName(ErrorCode E) {
  switch (E) {
  case ErrorCode::None:
    return "none";
  case ErrorCode::Busy:
    return "busy";
  case ErrorCode::Draining:
    return "draining";
  case ErrorCode::BadRequest:
    return "bad_request";
  case ErrorCode::ParseError:
    return "parse_error";
  case ErrorCode::Internal:
    return "internal";
  case ErrorCode::DeadlineExceeded:
    return "deadline_exceeded";
  case ErrorCode::AuthFailed:
    return "auth_failed";
  case ErrorCode::Shed:
    return "shed";
  }
  return "internal";
}

const char *ac::service::priorityName(Priority P) {
  return P == Priority::Bulk ? "bulk" : "interactive";
}

ErrorCode ac::service::errorCodeFromName(const std::string &Name) {
  if (Name == "none")
    return ErrorCode::None;
  if (Name == "busy")
    return ErrorCode::Busy;
  if (Name == "draining")
    return ErrorCode::Draining;
  if (Name == "bad_request")
    return ErrorCode::BadRequest;
  if (Name == "parse_error")
    return ErrorCode::ParseError;
  if (Name == "deadline_exceeded")
    return ErrorCode::DeadlineExceeded;
  if (Name == "auth_failed")
    return ErrorCode::AuthFailed;
  if (Name == "shed")
    return ErrorCode::Shed;
  return ErrorCode::Internal;
}

//===----------------------------------------------------------------------===//
// CheckRequest
//===----------------------------------------------------------------------===//

Json CheckRequest::toJson() const {
  Json J = Json::object();
  J.set("v", ProtocolVersion);
  J.set("op", "check");
  J.set("source", Source);
  Json Opts = Json::object();
  if (!NoHeapAbs.empty()) {
    Json A = Json::array();
    for (const std::string &S : NoHeapAbs)
      A.push(S);
    Opts.set("no_heap_abs", std::move(A));
  }
  if (!NoWordAbs.empty()) {
    Json A = Json::array();
    for (const std::string &S : NoWordAbs)
      A.push(S);
    Opts.set("no_word_abs", std::move(A));
  }
  if (Jobs)
    Opts.set("jobs", Jobs);
  if (!CacheDir.empty())
    Opts.set("cache_dir", CacheDir);
  if (Opts.size())
    J.set("options", std::move(Opts));
  if (WantSpecs)
    J.set("want_specs", true);
  if (DebugDelayMs)
    J.set("debug_delay_ms", DebugDelayMs);
  if (TimeoutMs)
    J.set("timeout_ms", TimeoutMs);
  if (!TraceId.empty())
    J.set("trace_id", TraceId);
  if (Prio != Priority::Interactive)
    J.set("priority", priorityName(Prio));
  if (!Tenant.empty())
    J.set("tenant", Tenant);
  return J;
}

bool CheckRequest::fromJson(const Json &J, CheckRequest &Out,
                            std::string &Err) {
  if (!J.isObject()) {
    Err = "request is not a JSON object";
    return false;
  }
  if (!J.get("source").isString()) {
    Err = "check request lacks a string `source`";
    return false;
  }
  Out.Source = J.get("source").asString();
  const Json &Opts = J.get("options");
  for (const Json &S : Opts.get("no_heap_abs").items())
    Out.NoHeapAbs.push_back(S.asString());
  for (const Json &S : Opts.get("no_word_abs").items())
    Out.NoWordAbs.push_back(S.asString());
  Out.Jobs = static_cast<unsigned>(Opts.get("jobs").asInt(0));
  Out.CacheDir = Opts.get("cache_dir").asString();
  Out.WantSpecs = J.get("want_specs").asBool(false);
  Out.DebugDelayMs =
      static_cast<unsigned>(J.get("debug_delay_ms").asInt(0));
  Out.TimeoutMs = static_cast<unsigned>(J.get("timeout_ms").asInt(0));
  Out.TraceId = J.get("trace_id").asString();
  std::string Prio = J.get("priority").asString();
  if (Prio.empty() || Prio == "interactive") {
    Out.Prio = Priority::Interactive;
  } else if (Prio == "bulk") {
    Out.Prio = Priority::Bulk;
  } else {
    Err = "unknown priority `" + Prio + "` (want interactive|bulk)";
    return false;
  }
  Out.Tenant = J.get("tenant").asString();
  return true;
}

//===----------------------------------------------------------------------===//
// CheckResponse
//===----------------------------------------------------------------------===//

CheckResponse CheckResponse::error(ErrorCode E, const std::string &Msg,
                                   unsigned RetryAfterMs) {
  CheckResponse R;
  R.Ok = false;
  R.Err = E;
  R.Message = Msg;
  R.RetryAfterMs = RetryAfterMs;
  return R;
}

Json CheckResponse::toJson() const {
  Json J = Json::object();
  J.set("ok", Ok);
  if (!TraceId.empty())
    J.set("trace_id", TraceId);
  if (!Ok) {
    J.set("error", errorCodeName(Err));
    if (!Message.empty())
      J.set("message", Message);
    if (RetryAfterMs)
      J.set("retry_after_ms", RetryAfterMs);
  }
  if (!Functions.empty()) {
    Json A = Json::array();
    for (const FuncResult &F : Functions) {
      Json FJ = Json::object();
      FJ.set("name", F.Name);
      FJ.set("final", F.FinalKey);
      FJ.set("heap_lifted", F.HeapLifted);
      FJ.set("word_abstracted", F.WordAbstracted);
      FJ.set("render", F.Render);
      FJ.set("pipeline", F.Pipeline);
      if (!F.L1Spec.empty() || !F.L2Spec.empty()) {
        Json Specs = Json::object();
        Specs.set("l1", F.L1Spec);
        Specs.set("l2", F.L2Spec);
        Specs.set("hl", F.HLSpec);
        Specs.set("wa", F.WASpec);
        FJ.set("specs", std::move(Specs));
      }
      A.push(std::move(FJ));
    }
    J.set("functions", std::move(A));
  }
  if (!Diagnostics.empty()) {
    Json A = Json::array();
    for (const std::string &D : Diagnostics)
      A.push(D);
    J.set("diagnostics", std::move(A));
  }
  if (Ok) {
    Json St = Json::object();
    St.set("source_lines", SourceLines);
    St.set("functions", NumFunctions);
    St.set("jobs", Jobs);
    St.set("parse_s", ParseSeconds);
    St.set("abstract_wall_s", AbstractWallSeconds);
    St.set("parse_cpu_s", ParseCpuSeconds);
    St.set("abstract_cpu_s", AbstractCpuSeconds);
    St.set("cache_enabled", CacheEnabled);
    St.set("cache_hits", CacheHits);
    St.set("cache_misses", CacheMisses);
    St.set("cache_invalidations", CacheInvalidations);
    St.set("cache_dropped", CacheDroppedEntries);
    St.set("certs_written", CertsWritten);
    St.set("cert_claims", CertClaims);
    St.set("cert_skipped", CertSkipped);
    J.set("stats", std::move(St));
  }
  return J;
}

bool CheckResponse::fromJson(const Json &J, CheckResponse &Out,
                             std::string &Err) {
  if (!J.isObject()) {
    Err = "response is not a JSON object";
    return false;
  }
  Out.Ok = J.get("ok").asBool(false);
  Out.TraceId = J.get("trace_id").asString();
  Out.Err = Out.Ok ? ErrorCode::None
                   : errorCodeFromName(J.get("error").asString());
  Out.Message = J.get("message").asString();
  Out.RetryAfterMs =
      static_cast<unsigned>(J.get("retry_after_ms").asInt(0));
  for (const Json &FJ : J.get("functions").items()) {
    FuncResult F;
    F.Name = FJ.get("name").asString();
    F.FinalKey = FJ.get("final").asString();
    F.HeapLifted = FJ.get("heap_lifted").asBool();
    F.WordAbstracted = FJ.get("word_abstracted").asBool();
    F.Render = FJ.get("render").asString();
    F.Pipeline = FJ.get("pipeline").asString();
    const Json &Specs = FJ.get("specs");
    F.L1Spec = Specs.get("l1").asString();
    F.L2Spec = Specs.get("l2").asString();
    F.HLSpec = Specs.get("hl").asString();
    F.WASpec = Specs.get("wa").asString();
    Out.Functions.push_back(std::move(F));
  }
  for (const Json &D : J.get("diagnostics").items())
    Out.Diagnostics.push_back(D.asString());
  const Json &St = J.get("stats");
  Out.SourceLines = static_cast<unsigned>(St.get("source_lines").asInt());
  Out.NumFunctions = static_cast<unsigned>(St.get("functions").asInt());
  Out.Jobs = static_cast<unsigned>(St.get("jobs").asInt());
  Out.ParseSeconds = St.get("parse_s").asNumber();
  Out.AbstractWallSeconds = St.get("abstract_wall_s").asNumber();
  Out.ParseCpuSeconds = St.get("parse_cpu_s").asNumber();
  Out.AbstractCpuSeconds = St.get("abstract_cpu_s").asNumber();
  Out.CacheEnabled = St.get("cache_enabled").asBool();
  Out.CacheHits = static_cast<unsigned>(St.get("cache_hits").asInt());
  Out.CacheMisses = static_cast<unsigned>(St.get("cache_misses").asInt());
  Out.CacheInvalidations =
      static_cast<unsigned>(St.get("cache_invalidations").asInt());
  Out.CacheDroppedEntries =
      static_cast<unsigned>(St.get("cache_dropped").asInt());
  Out.CertsWritten = static_cast<unsigned>(St.get("certs_written").asInt());
  Out.CertClaims = static_cast<unsigned>(St.get("cert_claims").asInt());
  Out.CertSkipped = static_cast<unsigned>(St.get("cert_skipped").asInt());
  return true;
}
