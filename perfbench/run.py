#!/usr/bin/env python3
"""The repository benchmark: three workloads behind one command.

    python3 perfbench/run.py --workload cold-sel4|recheck|certify-capdl \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
perfbench/ (the pipeline libraries from src/ plus the acbench driver) in
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls reuse
the build. Every measured operation runs in a fresh acbench process, so
peak memory, term interning (which never evicts) and certificate
recording (sticky once enabled) cannot leak between operations or
workloads.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
perfbench/README.md defines each metric per workload. Progress goes to
stderr. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Any failed output check makes the run
fail: correct is false and the exit code is 1.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))
MIB = 1024.0 * 1024.0
# Hung children are killed well inside the 180 s a run may take.
PROC_TIMEOUT_S = 150
# A batch set-up takes milliseconds, so a run samples it in this many
# extra processes besides its operations.
SETUP_REPS = 30
# A recheck set-up primes a server for about two seconds; a run makes
# this many besides the stream's own.
RECHECK_SETUP_REPS = 1
# A pool TU's certificate checks in a third of a second, so a recheck run
# checks each this many times before its stream and after it.
POOL_CHECKS_BEFORE, POOL_CHECKS_AFTER = 2, 2

with open(os.path.join(HERE, "workloads.json")) as f:
    SPEC = json.load(f)
# Metric names and units come from the benchmark definition itself.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DEFINITION = json.load(f)


class BenchFailure(Exception):
    """An operation that crashed or produced no result."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the driver up to date. Returns its path."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bdir = os.path.join(out, "cmake")
    cmds = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", bdir, "--target", "acbench",
                 "-j", str(min(NPROC, 4))])
    for cmd in cmds:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return out, os.path.join(bdir, "acbench")


class Proc:
    """One finished acbench process, timed from outside."""

    def __init__(self, setup_s, latency_s, rss_mb, out):
        self.setup_s = setup_s      # its own start until it printed `ready`
        self.latency_s = latency_s  # spawn until it exited
        self.rss_mb = rss_mb        # peak resident set, from wait4
        self.out = out              # its JSON result


class Bench:
    def __init__(self, binary, work):
        self.binary = binary
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.seq = 0
        # Children see none of the AC_* switches (cache, jobs, tracing,
        # certificates, fault injection) that would change what is timed.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("AC_")}

    def path(self, name):
        return os.path.join(self.work, name)

    def spawn(self, *args):
        self.seq += 1
        args = [str(a) for a in args]
        errlog = self.path("%03d-%s.log" % (self.seq, args[0]))
        with open(errlog, "w") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen([self.binary] + args, cwd=self.work,
                                 env=self.env, stdout=subprocess.PIPE,
                                 stderr=err, text=True)
            killer = threading.Timer(PROC_TIMEOUT_S, p.kill)
            killer.start()
            try:
                first = p.stdout.readline()
                rest = p.stdout.read()
                _, status, usage = os.wait4(p.pid, 0)
                t_exit = time.perf_counter()
            except BaseException:
                # Interrupted (SIGTERM or ^C): leave no child behind.
                p.kill()
                p.wait()
                raise
            finally:
                killer.cancel()
            p.returncode = os.waitstatus_to_exitcode(status)
            p.stdout.close()
        lines = [l for l in rest.splitlines() if l.strip()]
        tag, _, setup_s = first.partition(" ")
        if tag != "ready" or p.returncode != 0 or not lines:
            with open(errlog) as f:
                tail = f.read()[-2000:]
            raise BenchFailure("acbench %s exited %d:\n%s"
                               % (" ".join(args), p.returncode, tail))
        return Proc(float(setup_s), t_exit - t0, usage.ru_maxrss / 1024.0,
                    json.loads(lines[-1]))

    def check(self, ok, what, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            log("CHECK FAILED: " + what)
        return ok

    def same_file(self, a, b):
        with open(self.path(a), "rb") as fa, open(self.path(b), "rb") as fb:
            return fa.read() == fb.read()

    def golden(self):
        """The five paper corpora against tests/golden/*.expected."""
        r = self.spawn("golden", "--dir", os.path.join(ROOT, "tests", "golden"))
        self.check(r.out["matched"] == r.out["corpora"] == 5,
                   "paper corpora differ from tests/golden: %s"
                   % r.out["mismatched"])

    def certified(self, tu, seed, jobs, tag):
        """A run that writes the certificate tag.acpc and renders tag.txt."""
        return self.spawn("run", "--tu", tu, "--seed", seed, "--jobs", jobs,
                          "--cert", tag + ".acpc", "--render", tag + ".txt")

    def acpc(self, tag, run):
        """The independent checker on the certificate `run` wrote."""
        cert = tag + ".acpc"
        chk = self.spawn("check", "--cert", cert)
        c = chk.out
        n = run.out["functions"]
        self.check(c["ok"], "acpc rejected %s: %s" % (cert, c["error"]))
        self.check(c["claims"] == n == c["functions"]
                   and run.out["cert_claims"] == n,
                   "%s claims %d of %d functions" % (cert, c["claims"], n))
        return chk

    def certify(self, tu, seed, jobs, tag):
        """One certified run and one check of its certificate."""
        run = self.certified(tu, seed, jobs, tag)
        chk = self.acpc(tag, run)
        os.remove(self.path(tag + ".acpc"))
        return run, chk

    def setups(self, tu, seed):
        """Set-up times of processes that stop once their TU exists."""
        return [self.spawn("run", "--tu", tu, "--seed", seed, "--jobs", 1,
                           "--setup-only").setup_s for _ in range(SETUP_REPS)]

    def timed(self, seconds, min_ops, op):
        """Repeats op(i) for at least `seconds` and `min_ops` times."""
        ops, t0 = [], time.perf_counter()
        while len(ops) < min_ops or time.perf_counter() - t0 < seconds:
            ops.append(op(len(ops)))
        return ops

    def layers(self, tu, seed, cert, reps, untraced_op):
        """Per-layer self times of one TU at Jobs=1.

        `reps` traced runs (`run --profile`), each in a fresh process,
        time the five layer calls AutoCorres::run makes (link-time
        wrappers, see acbench.cpp) and record the rule profile, the
        interning count and one computeFunctionKeys. The one with the
        lowest wall time is reported, so its layer self times plus
        core.other_s add up to its wall time. Each traced run follows an
        untraced Jobs=1 run, untraced_op(i), of the same TU; the tracing
        overhead compares the fastest of each. Returns the metrics and the
        untraced runs.
        """
        untraced, traced = [], []
        for i in range(reps):
            untraced.append(untraced_op(i))
            traced.append(self.spawn(
                "run", "--tu", tu, "--seed", seed, "--jobs", 1, "--profile",
                *(["--cert", "t%d.acpc" % i] if cert else [])).out)
        t = min(traced, key=lambda r: r["wall_s"])
        layer = {"simpl.parse_s": t["parse_s"], "monad.l1_s": t["l1_s"],
                 "monad.l2_s": t["l2_s"], "heapabs.hl_s": t["hl_s"],
                 "wordabs.wa_s": t["wa_s"]}
        m = dict(layer)
        m.update({
            "core.other_s": t["wall_s"] - sum(layer.values()),
            "core.render_s": t["render_s"],
            "core.fingerprint_s": t["fingerprint_s"],
            "heapabs.lifted_frac": t["lifted_frac"],
            "wordabs.kept_frac": t["kept_frac"],
            "hol.terms_interned": t["terms_interned"],
            "hol.rule_fires": t["rule_fires"],
            "hol.rule_attempts": t["rule_attempts"],
            "hol.rule_hit_frac": (t["rule_fires"] / t["rule_attempts"]
                                  if t["rule_attempts"] else 0.0),
            "hol.rule_self_s": t["rule_self_s"],
            "trace.overhead_ratio": t["wall_s"] / min(
                u.out["wall_s"] for u in untraced),
        })
        log("traced wall %.4f s = %s + core.other_s %.4f" % (
            t["wall_s"], " + ".join("%s %.4f" % kv for kv in layer.items()),
            m["core.other_s"]))
        return m, untraced


def batch_metrics(ops, setups, distinct):
    """End-to-end metrics of a workload made of single-run processes.

    `setups` are the set-up times of extra processes that stop after
    set-up; setup_s is the median over them and the operations. The first
    `distinct` operations ran different TUs; the output-size metrics are
    their mean.
    """
    return {
        "setup_s": statistics.median(setups + [o.setup_s for o in ops]),
        "wall_s": statistics.median(o.out["wall_s"] for o in ops),
        "cpu_s": statistics.median(o.out["cpu_s"] for o in ops),
        "peak_rss_mb": statistics.median(o.rss_mb for o in ops),
        "p50_ms": statistics.median(o.latency_s * 1e3 for o in ops),
        "term_ratio": statistics.mean(o.out["term_ratio"]
                                      for o in ops[:distinct]),
        "spec_lines": statistics.mean(o.out["spec_lines"]
                                      for o in ops[:distinct]),
    }


def cold_sel4(b, seed, seconds, trace):
    w = SPEC["workloads"]["cold-sel4"]
    # Timed at `jobs` (1); README.md says why the timed runs are serial.
    # The traced run checks a run at `check_jobs` (nproc) against them.
    jobs = w["jobs"]
    par = NPROC if w["check_jobs"] == "nproc" else w["check_jobs"]
    b.golden()
    run = lambda tag, j: b.spawn("run", "--tu", w["tu"], "--seed", seed,
                                 "--jobs", j, "--render", tag + ".txt")
    if trace:
        m, _ = b.layers(w["tu"], seed, cert=False, reps=2,
                        untraced_op=lambda i: run("ref%d" % i, jobs))
        b.check(b.same_file("ref0.txt", "ref1.txt"),
                "two Jobs=1 runs of seL4 rendered differently")
        o = run("par", par)
        b.check(b.same_file("par.txt", "ref0.txt"),
                "Jobs=%d renders differ from the Jobs=1 reference" % par)
        m["core.parallel_eff"] = o.out["cpu_s"] / (o.out["wall_s"] * par)
        return m
    # The reference also writes a certificate, so the timed renders are
    # checked against a run with recording on. A check follows each timed
    # run, so a slow stretch of the host's does not fall on all checks.
    ref = b.certified(w["tu"], seed, jobs, "ref")
    checks = []

    def op(i):
        o = run("op%d" % i, jobs)
        b.check(b.same_file("op%d.txt" % i, "ref.txt"),
                "two Jobs=1 runs of seL4 rendered differently")
        checks.append(b.acpc("ref", ref).out["check_s"])
        return o

    setups = b.setups(w["tu"], seed)
    m = batch_metrics(b.timed(seconds, 2, op), setups, 1)
    m["cert_mb"] = os.path.getsize(b.path("ref.acpc")) / MIB
    m["check_s"] = statistics.median(checks)
    return m


def certify_capdl(b, seed, seconds, trace):
    w = SPEC["workloads"]["certify-capdl"]
    b.golden()
    jobs, k = w["jobs"], w["tus_per_run"]
    # A CapDL-scale TU is small enough that its cost varies with the seed;
    # each run cycles through k TUs drawn from the seed.
    tu_seed = lambda i: seed * 1000 + i % k

    def op(i):
        run, chk = b.certify(w["tu"], tu_seed(i), jobs, "op%d" % i)
        b.check(i < k or b.same_file("op%d.txt" % i, "op%d.txt" % (i % k)),
                "two certified runs of one CapDL TU rendered differently")
        return run, chk

    if trace:
        # Runs with and without recording alternate with the traced runs,
        # so a change in the host's load moves all three kinds alike.
        plain, chk = [], []

        def certified(i):
            plain.append(b.spawn("run", "--tu", w["tu"], "--seed", tu_seed(0),
                                 "--jobs", jobs, "--render", "plain%d.txt" % i))
            run, c = b.certify(w["tu"], tu_seed(0), jobs, "c%d" % i)
            chk.append(c.out)
            return run

        m, certed = b.layers(w["tu"], tu_seed(0), cert=True, reps=3,
                             untraced_op=certified)
        b.check(b.same_file("plain0.txt", "c0.txt"),
                "certificate recording changed the CapDL renders")
        med = lambda key: statistics.median(c[key] for c in chk)
        wall = lambda rows: statistics.median(r.out["wall_s"] for r in rows)
        m["cert.records"] = med("records")
        m["cert.claims"] = med("claims")
        m["cert.overhead_ratio"] = wall(certed) / wall(plain)
        m["acpc.records_per_s"] = m["cert.records"] / med("check_s")
        m["core.parallel_eff"] = statistics.median(
            r.out["cpu_s"] / (r.out["wall_s"] * jobs) for r in certed)
        return m
    setups = b.setups(w["tu"], tu_seed(0))
    pairs = b.timed(seconds, k, op)
    m = batch_metrics([r for r, _ in pairs], setups, k)
    m["cert_mb"] = statistics.mean(c.out["bytes"] for _, c in pairs[:k]) / MIB
    m["check_s"] = statistics.median(c.out["check_s"] for _, c in pairs)
    return m


def recheck(b, seed, seconds, trace):
    w = SPEC["workloads"]["recheck"]
    mix = w["mix"]
    b.golden()
    args = ["recheck", "--seed", seed, "--seconds", seconds,
            "--rate", w["rate_per_s"], "--limit-ms", w["latency_limit_ms"],
            "--workers", NPROC,
            "--pool-tus", mix["pool_tus"],
            "--edits-per-tu", mix["edits_per_tu"],
            "--share-unchanged", mix["share_unchanged"],
            "--share-edit", mix["share_edit"]]
    if not trace:
        # Set-up (inputs, server start, priming the memory tier with the
        # pool) happens once per stream, so a run makes extra set-ups.
        setups = [b.spawn(*args, "--setup-only")
                  for _ in range(RECHECK_SETUP_REPS)]
        # The certificate metrics cover the whole pool; each TU's check
        # time is the median of checks made before and after the stream.
        pool = [p.split(":") for p in setups[0].out["pool"]]
        certs = [b.certified(tu, s, 1, "pool%d" % i)
                 for i, (tu, s) in enumerate(pool)]
        checks = [[b.acpc("pool%d" % i, c) for _ in range(POOL_CHECKS_BEFORE)]
                  for i, c in enumerate(certs)]
    r = b.spawn(*args)
    o = r.out
    b.check(o["failed"] == 0 and not o["transport_failed"],
            "%d of %d requests failed or were refused (%d renders changed "
            "between servings)" % (o["failed"], o["requests"],
                                   o["render_mismatch"]),
            count=o["requests"])
    b.check(o["reference_mismatch"] == 0,
            "%d of %d served sources differ from a cold in-process run"
            % (o["reference_mismatch"], o["distinct_sources"]),
            count=o["distinct_sources"])
    if trace:
        tu, tu_seed = o["pool"][0].split(":")
        m, _ = b.layers(tu, tu_seed, cert=False, reps=3,
                        untraced_op=lambda i: b.spawn(
                            "run", "--tu", tu, "--seed", tu_seed, "--jobs", 1))
        m.update({
            "simpl.parse_s": o["parse_s_p50"],
            "hol.terms_interned": o["terms_interned"],
            "core.parallel_eff": o["cpu_s"] / (o["wall_s"] * NPROC),
            "core.cache_hit_frac": o["cache_hit_frac"],
            "core.cache_invalidations": o["cache_invalidations"],
            "p90_ms": o["p90_ms"],
            "service.server_ms_p50": o["server_ms_p50"],
            "service.wait_ms_p50": o["wait_ms_p50"],
            "service.wait_ms_p99": o["wait_ms_p99"],
            "service.refused_frac": o["refused_frac"],
            "service.resp_kb": o["resp_kb"],
            "loadgen.late_ms_p99": o["late_ms_p99"],
            "slo_miss_frac": o["slo_miss_frac"],
        })
        return m
    for i, c in enumerate(certs):
        checks[i] += [b.acpc("pool%d" % i, c)
                      for _ in range(POOL_CHECKS_AFTER)]
    return {
        "setup_s": statistics.median([s.setup_s for s in setups]
                                     + [r.setup_s]),
        "wall_s": o["wall_s"],
        "cpu_s": o["cpu_s"],
        "peak_rss_mb": o["peak_rss_mb"],
        "p50_ms": o["p50_ms"],
        "term_ratio": o["term_ratio"],
        "spec_lines": o["spec_lines"],
        "cert_mb": sum(c[0].out["bytes"] for c in checks) / MIB,
        "check_s": sum(statistics.median(x.out["check_s"] for x in c)
                       for c in checks),
    }


WORKLOADS = {"cold-sel4": cold_sel4, "recheck": recheck,
             "certify-capdl": certify_capdl}

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    # SIGTERM unwinds like ^C, so the running child is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    out, binary = build()
    work = os.path.join(out, "work-%d" % os.getpid())
    os.makedirs(work)
    b = Bench(binary, work)
    info = json.loads(subprocess.run([binary, "build-info"], check=True,
                                     stdout=subprocess.PIPE).stdout)
    print("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d "
          "build_type=%s cxx_flags=%s" % (
              a.workload, a.seed, a.seconds, a.trace, NPROC,
              info["build_type"], info["cxx_flags"].strip()), flush=True)
    try:
        m = WORKLOADS[a.workload](b, a.seed, a.seconds, a.trace)
        crashed = False
    except BenchFailure as e:
        log(str(e))
        b.attempted += 1
        b.failed += 1
        m, crashed = {}, True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    if not crashed:
        # A per-layer metric of a layer the workload does not exercise
        # (the service in cold-sel4, certificates in recheck) reads 0.
        m["error_frac"] = b.failed / b.attempted
        wanted = DEFINITION["per_layer" if a.trace else "end_to_end"]
        metrics = {d["name"]: {"value": float(m.get(d["name"], 0.0)
                                              if a.trace else m[d["name"]]),
                               "unit": d["unit"]} for d in wanted}
    correct = b.failed == 0
    print(json.dumps({"correct": correct, "attempted": b.attempted,
                      "failed": b.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
