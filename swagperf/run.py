#!/usr/bin/env python3
"""Sliding-window aggregation benchmark: one command for every workload.

    python3 swagperf/run.py --workload ooo_bulk --seed 1 --seconds 30 --trace 0
    python3 swagperf/run.py --selftest          # tiny sizes, every workload, both modes

Run from the repository root. On first use (or when a source file changed)
it builds the benchmark JVM program with sbt; it then starts one JVM with
pinned flags, prints the run's notes and metrics, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its per_layer
ones. The exit code is 0 only if every checked round or batch matched the
benchmark's reference.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "build.stamp")

WORKLOADS = ("ooo_bulk", "stream_durable")

# Fixed heap (-Xms = -Xmx) per workload and a named collector; see README.md.
HEAP = {"ooo_bulk": "4g", "stream_durable": "3g"}
GC_FLAGS = ["-XX:+UseG1GC"]
# A young generation that holds several seconds of allocation: each young
# collection copies the live window, so fewer, regular collections.
YOUNG = {"ooo_bulk": "3g"}

# JDK 17 module opens that Spark's launcher scripts normally add.
SPARK_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "--add-opens=java.security.jgss/sun.security.krb5=ALL-UNNAMED",
    "--enable-native-access=ALL-UNNAMED",
]

RUN_LIMIT_S = 170        # a run must end within 180 s
FIRST_RUN_LIMIT_S = 880  # the first run in a checkout builds and may take 900 s
BUILD_LIMIT_S = 600


def log(msg):
    print(f"swagperf: {msg}", flush=True)


def source_files():
    """Everything the benchmark JVM is built from."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"), os.path.join(HERE, "src")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for d in (os.path.join(ROOT, "project"), os.path.join(HERE, "project")):
        if os.path.isdir(d):
            files += [os.path.join(d, f) for f in os.listdir(d) if f.endswith((".sbt", ".properties", ".scala"))]
    for r in roots:
        for dirpath, _, names in os.walk(r):
            files += [os.path.join(dirpath, f) for f in names]
    return sorted(f for f in files if os.path.isfile(f))


def source_digest():
    h = hashlib.sha256(ROOT.encode())
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def build(digest, timeout_s):
    """Compiles the root project and the benchmark with sbt, offline."""
    os.makedirs(os.path.join(TARGET, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = ["-Dsbt.offline=true", "-Xmx2g", "-Djava.io.tmpdir=" + os.path.join(TARGET, "tmp")]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.isfile(repos):
        opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
    env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", "")] + opts).strip()
    logf = os.path.join(TARGET, "build.log")
    log(f"building with sbt (log: {os.path.relpath(logf, ROOT)})")
    t0 = time.time()
    with open(logf, "w") as out:
        try:
            rc = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                                cwd=HERE, env=env, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, timeout=timeout_s).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    if rc != 0 or not os.path.isfile(CLASSPATH):
        with open(logf) as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
        log(f"build failed ({rc})")
        sys.exit(2)
    with open(STAMP, "w") as fh:
        fh.write(digest)
    log(f"built in {time.time() - t0:.0f} s")


def ensure_built(timeout_s):
    """Returns True if this call had to build."""
    digest = source_digest()
    if os.path.isfile(CLASSPATH) and os.path.isfile(STAMP):
        with open(STAMP) as fh:
            if fh.read() == digest:
                return False
    build(digest, timeout_s)
    return True


def run_jvm(workload, seed, seconds, trace, smoke, timeout_s):
    """Runs one measurement JVM; returns (exit code, report dict or None)."""
    work = os.path.join(TARGET, "work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    os.makedirs(os.path.join(TARGET, "results"), exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    out = os.path.join(TARGET, "results", tag + ".json")
    trace_file = os.path.join(TARGET, "traces", f"spans-{tag}.tsv.gz")
    if os.path.exists(out):
        os.remove(out)
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    heap = "512m" if smoke else HEAP[workload]
    young = [] if smoke or workload not in YOUNG else [f"-Xmn{YOUNG[workload]}"]
    cmd = (["java", f"-Xms{heap}", f"-Xmx{heap}"] + young + GC_FLAGS + SPARK_OPENS +
           ["-Djava.io.tmpdir=" + os.path.join(work, "tmp"), "-cp", cp, "swagperf.Main",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out, "--work", work, "--trace-file", trace_file]
           + (["--smoke"] if smoke else []))
    logf = os.path.join(TARGET, "results", tag + ".log")
    outf = os.path.join(TARGET, "results", tag + ".out")
    with open(logf, "w") as errf, open(outf, "w") as stdoutf:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdoutf, stderr=errf, stdin=subprocess.DEVNULL)
        try:
            rc = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"JVM exceeded {timeout_s:.0f} s and was stopped")
            rc = "timeout"
    with open(outf) as fh:
        sys.stdout.write(fh.read())
    shutil.rmtree(work, ignore_errors=True)
    if rc != 0:
        with open(logf) as fh:
            sys.stderr.write("".join(fh.readlines()[-30:]))
    if not os.path.isfile(out):
        return rc, None
    with open(out) as fh:
        return rc, json.load(fh)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def select(report, specs, section):
    """The metrics BENCHMARK.json names, with their units checked."""
    got = report[section]
    metrics, missing = {}, []
    for s in specs:
        m = got.get(s["name"])
        if m is None or m["unit"] != s["unit"]:
            missing.append(s["name"])
        else:
            metrics[s["name"]] = {"value": m["value"], "unit": m["unit"]}
    return metrics, missing


def one_run(args, smoke=False):
    """One workload run; prints the result line and returns its exit code."""
    t0 = time.time()
    spec = load_spec()
    built = ensure_built(BUILD_LIMIT_S)
    limit = (FIRST_RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.time() - t0)
    sha = git_sha()
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}"
        f"; nproc {os.cpu_count()}; source {sha or 'digest ' + source_digest()[:16]}")
    rc, report = run_jvm(args.workload, args.seed, args.seconds, args.trace, smoke, limit)
    if report is None:
        log(f"no result (exit {rc})")
        return 1
    for k, v in report["meta"].items():
        log(f"meta {k}: {json.dumps(v)}")
    for section in ("end_to_end", "per_layer"):
        log(f"{section} metrics:")
        for k, m in report[section].items():
            print(f"  {k:<36} {m['value']} {m['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    log(f"checked {attempted} rounds/batches, failed {failed}, failed_frac {failed / max(1, attempted):.6g}")
    section = "per_layer" if args.trace else "end_to_end"
    metrics, missing = select(report, spec[section], section)
    if missing:
        log("missing or mis-unitted metrics: " + ", ".join(missing))
    correct = rc == 0 and failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


def selftest():
    """Smoke mode: tiny sizes, every workload, untraced and traced."""
    spec = load_spec()
    ensure_built(BUILD_LIMIT_S)
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, report = run_jvm(w, 7, 2, trace, True, RUN_LIMIT_S)
            tag = f"{w} trace {trace}"
            if report is None:
                problems.append(f"{tag}: no report (exit {rc})")
                continue
            section = "per_layer" if trace else "end_to_end"
            _, missing = select(report, spec[section], section)
            if missing:
                problems.append(f"{tag}: missing {missing}")
            if rc != 0 or report["failed"] != 0 or report["attempted"] < 1:
                problems.append(f"{tag}: exit {rc}, failed {report['failed']} of {report['attempted']}")
            for s in spec["end_to_end"]:
                v = report["end_to_end"].get(s["name"], {}).get("value", 0)
                if not v > 0:
                    problems.append(f"{tag}: {s['name']} = {v}, must be > 0")
            if trace:
                cov = report["per_layer"].get("trace.coverage", {}).get("value", 0)
                if not 0.9 <= cov <= 1.0 + 1e-9:
                    problems.append(f"{tag}: child spans cover {cov:.3f} of their parents, not within 10%")
    for p in problems:
        log("SELFTEST FAIL " + p)
    log("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes (for trying the benchmark out)")
    p.add_argument("--selftest", action="store_true", help="smoke-run every workload and check the output")
    args = p.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt")) and os.path.isdir(os.path.join(ROOT, "src", "main"))):
        log("the repository's sources (build.sbt, src/main) are not next to the benchmark; nothing to build")
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    return one_run(args, smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main())
