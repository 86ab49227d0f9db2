#!/usr/bin/env python3
"""Build and run the InQuest benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-paper-scale --seed 1 --seconds 16 --trace 0

The first run in a checkout compiles the program's sources together with the
harness (sbt, offline); later runs reuse that build while the sources are
unchanged. The JVM's last line of standard output is the result object.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")

# Driver heap for the benchmark JVM. The program's build falls back to 48g
# when SPARK_DRIVER_MEM is unset, which does not fit a small machine.
DRIVER_MEM = "3g"
# Spark runs local[N] with one core left for the driver, GC and streaming
# threads, and at most three task threads, which keeps timings steady.
MAX_CORES = 3
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# JDK 17 module opens that Spark needs, as in the program's build.
MODULE_OPENS = [
    "java.base/" + p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build_inputs():
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (PROGRAM_SOURCES, os.path.join(HERE, "src", "main")):
        for d, _, names in os.walk(top):
            files.extend(os.path.join(d, n) for n in names)
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for f in build_inputs():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def build(digest):
    """Compile with sbt unless this digest is already built; return the classpath."""
    stamp = os.path.join(TARGET, "perfbench-build.json")
    if os.path.exists(stamp):
        with open(stamp) as fh:
            built = json.load(fh)
        if built.get("digest") == digest:
            return built["classpath"]
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true")
    print("perfbench: building (sbt compile)", file=sys.stderr)
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    text = out.decode(errors="replace")
    if code != 0:
        sys.stderr.write(text[-4000:])
        fail("build failed")
    lines = [l for l in text.splitlines() if l and not l.startswith("[")]
    if not lines or "classes" not in lines[-1]:
        sys.stderr.write(text[-4000:])
        fail("build printed no classpath")
    os.makedirs(TARGET, exist_ok=True)
    with open(stamp, "w") as fh:
        json.dump({"digest": digest, "classpath": lines[-1]}, fh)
    return lines[-1]


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             timeout=10, check=True)
        return out.stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def main():
    # A terminated benchmark still stops the JVM or sbt it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(PROGRAM_SOURCES):
        fail("program sources not found at %s" % os.path.relpath(PROGRAM_SOURCES, os.getcwd()))
    digest = source_digest()
    classpath = build(digest)

    cores = max(1, min(MAX_CORES, len(os.sched_getaffinity(0)) - 1))
    work = os.path.join(TARGET, "work-%d" % os.getpid())
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["SPARK_DRIVER_MEM"] = DRIVER_MEM
    java = os.path.join(env["JAVA_HOME"], "bin", "java") if env.get("JAVA_HOME") else "java"
    # A fixed-size heap and the throughput collector: G1's concurrent work
    # and heap resizing made call times vary more from run to run.
    cmd = [java, "-Xms" + DRIVER_MEM, "-Xmx" + DRIVER_MEM, "-XX:+UseParallelGC", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + tmp, "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties")]
    cmd += ["--add-opens=%s=ALL-UNNAMED" % p for p in MODULE_OPENS]
    cmd += ["-cp", classpath, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--cores", str(cores), "--checksums", os.path.join(HERE, "checksums.json"),
            "--commit", commit_id(), "--source-digest", digest, "--work-dir", work,
            "--trace-out", os.path.join(TARGET, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code, _ = run_group(cmd, RUN_TIMEOUT_S, env=env, stdin=subprocess.DEVNULL)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
