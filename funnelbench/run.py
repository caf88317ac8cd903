#!/usr/bin/env python3
"""The NADA funnel benchmark: build, run one workload, print the result.

    python3 funnelbench/run.py --workload abr-state-cold --seed 1 \
        --seconds 12 --trace 0
    python3 funnelbench/run.py --self-test

Run from the repository root. The program (library, shard_worker and the
benchmark's own funnel_bench driver) is built from source into
$CARGO_TARGET_DIR (default .bench_build) on first use. Every run happens in
a fresh funnel_bench process and a fresh work directory inside the build
directory, removed afterwards.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The line before it carries the machine and build fingerprint
and every pass of the run. README.md defines the workloads and metrics.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("funnelbench: " + message, file=sys.stderr)
    sys.exit(code)


def refuse_overrides():
    """The benchmark measures the program's defaults: a stray NADA_NN_KERNEL
    or NADA_STORE_FORMAT would compare two different programs."""
    stray = sorted(k for k in os.environ if k.startswith("NADA_"))
    if stray:
        fail("refusing to run with %s set; unset every NADA_* variable"
             % ", ".join(stray))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "funnelbench")


def build():
    """Configures (once) and builds funnel_bench; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the program's sources are not next to the benchmark (%s)" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                fail("configure failed; see " + log_path, 1)
        jobs = str(os.cpu_count() or 1)
        if subprocess.call(["cmake", "--build", out, "--target", "funnel_bench",
                            "-j", jobs], stdout=log, stderr=log) != 0:
            fail("build failed; see " + log_path, 1)
    return os.path.join(out, "funnel_bench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binary, workload, seed, seconds, trace, scale="full"):
    """Runs funnel_bench once; returns (fingerprint line, result dict)."""
    work = os.path.join(build_dir(), "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work, "--scale", scale]
    # Own session: on a timeout the whole group (supervised workers too)
    # is killed and reaped.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    shutil.rmtree(work, ignore_errors=True)
    detail = result = None
    for line in stdout.splitlines():
        if line.startswith("FUNNELBENCH_DETAIL "):
            detail = json.loads(line.split(" ", 1)[1])
        elif line.startswith("FUNNELBENCH_RESULT "):
            result = json.loads(line.split(" ", 1)[1])
    if proc.returncode != 0 or result is None:
        fail("funnel_bench exited with %d and no result" % proc.returncode, 1)
    detail["cpu_model"] = cpu_model()
    detail["trace"] = bool(trace)
    return detail, result


def check_result(spec, result, trace):
    """Every metric BENCHMARK.json names, with its unit, and nothing else."""
    expected = expected_metrics(spec, trace)
    got = result["metrics"]
    problems = []
    for name, unit in expected.items():
        if name not in got:
            problems.append("missing " + name)
        elif got[name].get("unit") != unit:
            problems.append("%s has unit %r, expected %r"
                            % (name, got[name].get("unit"), unit))
        elif not isinstance(got[name].get("value"), (int, float)) or \
                not math.isfinite(got[name]["value"]):
            problems.append("%s is not a finite number" % name)
    problems += ["unexpected " + n for n in got if n not in expected]
    return problems


def ordered(result):
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def self_test(binary, spec):
    """Tiny-scale run of every workload, untraced and traced: every metric
    named in BENCHMARK.json is emitted with its unit, every pass passes its
    output check, and traced passes rank exactly like their untraced twins
    (funnel_bench fails the pass otherwise). Also checks that a NADA_*
    override is refused."""
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        rankings = {}
        for trace in (0, 1):
            start = time.time()
            detail, result = run_once(binary, workload, 1, 1, trace, "tiny")
            problems = check_result(spec, result, trace)
            if not result["correct"] or result["failed"]:
                problems.append("run not correct: %s" % [
                    p.get("error") for p in detail["passes"] if not p["ok"]])
            rankings[trace] = {(p["stream"], tuple(p["ranking"]))
                               for p in detail["passes"] if p["ok"]}
            print("self-test %-22s trace=%d %-4s %d passes, %.1f s" % (
                workload, trace, "ok" if not problems else "FAIL",
                result["attempted"], time.time() - start))
            failures += ["%s trace=%d: %s" % (workload, trace, p)
                         for p in problems]
        common = {k for k, _ in rankings[0]} & {k for k, _ in rankings[1]}
        if not common or any((k, r) not in rankings[0]
                             for k, r in rankings[1] if k in common):
            failures.append("%s: traced rankings differ from untraced"
                            % workload)
    env = dict(os.environ, NADA_NN_KERNEL="scalar")
    refused = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], env=env, capture_output=True, text=True)
    if refused.returncode == 0 or "correct" in refused.stdout:
        failures.append("a NADA_* override was not refused")
    for f in failures:
        print("self-test FAIL: " + f)
    print("self-test %s" % ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    refuse_overrides()
    binary = build()
    spec = load_spec()
    if args.self_test:
        return self_test(binary, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    detail, result = run_once(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    problems = check_result(spec, result, args.trace)
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems), 1)
    print(json.dumps({"fingerprint": detail}, sort_keys=True))
    print(json.dumps(ordered(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
