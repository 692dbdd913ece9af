#!/usr/bin/env python3
"""The repository's benchmark: one PIM-Tree join workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the program from source (see
build.py), runs the workload in a fresh JVM, checks every round's
(count, checksum) against a B+-Tree reference join of the same stream, and
prints as its last line one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, from a run with JFR sampling and
the program's own counters switched on. See perfbench/README.md.
"""
import argparse
import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
JVM_DEADLINE_S = 165
HEAP = "3g"
JVM_FLAGS = [
    # a fixed, pre-touched heap and ParallelGC: under G1 the 8 MB T_S arrays
    # every merge allocates are humongous, and rounds varied far more
    f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch",
    "-XX:-UsePerfData",  # no hsperfdata files outside the checkout
    # Spark (stream-layer metrics of the traced run) needs these on JDK 17
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "-Dspark.ui.enabled=false",
    "-Dlog4j2.level=ERROR",
]


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def gate(report):
    """Correctness gate over one JVM's report.

    Every round is an operation; it fails unless its (count, checksum)
    equals the reference's. A round that raised or overran its deadline is
    listed in `errors` and fails too, as does each failed extra check.
    Returns (attempted, failed, problems).
    """
    rounds = report.get("rounds", [])
    ref = report.get("reference")
    errors = report.get("errors", [])
    checks = report.get("checks", [])
    problems = list(errors)
    failed = len(errors)
    for i, r in enumerate(rounds):
        if ref is None:
            failed += 1
            problems.append(f"round {i}: no reference to check against")
        elif (r["count"], r["checksum"]) != (ref["count"], ref["checksum"]):
            failed += 1
            problems.append(f"round {i}: (count, checksum) = ({r['count']}, {r['checksum']}), "
                            f"reference ({ref['count']}, {ref['checksum']})")
    for c in checks:
        for name, ok in c.items():
            if not ok:
                failed += 1
                problems.append(f"check {name} failed")
    attempted = len(rounds) + len(errors) + sum(len(c) for c in checks)
    return attempted, failed, problems


def git_sha(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def run_jvm(classes, args, work):
    """Runs the JVM to completion or kills it at the deadline.
    Returns (report or None, error message or None)."""
    cmd = ["java", *JVM_FLAGS, f"-Djava.io.tmpdir={work}",
           "-cp", build.classpath(classes), "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work]
    with open(os.path.join(work, "jvm-stderr.log"), "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            out, _ = proc.communicate(timeout=JVM_DEADLINE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"JVM overran the {JVM_DEADLINE_S} s deadline and was killed"
    lines = [l for l in out.splitlines() if l.startswith("PERFBENCH_JSON ")]
    if not lines:
        return None, f"JVM exited with code {proc.returncode} without a report (see {err.name})"
    return json.loads(lines[-1][len("PERFBENCH_JSON "):]), None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; one of {names}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        classes, digest = build.build(root)
    except build.BuildError as e:
        sys.exit(f"perfbench: {e}")
    work = os.path.join(root, build.BUILD_DIR, "run")
    os.makedirs(work, exist_ok=True)

    report, error = run_jvm(classes, args, work)
    if report is None:
        report = {"errors": [error]}
    attempted, failed, problems = gate(report)
    measured = report.get("per_layer" if args.trace else "end_to_end", {})
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing and not problems:
        sys.exit(f"perfbench: the JVM did not report {missing}")

    provenance = dict(report.get("provenance", {}), seed=args.seed, git_sha=git_sha(root),
                      source_sha256=digest, heap=HEAP)
    print("provenance " + json.dumps(provenance))
    print("params " + json.dumps(report.get("params", {})))
    for i, r in enumerate(report.get("rounds", [])):
        print(f"round {i} " + json.dumps(r))
    print("reference " + json.dumps(report.get("reference")))
    for msg in problems:
        print("FAILED " + msg)
    if args.trace:
        extra = {k: v for k, v in measured.items() if k not in {m["name"] for m in wanted}}
        print("per_layer extra " + json.dumps(extra))
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in measured}
    print(json.dumps({"correct": failed == 0 and attempted >= 1, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
