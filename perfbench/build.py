#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program's sources (src/main/scala) together with the
benchmark's own (perfbench/src) with the Scala compiler that ships in the
Spark distribution, into .bench_build/perfbench/classes. A stamp over every
source file skips the compile when nothing changed.

Run from the repository root:  python3 perfbench/build.py
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
SOURCE_DIRS = [os.path.join("src", "main", "scala"), os.path.join("perfbench", "src")]


class BuildError(Exception):
    pass


def spark_jars():
    """Directory of the Spark distribution's jars (Scala compiler included)."""
    home = os.environ.get("SPARK_HOME", "/opt/spark")
    jars = os.path.join(home, "jars")
    if not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError(f"no Scala compiler under {jars}; set SPARK_HOME")
    return jars


def sources(root):
    found = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(os.path.join(root, d)):
            raise BuildError(f"missing source directory {d}: run from the repository root")
        found += sorted(glob.glob(os.path.join(root, d, "**", "*.scala"), recursive=True))
    return found


def source_hash(files, root):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(root="."):
    """Compile if needed; returns (classes_dir, source_sha256)."""
    files = sources(root)
    digest = source_hash(files, root)
    out = os.path.join(root, BUILD_DIR, "classes")
    stamp = os.path.join(root, BUILD_DIR, "classes.stamp")
    if os.path.isdir(out) and os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                return out, digest
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    argfile = os.path.join(root, BUILD_DIR, "sources.txt")
    with open(argfile, "w") as fh:
        fh.write("\n".join(files) + "\n")
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
           "-cp", os.path.join(spark_jars(), "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", out, "@" + argfile]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        raise BuildError("compile failed:\n" + done.stdout[-4000:])
    with open(stamp, "w") as fh:
        fh.write(digest + "\n")
    return out, digest


def classpath(classes):
    return classes + os.pathsep + os.path.join(spark_jars(), "*")


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        sys.exit(f"perfbench build: {e}")
