#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_light --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of the repository (or of a source checkout). The first
call configures and builds the f2pm libraries and the benchmark under
.bench_build/; later calls rebuild only what changed. The benchmark's last
line of standard output is one JSON object with the run's result.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds; build output goes to stderr so the
    result line stays the last line of stdout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no f2pm sources next to the benchmark (expected ../src)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """git sha when the tree is a git checkout, plus a digest of the
    sources the benchmark builds (a plain checkout has no git metadata)."""
    sha = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "git=%s src=%s" % (sha, digest.hexdigest()[:16])


def binary(name):
    return os.path.join(BUILD, name)


def selftest():
    """Runs the helper self-test, then checks that the metrics and the
    workload parameters the benchmark prints match BENCHMARK.json."""
    ok = subprocess.run([binary("perfbench_selftest")]).returncode == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([binary("perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True)
    printed = {"end_to_end": [], "per_layer": []}
    for line in listed.stdout.splitlines():
        group, name, unit = line.split()
        printed[group].append((name, unit))
    for group in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[group]]
        if declared != printed[group]:
            ok = False
            print("FAIL: %s metrics differ from BENCHMARK.json:\n  printed  %s\n"
                  "  declared %s" % (group, printed[group], declared))
    described = subprocess.run([binary("perfbench"), "--describe"],
                               capture_output=True, text=True, check=True)
    params = dict(line.split(" ", 1) for line in described.stdout.splitlines())
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if sorted(params) != sorted(declared):
        ok = False
        print("FAIL: workloads %s, BENCHMARK.json declares %s"
              % (sorted(params), sorted(declared)))
    for name, why in declared.items():
        if name in params and params[name] not in why:
            ok = False
            print("FAIL: BENCHMARK.json why of %s lacks its fixed parameters "
                  "'%s'" % (name, params[name]))
    print("run.py selftest: %s" % ("all checks passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    build()
    if argv == ["--selftest"]:
        return selftest()
    command = [binary("perfbench")] + argv + ["--source", source_id(),
                                              "--work-dir",
                                              os.path.join(".bench_build", "run")]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
