#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload (default: those in BENCHMARK.json; --workload also
takes sweep_m10, which run.py keeps outside BENCHMARK.json) it makes
short runs with --trace 0
and --trace 1 and checks that the printed metric names and units match
BENCHMARK.json exactly, that every value is a finite number and that the
unchanged code passes every output check. It then forces one output check
to fail (PERFBENCH_FORCE_CHECK_FAIL=1) and checks that the run reports
correct: false with failed > 0. Exits 0 when all of that holds.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, force_fail=False):
    env = dict(os.environ)
    env.pop("PERFBENCH_FORCE_CHECK_FAIL", None)
    if force_fail:
        env["PERFBENCH_FORCE_CHECK_FAIL"] = "1"
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", "11", "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       text=True, timeout=300)
    if p.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), p.returncode))
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_shape(result, wanted, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        "%s: result keys %s" % (what, sorted(result))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    assert got == want, "%s: metrics %s != BENCHMARK.json %s" % (
        what, got, want)
    for name, v in result["metrics"].items():
        assert set(v) == {"value", "unit"}, "%s: %s keys" % (what, name)
        assert isinstance(v["value"], (int, float)) and \
            math.isfinite(v["value"]), "%s: %s = %r" % (what, name, v)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    workloads = ap.parse_args().workload or names
    for wl in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = "%s --trace %d" % (wl, trace)
            r = run(wl, trace)
            check_shape(r, spec[key], what)
            assert r["correct"] and r["failed"] == 0, \
                "%s: checks failed on unchanged code" % what
            print("ok  %s (%d units)" % (what, r["attempted"]), flush=True)
        r = run(wl, 0, force_fail=True)
        check_shape(r, spec["end_to_end"], wl + " forced failure")
        assert not r["correct"] and r["failed"] > 0, \
            "%s: a forced check failure went unnoticed" % wl
        print("ok  %s forced check failure -> correct=false, failed=%d"
              % (wl, r["failed"]), flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("selftest FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)
