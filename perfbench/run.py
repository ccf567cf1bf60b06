#!/usr/bin/env python3
"""qramsim benchmark: one command, three workloads, every metric with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.out B.out

Run from the root of a source checkout. The first run builds the library,
the four service binaries, bench_fig9-12 and perfbench_harness (Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

Workloads (see BENCHMARK.json for why each was chosen):

  paper_repro    the bench_fig9-12 estimator configurations, in-process
  shard_service  seeded m=8 sweep jobs through qramsim_drive --broker to a
                 resident qramsim_broker (its journal filled past the
                 rotation threshold first) and two qramsim_server
                 --broker workers; about a third resubmit an earlier job
  sweep_m10      a bucket-brigade m=10 gate-depolarizing eps_r sweep through
                 qramsim_drive with fork/exec workers. Not in
                 BENCHMARK.json: on a shared 4-vCPU VM its drive wall
                 spreads wider than any allowed bound (perfbench/README.md)

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Layers are timed from outside: perfbench_harness times calls into the
library's public functions, this script times the binaries. Every run
checks its outputs; `attempted` and `failed` count the units of work
(estimate calls or jobs), so fail_frac = failed / attempted.

Each run prints its record (host profile, workload, seed, metrics) on the
line before the result. --compare reads two files of saved stdout (the
records of any number of runs), prints per-metric medians and refuses to
compare records whose host profiles differ.

PERFBENCH_FORCE_CHECK_FAIL=1 corrupts one checked output before it is
checked (the self-test uses it to prove the checks can fail).
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper_repro", "sweep_m10", "shard_service")
PROFILE_KEYS = ("hw_threads", "simd_tier", "compiler", "build_type")
FORCE_FAIL = os.environ.get("PERFBENCH_FORCE_CHECK_FAIL") == "1"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary dir."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no qramsim sources next to perfbench/ "
                         "(run from the root of a source checkout)")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(bdir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench_harness", "qramsim_shard", "qramsim_drive",
                  "qramsim_server", "qramsim_broker", "bench_fig9",
                  "bench_fig10", "bench_fig11", "bench_fig12"])
    with open(logf, "w") as f:
        for cmd in steps:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                with open(logf) as g:
                    sys.stderr.write(g.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return bdir


class Bins:
    def __init__(self, bdir):
        q = os.path.join(bdir, "qramsim")
        self.harness = os.path.join(bdir, "perfbench_harness")
        self.shard = os.path.join(q, "qramsim_shard")
        self.drive = os.path.join(q, "qramsim_drive")
        self.server = os.path.join(q, "qramsim_server")
        self.broker = os.path.join(q, "qramsim_broker")
        self.fig = [os.path.join(q, "bench_fig%d" % i) for i in (9, 10, 11, 12)]


# -------------------------------------------------------------- processes


class Run:
    """One benchmark run: its scratch directory and resource accounting."""

    def __init__(self, bins, workdir):
        self.bins = bins
        self.dir = workdir
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def fail(self, n, why):
        self.failed += n
        self.notes.append(why)
        log("check failed: " + why)

    def reap(self, proc, options=0):
        """Wait for @proc via wait4, folding its peak RSS in; None if
        @options has WNOHANG and it is still running."""
        pid, status, ru = os.wait4(proc.pid, options)
        if pid == 0:
            return None
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, ru.ru_maxrss)
        return proc.returncode

    def call(self, cmd):
        """Run @cmd to completion; returns (exit code, wall s, stdout)."""
        out = self.path("last.out")
        with open(out, "w") as f, open(self.path("stderr.log"), "a") as e:
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, cwd=self.dir, stdout=f, stderr=e)
            rc = self.reap(p)
            wall = time.perf_counter() - t0
        with open(out) as f:
            return rc, wall, f.read()

    def harness(self, args):
        rc, _, out = self.call([self.bins.harness] + args)
        if rc != 0:
            raise BenchError("perfbench_harness %s exited %d"
                             % (args[0], rc))
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError("perfbench_harness %s printed no JSON"
                             % args[0])


def median(xs):
    return statistics.median(xs)


def need(xs, what):
    """@xs, or a BenchError when no unit of @what succeeded (no metric
    can be measured from nothing; the failures are already counted)."""
    if not xs:
        raise BenchError("no %s succeeded" % what)
    return xs


def quantile(xs, q):
    """Nearest-rank quantile (q in (0, 1])."""
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, int(-(-q * len(s) // 1)) - 1))]


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def threads_budget():
    return max(1, min(4, os.cpu_count() or 1))


# ---------------------------------------------------------- drive probes


def drive_cmd(run, jobdir, flags, shards, workers, broker=None):
    cmd = [run.bins.drive, "--job", jobdir, "--shards", str(shards),
           "--workers", str(workers), "--worker-bin", run.bins.shard]
    if broker:
        cmd += ["--broker", broker]
    return cmd + flags


def read_report(jobdir):
    with open(os.path.join(jobdir, "report.json")) as f:
        return json.load(f)


def shard_processes(run, flags, shards, tag):
    """Run the N shards of @flags as concurrent qramsim_shard processes
    (what the drive's N workers do); returns each one's wall time."""
    procs = []
    for i in range(shards):
        out = run.path("%s-shard%d.json" % (tag, i))
        t0 = time.perf_counter()
        p = subprocess.Popen([run.bins.shard, "run", "--shard",
                              "%d/%d" % (i, shards), "--out", out] + flags,
                             cwd=run.dir, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        procs.append((p, t0))
    walls = []
    for p, t0 in procs:
        run.reap(p)
        walls.append(time.perf_counter() - t0)
    if any(p.returncode for p, _ in procs):
        raise BenchError("a qramsim_shard run failed")
    return walls


def drive_layers(run, unit, drive_walls, report):
    """drive.* from a unit's in-process layers and its drive runs."""
    need(drive_walls, "qramsim_drive run of the unit")
    if report is None:
        raise BenchError("no report.json from a successful drive run")
    walls = shard_processes(run, unit["flags"], unit["shards"], "probe")
    inproc = unit["layers"]["shard_total"]
    lay = unit["layers"]
    spawn = statistics.mean(w - t for w, t in zip(walls, inproc))
    merge = lay["sharding.decode_s"] + lay["sharding.merge_s"]
    return {
        "drive.spawn_overhead_s": spawn,
        "drive.overhead_s": median(drive_walls) - (max(walls) + merge),
        "drive.launched": report["launched"],
        "drive.retries": report["retries"],
    }


def unit_layers(run, flags, shards, reference=None):
    """The harness's per-layer probes of one tool-vocabulary workload,
    its N shards run concurrently in-process; with @reference, also the
    in-process counter-stream result.json written there."""
    ref = ["--reference", reference] if reference else []
    out = run.harness(["unit", "--trace", "1", "--shards", str(shards),
                       "--threads", str(threads_budget())] + ref
                      + ["--"] + flags)
    out["layers"]["shard_total"] = out["shard_total_s"]
    run.attempted += int(out["checked"])
    if out["failed"]:
        run.fail(int(out["failed"]), "unit checks failed")
    return {"flags": flags, "shards": shards, "layers": out["layers"]}


# ---------------------------------------------------------- service stack

SERVICE_WORKERS = 2
SERVICE_THREADS = 2  # workers x threads <= 4 compute threads
SERVICE_SHARDS = 2
MEM_POOL = 12        # > the worker's default compiled-cache capacity (8)
SERVICE_SHOT_POINTS = 128 * 3  # shots x sweep points of one job
SERVICE_STARTS = 15  # start-ups per run; setup_s is their median
PASS_JOBS = 12       # jobs per pass ...
PASS_RESUBMITS = 4   # ... of which resubmit an earlier fresh job
MIN_FRESH = 100      # fresh jobs per measured phase, at least
FILL_JOBS = 5        # completed jobs left in the journal before measuring:
FILL_SHOTS = 65536   # ~1 MB of payload each, past the default 4 MiB rotation


class Service:
    """A resident qramsim_broker and SERVICE_WORKERS pulling servers,
    sharing one journal (--state) and per-worker spill dirs across
    restarts."""

    def __init__(self, run, tag):
        self.run = run
        self.sock = "%s.sock" % tag  # relative: keeps the path short
        self.state = run.path(tag + "-state")
        self.spill = [run.path("%s-spill%d" % (tag, i))
                      for i in range(SERVICE_WORKERS)]
        self.procs = []
        for d in [self.state] + self.spill:
            os.makedirs(d)

    def start(self):
        """Start broker + workers, the broker replaying the journal left
        by earlier starts (--resume); returns seconds until all are
        ready."""
        t0 = time.perf_counter()
        try:
            self._spawn([self.run.bins.broker, "--socket", self.sock,
                         "--state", self.state, "--resume"])
            self._ready("brokering on", self.procs)
            for i, spill in enumerate(self.spill):
                self._spawn([self.run.bins.server, "--broker", self.sock,
                             "--name", "w%d" % i, "--threads",
                             str(SERVICE_THREADS), "--spill", spill])
            self._ready("pulling from", self.procs[1:])
        except BaseException:
            self.stop()
            raise
        return time.perf_counter() - t0

    def _spawn(self, cmd):
        self.procs.append(subprocess.Popen(
            cmd, cwd=self.run.dir, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True))

    @staticmethod
    def _ready(banner, procs):
        for p in procs:
            if not select.select([p.stdout], [], [], 30)[0]:
                raise BenchError("service process not ready after 30 s")
            line = p.stdout.readline()
            if banner not in line:
                raise BenchError("service process did not start: %r" % line)

    def stop(self):
        """SIGTERM (workers first) and reap; SIGKILL after 10 s."""
        for p in reversed(self.procs):
            p.send_signal(signal.SIGTERM)
        for p in reversed(self.procs):
            deadline = time.perf_counter() + 10
            while (self.run.reap(p, os.WNOHANG) is None
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            if p.returncode is None:
                p.kill()
                self.run.reap(p)
            p.stdout.close()
        self.procs = []

    def job(self, flags, jobdir):
        """Submit one job through qramsim_drive --broker; returns
        (latency s, drive exit code, report or None)."""
        rc, wall, _ = self.run.call(drive_cmd(
            self.run, jobdir, flags, SERVICE_SHARDS, SERVICE_SHARDS,
            broker=self.sock))
        report = read_report(jobdir) if rc == 0 else None
        return wall, rc, report

    def fill(self, seed):
        """Leave FILL_JOBS completed jobs in the journal, more payload
        than the broker's default rotation threshold (4 MiB), as a
        broker that has served for a while holds. Set-up, not a unit."""
        rng = random.Random(seed * 6151 + 5)
        for k in range(FILL_JOBS):
            flags = ["--arch", "bb", "--m", "2", "--noise", "gate-depol",
                     "--eps", "1e-3", "--factors", "1,0.3,0.1", "--shots",
                     str(FILL_SHOTS), "--seed",
                     str(rng.randrange(1, 2 ** 31)), "--mem-seed",
                     str(rng.randrange(1, 2 ** 31)), "--threads",
                     str(SERVICE_THREADS)]
            jobdir = self.run.path("fill%d" % k)
            _, rc, _ = self.job(flags, jobdir)
            if rc != 0:
                raise BenchError("journal fill job exited %d" % rc)
            shutil.rmtree(jobdir, ignore_errors=True)

    def footprint(self):
        """(journal bytes, spill bytes) on disk now."""
        return (dir_bytes(self.state),
                sum(dir_bytes(d) for d in self.spill))


def service_jobs(seed, n_passes):
    """The seeded job sequence: passes of PASS_JOBS jobs, PASS_RESUBMITS
    of them resubmitting an earlier fresh job, the rest fresh. Each job
    is (kind, fresh index, flags); a resubmit names the fresh index it
    repeats and has no flags of its own."""
    rng = random.Random(seed * 7919 + 3)
    pool = [rng.randrange(1, 2 ** 31) for _ in range(MEM_POOL)]
    n_fresh, passes = 0, []
    for _ in range(n_passes):
        kinds = (["fresh"] * (PASS_JOBS - PASS_RESUBMITS)
                 + ["hit"] * PASS_RESUBMITS)
        rng.shuffle(kinds)
        if not n_fresh:  # the first job of the sequence is fresh
            kinds.sort(key=lambda k: k != "fresh")
        jobs = []
        for kind in kinds:
            if kind == "hit" and n_fresh:
                jobs.append(("hit", rng.randrange(n_fresh), None))
                continue
            flags = ["--arch", "bb", "--m", "8", "--noise", "gate-depol",
                     "--eps", "1e-3", "--factors", "1,0.3,0.1",
                     "--shots", "128", "--seed",
                     str(rng.randrange(1, 2 ** 31)), "--mem-seed",
                     str(rng.choice(pool)), "--threads",
                     str(SERVICE_THREADS)]
            jobs.append(("fresh", n_fresh, flags))
            n_fresh += 1
        passes.append(jobs)
    return passes


def service_probe(run, seed):
    """service.* for workloads that do not use the service: one fresh
    and one resubmitted job of shard_service's job shape, on a journal
    filled as shard_service's is."""
    svc = Service(run, "probe")
    svc.start()
    try:
        svc.fill(seed)
        flags = service_jobs(seed, 1)[0][0][2]
        journal0, spill0 = svc.footprint()
        cold, rc1, _ = svc.job(flags, run.path("probe-j0"))
        journal1, spill1 = svc.footprint()
        _, rc2, _ = svc.job(flags, run.path("probe-j1"))
        run.attempted += 2
        if rc1 or rc2:
            run.fail(bool(rc1) + bool(rc2), "service probe job exited "
                     "nonzero")
        elif read_bytes(run.path("probe-j0", "result.json")) != \
                read_bytes(run.path("probe-j1", "result.json")):
            run.fail(1, "service probe resubmit differs from its cold run")
    finally:
        svc.stop()
    unit = unit_layers(run, flags, SERVICE_SHARDS)
    lay = unit["layers"]
    compute = lay["crit.build_s"] + lay["crit.ctor_s"] + lay["crit.eval_s"]
    return {
        "service.transport_s": cold - compute,
        "service.journal_bytes": journal1 - journal0,
        "service.spill_bytes": spill1 - spill0,
    }


# -------------------------------------------------------------- workloads


def paper_unit_flags(seed):
    """Figure 10's heaviest sweep (virtual m=6, phase flip) in the shard
    CLI's vocabulary: the same circuit, noise, factors and seed."""
    eps_r = [0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000]
    return ["--arch", "virtual", "--m", "6", "--k", "0", "--mem-seed",
            str(seed + 6), "--noise", "qubit-z", "--eps", "1e-3",
            "--rounds", str(2 * 6 + 3 + 2), "--factors",
            ",".join(repr(1.0 / e) for e in eps_r), "--shots", "1024",
            "--seed", str(seed + 6000), "--threads", "1"]


def paper_repro(run, seed, seconds, trace):
    threads = threads_budget()
    bench_csv = run.path("bench-csv")
    os.makedirs(bench_csv)
    for fig in run.bins.fig:
        rc, _, _ = run.call([fig, "--seed", str(seed), "--threads",
                             str(threads), "--csv", bench_csv])
        if rc != 0:
            run.fail(1, "%s exited %d" % (os.path.basename(fig), rc))
    if FORCE_FAIL:
        with open(os.path.join(bench_csv, "fig9_z.csv"), "a") as f:
            f.write("corrupted\n")
    os.makedirs(run.path("csv"))
    out = run.harness(["paper", "--seed", str(seed), "--threads",
                       str(threads), "--seconds", str(seconds), "--trace",
                       str(int(trace)), "--csv", run.path("csv"),
                       "--bench-csv", bench_csv])
    run.attempted += int(out["attempted"])
    if out["failed"]:
        run.fail(int(out["failed"]), "; ".join(out["notes"]))
    passes = [p for p in out["passes"] if not p["traced"]]
    if not trace:
        return {
            "setup_s": median([p["setup_s"] for p in passes]),
            "wall_s": median([p["compute_s"] for p in passes]),
            "shot_points_per_s": median(
                [p["shot_points"] / p["compute_s"] for p in passes]),
            "job_p50_s": median(out["fresh_call_s"]),
            "job_p90_s": quantile(out["fresh_call_s"], 0.9),
            "hit_p50_s": median(out["hit_call_s"]),
        }
    layers = dict(out["layers"])
    # drive.* on the figure's heaviest sweep run through the drive, whose
    # result.json must equal the in-process counter-stream sweep's.
    flags = paper_unit_flags(seed)
    ref = run.path("paper-reference.json")
    unit = unit_layers(run, flags, 4, reference=ref)
    reference = read_bytes(ref)
    walls, report = [], None
    for i in range(3):
        jobdir = run.path("paper-drive%d" % i)
        rc, wall, _ = run.call(drive_cmd(run, jobdir, flags, 4, 4))
        run.attempted += 1
        if rc != 0:
            run.fail(1, "qramsim_drive exited %d" % rc)
            continue
        if read_bytes(os.path.join(jobdir, "result.json")) != reference:
            run.fail(1, "drive result differs from in-process "
                     "estimateSweep")
        walls.append(wall)
        report = read_report(jobdir)
    layers.update(drive_layers(run, unit, walls, report))
    layers.update(service_probe(run, seed))
    return layers


SWEEP_RESUBMITS = 5  # --resume resubmits per fresh drive run


def sweep_flags(seed):
    rng = random.Random(seed * 104729 + 11)
    return ["--arch", "bb", "--m", "10", "--noise", "gate-depol",
            "--eps", "1e-4", "--factors", "1,0.1,0.01", "--shots", "1024",
            "--seed", str(rng.randrange(1, 2 ** 31)), "--mem-seed",
            str(rng.randrange(1, 2 ** 31))]


def sweep_m10(run, seed, seconds, trace):
    workers = threads_budget()  # one thread each: workers x threads <= 4
    flags = sweep_flags(seed) + ["--threads", "1"]
    ref = run.path("reference.json")
    setup = run.harness(["unit", "--reference", ref, "--"] + flags)
    run.attempted += int(setup["checked"])
    if setup["failed"]:
        run.fail(int(setup["failed"]), "scalar oracle / Z checks failed")
    reference = read_bytes(ref)
    if FORCE_FAIL:
        reference += b" "
    # Each pass runs the sweep fresh, then resubmits it: the same
    # command with --resume is served from the job's checkpoints.
    walls, hits, traced, untraced, report = [], [], [], [], None
    t_end = time.perf_counter() + seconds
    i = 0
    while i < 3 or time.perf_counter() < t_end:
        jobdir = run.path("drive%d" % i)
        cmd = drive_cmd(run, jobdir, flags, workers, workers)
        rc, wall, _ = run.call(cmd)
        run.attempted += 1
        if rc != 0:
            run.fail(1, "qramsim_drive exited %d" % rc)
        else:
            if read_bytes(os.path.join(jobdir, "result.json")) != reference:
                run.fail(1, "drive result differs from in-process "
                         "estimateSweep")
            walls.append(wall)
            # Traced passes (odd, in a traced run) also read the report.
            if trace and i % 2:
                report = read_report(jobdir)
                traced.append(wall)
            else:
                untraced.append(wall)
            cold = read_bytes(os.path.join(jobdir, "result.json"))
            for _ in range(SWEEP_RESUBMITS):
                rc, hit, _ = run.call(cmd[:1] + ["--resume"] + cmd[1:])
                run.attempted += 1
                if rc != 0:
                    run.fail(1, "qramsim_drive --resume exited %d" % rc)
                    continue
                if read_bytes(os.path.join(jobdir, "result.json")) != cold:
                    run.fail(1, "resumed drive result differs from its "
                             "cold run")
                hits.append(hit)
        shutil.rmtree(jobdir, ignore_errors=True)
        i += 1
    need(walls, "qramsim_drive run")
    need(hits, "qramsim_drive --resume run")
    points = 1024 * 3
    if not trace:
        return {
            "setup_s": median(setup["setup_s"]),
            "wall_s": median(walls),
            "shot_points_per_s": median([points / w for w in walls]),
            "job_p50_s": median(walls),
            "job_p90_s": quantile(walls, 0.9),
            "hit_p50_s": median(hits),
        }
    unit = unit_layers(run, flags, workers)
    layers = {k: v for k, v in unit["layers"].items()
              if not k.startswith("crit.") and k != "shard_total"}
    layers.update(drive_layers(run, unit, walls, report))
    lay = unit["layers"]
    accounted = (lay["crit.build_s"] + lay["crit.ctor_s"] +
                 lay["crit.eval_s"] + layers["drive.spawn_overhead_s"] +
                 lay["sharding.decode_s"] + lay["sharding.merge_s"])
    layers["recon.unaccounted_frac"] = 1.0 - accounted / median(walls)
    layers["trace.overhead_frac"] = (median(need(traced, "traced pass"))
                                     / median(untraced) - 1.0)
    layers.update(service_probe(run, seed))
    return layers


def shard_service(run, seed, seconds, trace):
    # Set-up: fill the journal past the broker's rotation threshold,
    # then restart the stack on it several times (each start replays
    # the journal); the last stack serves the measured phase.
    svc = Service(run, "svc")
    svc.start()
    try:
        svc.fill(seed)
    finally:
        svc.stop()
    starts = []
    for k in range(SERVICE_STARTS):
        starts.append(svc.start())
        if k < SERVICE_STARTS - 1:
            svc.stop()
    fresh_lat, hit_lat, pass_walls, pass_rates = [], [], [], []
    traced, untraced = [], []
    cold = {}    # fresh index -> (flags, result.json) of served jobs
    served = []  # report.json of every served job
    try:
        journal0, spill0 = svc.footprint()
        t_end = time.perf_counter() + seconds
        for pi, jobs in enumerate(service_jobs(seed, 1000)):
            # At least MIN_FRESH fresh jobs, so >= 10 lie beyond p90
            # even when a slow host fits fewer into --seconds.
            if (pi >= 2 and time.perf_counter() >= t_end
                    and len(fresh_lat) >= MIN_FRESH):
                break
            t0 = time.perf_counter()
            points = 0
            for kind, idx, flags in jobs:
                run.attempted += 1
                if kind == "hit":
                    if idx not in cold:
                        run.fail(1, "resubmit of a fresh job that failed")
                        continue
                    flags = cold[idx][0]
                jobdir = run.path("job%d" % run.attempted)
                lat, rc, report = svc.job(flags, jobdir)
                if rc != 0:
                    run.fail(1, "qramsim_drive --broker exited %d" % rc)
                    continue
                if report["broker_shards"] != SERVICE_SHARDS:
                    run.fail(1, "job not served by the broker")
                    continue
                served.append(report)
                result = read_bytes(os.path.join(jobdir, "result.json"))
                if kind == "fresh":
                    cold[idx] = (flags, result)
                    fresh_lat.append(lat)
                    points += SERVICE_SHOT_POINTS
                else:
                    expect = cold[idx][1] + (b" " if FORCE_FAIL else b"")
                    if result != expect:
                        run.fail(1, "resubmitted job differs from its "
                                 "cold run")
                    hit_lat.append(lat)
                shutil.rmtree(jobdir, ignore_errors=True)
            wall = time.perf_counter() - t0
            pass_walls.append(wall)
            pass_rates.append(points / wall)
            (traced if trace and pi % 2 else untraced).append(wall)
        journal1, spill1 = svc.footprint()
    finally:
        svc.stop()
    need(fresh_lat, "fresh shard_service job")
    need(hit_lat, "resubmitted shard_service job")
    # The Scalar oracle on the first served fresh job's general
    # realizations.
    first = cold[min(cold)][0]
    oracle = run.harness(["unit", "--"] + first)
    run.attempted += int(oracle["checked"])
    if oracle["failed"]:
        run.fail(int(oracle["failed"]), "default engine != Scalar oracle")
    log("shard_service: %d fresh jobs, %d resubmits, %d passes, "
        "journal %d -> %d B" % (len(fresh_lat), len(hit_lat),
                                len(pass_walls), journal0, journal1))
    if not trace:
        return {
            "setup_s": median(starts),
            "wall_s": median(pass_walls),
            "shot_points_per_s": median(pass_rates),
            "job_p50_s": median(fresh_lat),
            "job_p90_s": quantile(fresh_lat, 0.9),
            "hit_p50_s": median(hit_lat),
        }
    unit = unit_layers(run, first, SERVICE_SHARDS)
    lay = unit["layers"]
    layers = {k: v for k, v in lay.items()
              if not k.startswith("crit.") and k != "shard_total"}
    walls = []
    for i in range(3):
        jobdir = run.path("svc-drive%d" % i)
        rc, wall, _ = run.call(drive_cmd(run, jobdir, first,
                                         SERVICE_SHARDS, SERVICE_SHARDS))
        run.attempted += 1
        if rc != 0:
            run.fail(1, "qramsim_drive exited %d" % rc)
            continue
        walls.append(wall)
    layers.update(drive_layers(run, unit, walls, {
        "launched": statistics.mean(r["launched"] for r in served),
        "retries": statistics.mean(r["retries"] for r in served)}))
    compute = lay["crit.build_s"] + lay["crit.ctor_s"] + lay["crit.eval_s"]
    merge = lay["sharding.decode_s"] + lay["sharding.merge_s"]
    p50 = median(fresh_lat)
    layers["service.transport_s"] = p50 - compute
    layers["service.journal_bytes"] = (journal1 - journal0) / len(fresh_lat)
    layers["service.spill_bytes"] = (spill1 - spill0) / len(fresh_lat)
    layers["recon.unaccounted_frac"] = 1.0 - (compute + merge) / p50
    layers["trace.overhead_frac"] = (median(need(traced, "traced pass"))
                                     / median(need(untraced,
                                                   "untraced pass")) - 1.0)
    return layers


# ------------------------------------------------------------------ output


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def host_profile(run):
    prof = run.harness(["profile"])
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    if rev == "unknown":
        # Outside git: a digest of the sources the build compiles.
        h = hashlib.sha256()
        for sub in ("src", "tools", "bench", "perfbench"):
            for base, dirs, files in sorted(os.walk(os.path.join(ROOT, sub))):
                dirs.sort()
                for name in sorted(files):
                    p = os.path.join(base, name)
                    h.update(os.path.relpath(p, ROOT).encode())
                    h.update(read_bytes(p))
        h.update(read_bytes(os.path.join(ROOT, "CMakeLists.txt")))
        rev = "src-" + h.hexdigest()[:12]
    prof["git_rev"] = rev
    return prof


def cpu_ticks():
    """The aggregate /proc/stat CPU counters (user ... steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def measure(args):
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    bins = Bins(build())
    workdir = os.path.join(ROOT, ".bench_out", "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = Run(bins, workdir)
    try:
        profile = host_profile(run)
        fn = {"paper_repro": paper_repro, "sweep_m10": sweep_m10,
              "shard_service": shard_service}[args.workload]
        ticks0 = cpu_ticks()
        values = fn(run, args.seed, args.seconds, args.trace)
        ticks1 = cpu_ticks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if not args.trace:
        values["peak_rss_mb"] = max(
            run.peak_rss_kb,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0
    else:
        values["fail_frac"] = run.failed / max(1, run.attempted)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    if bad:
        raise BenchError("non-finite metrics: " + ", ".join(bad))
    # Hypervisor steal over the run: a contended host slows every
    # metric, so records taken under heavy steal are not comparable.
    steal = None
    if ticks0 and ticks1 and len(ticks1) == 8:
        delta = [b - a for a, b in zip(ticks0, ticks1)]
        steal = delta[7] / max(1, sum(delta))
    record = {"record": "perfbench", "profile": profile,
              "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": int(args.trace),
              "host_steal_frac": steal, "notes": run.notes,
              "metrics": metrics}
    print(json.dumps(record, sort_keys=True))
    return {"correct": run.failed == 0, "attempted": max(1, run.attempted),
            "failed": run.failed, "metrics": metrics}


def read_records(path):
    """The record lines in a file of saved run stdout (any number of
    runs, other lines ignored)."""
    recs = []
    with open(path) as f:
        for line in f:
            try:
                r = json.loads(line)
            except ValueError:
                continue
            if isinstance(r, dict) and r.get("record") == "perfbench":
                recs.append(r)
    return recs


def compare(paths):
    """Median of each metric per workload in two files of saved run
    stdout; refuses records whose host profiles differ (other than the
    revision)."""
    sets = [read_records(p) for p in paths]
    for p, recs in zip(paths, sets):
        if not recs:
            log("no perfbench records in %s" % p)
            return 2
    profiles = {json.dumps({k: r["profile"].get(k) for k in PROFILE_KEYS},
                           sort_keys=True)
                for recs in sets for r in recs}
    if len(profiles) != 1:
        log("refusing to compare across host profiles:\n  "
            + "\n  ".join(sorted(profiles)))
        return 3
    keys = sorted({(r["workload"], r["trace"], m)
                   for recs in sets for r in recs for m in r["metrics"]})
    print("%-14s %-32s %14s %14s %8s" % ("workload", "metric", "A median",
                                         "B median", "B/A"))
    for wl, tr, m in keys:
        meds = []
        for recs in sets:
            vals = [r["metrics"][m]["value"] for r in recs
                    if r["workload"] == wl and r["trace"] == tr
                    and m in r["metrics"]]
            meds.append(median(vals) if vals else float("nan"))
        ratio = meds[1] / meds[0] if meds[0] else float("nan")
        print("%-14s %-32s %14.6g %14.6g %8.3f" % (wl, m, meds[0], meds[1],
                                                   ratio))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="STDOUT",
                    help="compare two files of saved run stdout")
    args = ap.parse_args()
    if args.compare:
        return compare(args.compare)
    if not args.workload:
        ap.error("--workload is required")
    try:
        result = measure(args)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
