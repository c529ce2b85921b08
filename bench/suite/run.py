#!/usr/bin/env python3
"""Build and run cs_bench, the end-to-end and per-layer benchmark.

Run from the repository root:

  python3 bench/suite/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--trace-out FILE]
      Build bench/suite into .bench_build/ (first run only), run one
      workload, echo its `<workload> <metric> <value> <unit>` lines and
      end with one JSON line: {"correct", "attempted", "failed",
      "metrics"}. --trace 0 reports BENCHMARK.json's end_to_end
      metrics, --trace 1 its per_layer metrics.

  python3 bench/suite/run.py --sweep --runs N --out FILE [--seconds S]
      Run every workload N times untraced, with seeds 1..N, and write
      every run plus each metric's median and quartiles and the
      provenance to FILE.

  python3 bench/suite/run.py --compare A.json B.json
      Compare two sweep files metric by metric against BENCHMARK.json's
      bounds. The deterministic metrics must be identical in every run
      of both sets, and the replay digests seed by seed. Exits 1 if an
      end-to-end metric regressed or a deterministic result differs.

  python3 bench/suite/run.py --smoke [--binary PATH]
      Every workload at 4 nodes x 12 quanta, traced, at pool widths 1
      and 3: every declared metric printed, no failed ops, identical
      deterministic metrics at both widths.

--binary PATH runs an already built cs_bench instead of building one
(the top-level build's bench_suite_smoke test passes its own).

Exit status: 0 when every check passed, 1 when a check failed, 2 when
the benchmark cannot be built or run here.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = ROOT / "bench" / "suite"
BUILD = ROOT / ".bench_build" / "cs_bench"
WORKLOADS = ["node-full", "fleet-calm", "fleet-churn", "fleet-dag"]
# Metrics read from the episode at the workload's committed seed: they
# must repeat exactly in every run, whatever --seed and pool width.
DETERMINISTIC = ["qos_pct", "batch_ginstr", "drop_pct",
                 "makespan_gmean_quanta"]
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot be built or run in this checkout."""


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def binary(args):
    """The cs_bench to run: --binary, or a fresh build of this tree."""
    if args.binary:
        return Path(args.binary)
    build()
    return BUILD / "cs_bench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no src/CMakeLists.txt: not a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def parse(stdout):
    """Split cs_bench output into provenance and metric dictionaries."""
    provenance, metrics = {}, {}
    for line in stdout.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            provenance[key] = value
            continue
        fields = line.split()
        if len(fields) != 4:
            continue
        try:
            value = float(fields[2])
        except ValueError:
            continue
        metrics[fields[1]] = {"value": value, "unit": fields[3]}
    return provenance, metrics


def run_bench(exe, workload, seed, seconds, trace, trace_out=None,
              smoke=False, pool_threads=None, echo=True):
    """Run cs_bench once; returns (exit code, provenance, metrics)."""
    cmd = [str(exe), "--workload", workload, "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    if pool_threads is not None:
        env["CS_POOL_THREADS"] = str(pool_threads)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, {}, {}
    if echo:
        sys.stdout.write(proc.stdout)
    provenance, metrics = parse(proc.stdout)
    return proc.returncode, provenance, metrics


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def quartiles(values):
    """(p25, median, p75) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_run(args):
    declared = spec()["per_layer" if args.trace else "end_to_end"]
    code, _, metrics = run_bench(binary(args), args.workload, args.seed,
                                 args.seconds, args.trace, args.trace_out)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    for name in missing:
        log(f"{args.workload}: metric {name} was not printed")
    correct = code == 0 and not missing
    # A run that died before counting its operations failed them all.
    attempted = max(1, int(metrics.get("ops", {}).get("value", 1)))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": int(metrics.get("failed_ops", {}).get("value",
                                                        attempted)),
        "metrics": {m["name"]: metrics[m["name"]] for m in declared
                    if m["name"] in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def cmd_sweep(args):
    exe = binary(args)
    out = {"provenance": {"commit": git_commit()}, "seconds": args.seconds,
           "runs": {}, "summary": {}}
    status = 0
    for workload in WORKLOADS:
        runs = []
        for seed in range(1, args.runs + 1):
            code, provenance, metrics = run_bench(exe, workload, seed,
                                                  args.seconds, False,
                                                  echo=False)
            log(f"{workload} seed {seed}: exit {code}")
            if code != 0:
                status = 1
            for key in ("compiler", "build_type", "nproc",
                        "CS_POOL_THREADS", "pool_slots", "kernels"):
                if key in provenance:
                    out["provenance"][key] = provenance[key]
            runs.append({"seed": seed, "exit": code,
                         "digest": provenance.get("digest"),
                         "metrics": {name: m["value"]
                                     for name, m in metrics.items()}})
        out["runs"][workload] = runs
        summary = {}
        for name in runs[0]["metrics"] if runs else []:
            values = [r["metrics"][name] for r in runs
                      if name in r["metrics"]]
            p25, median, p75 = quartiles(values)
            summary[name] = {"median": median, "p25": p25, "p75": p75,
                             "n": len(values)}
        out["summary"][workload] = summary
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return status


def verdict(a, b, better, bound):
    """Classify B against A for one metric: the lists are run values."""
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (med_b - med_a) / med_a  # > 0 means B is worse
    spread = max((qa[2] - qa[0]) / med_a, (qb[2] - qb[0]) / med_b)
    if better == "lower":
        all_better, all_worse = max(b) < min(a), min(b) > max(a)
    else:
        all_better, all_worse = min(b) > max(a), max(b) < min(a)
    if all_better:
        word = "improved"
    elif spread > bound and not all_worse:
        word = "unresolved"
    elif change > bound:
        word = "regressed"
    else:
        word = "unchanged"
    return qa, qb, change, spread, word


def cmd_compare(args):
    bench = spec()
    sets = [json.loads(Path(p).read_text()) for p in args.compare]
    regressed = 0
    print(f"{'workload':<12} {'metric':<24} {'A median [p25, p75]':>30} "
          f"{'B median [p25, p75]':>30} {'change':>8} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for workload in WORKLOADS:
        runs_a = sets[0]["runs"].get(workload)
        runs_b = sets[1]["runs"].get(workload)
        if not runs_a or not runs_b:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name] for r in runs_a if name in r["metrics"]]
            b = [r["metrics"][name] for r in runs_b if name in r["metrics"]]
            if not a or not b:
                continue
            qa, qb, change, spread, word = verdict(
                a, b, metric["better"], metric["bound"])
            regressed += word == "regressed"
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
            print(f"{workload:<12} {name:<24} {fmt(qa):>30} {fmt(qb):>30} "
                  f"{100 * change:>+7.2f}% {100 * spread:>6.2f}% "
                  f"{100 * metric['bound']:>5.1f}%  {word}")
        # The quality metrics come from the committed seed, so every run
        # must read the same; runs of one seed must replay the same
        # episode.
        runs = runs_a + runs_b
        quality = {tuple(r["metrics"].get(n) for n in DETERMINISTIC)
                   for r in runs}
        by_seed = {r["seed"]: r for r in runs_a}
        differ = [r["seed"] for r in runs_b if r["seed"] in by_seed
                  and r.get("digest") != by_seed[r["seed"]].get("digest")]
        print(f"{workload:<12} deterministic metrics: "
              + ("identical" if len(quality) == 1 else "differ")
              + f" in all {len(runs)} runs; replay digests "
              + ("identical" if not differ else f"differ for seeds {differ}"))
        regressed += len(quality) != 1 or bool(differ)
    return 1 if regressed else 0


def cmd_smoke(args):
    bench = spec()
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    exe = binary(args)
    failures = []
    for workload in WORKLOADS:
        before = len(failures)
        seen = {}
        for width in (1, 3):
            code, provenance, metrics = run_bench(
                exe, workload, None, 1, True, smoke=True,
                pool_threads=width, echo=False)
            if code != 0:
                failures.append(f"{workload} width {width}: exit {code}")
            missing = [n for n in declared if n not in metrics]
            if missing:
                failures.append(f"{workload} width {width}: missing "
                                + ", ".join(missing))
            if metrics.get("failed_ops", {}).get("value", 1) != 0:
                failures.append(f"{workload} width {width}: failed ops")
            if not all(math.isfinite(m["value"]) for m in metrics.values()):
                failures.append(f"{workload} width {width}: non-finite")
            seen[width] = ([metrics.get(n, {}).get("value")
                            for n in DETERMINISTIC],
                           provenance.get("digest"))
        if seen[1] != seen[3]:
            failures.append(f"{workload}: widths 1 and 3 disagree")
        ok = len(failures) == before
        log(f"smoke {workload}: {'ok' if ok else 'FAILED'}")
    for f in failures:
        log(f)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary")
    args = parser.parse_args()
    try:
        if args.compare:
            return cmd_compare(args)
        if args.smoke:
            return cmd_smoke(args)
        if args.sweep:
            if not args.out:
                parser.error("--sweep needs --out")
            return cmd_sweep(args)
        if not args.workload:
            parser.error("--workload is required")
        return cmd_run(args)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
