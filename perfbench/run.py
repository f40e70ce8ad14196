#!/usr/bin/env python3
"""Build and run the PRAN benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. Builds perfbench/ (and the src/ libraries it links) in
      Release under .bench_build/, then runs the harness. The last line of
      standard output is the result JSON; the line before it holds the
      host/build context and per-run detail.

  python3 perfbench/run.py --smoke
      Every workload at tiny size, untraced and traced: checks that each
      metric named in BENCHMARK.json prints with its unit.

  python3 perfbench/run.py --selftest
      Checks that timing from outside does not perturb the program.

  python3 perfbench/run.py --spread --workload W --seeds 1-10 [--trace 0]
      Runs one seed after another and prints, per metric, the median and
      the quartile spread as a share of the median, against the bounds in
      BENCHMARK.json.

  python3 perfbench/run.py --record-refs 0-15 [--workload W]
      Rewrites perfbench/refs/<workload>.json for those seeds. Only for a
      change that is meant to alter simulated or decoded results.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pool_steady", "pool_stressed", "uplink_rx", "placement_milp"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def source_revision():
    """The git commit when the checkout has one, else a digest of the
    sources the benchmark builds (src/ and perfbench/)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def refs_path(workload):
    return os.path.join(HERE, "refs", workload + ".json")


def run_once(binary, workload, seed, seconds, trace, extra=(), refs=True):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", source_revision()]
    if refs:
        cmd += ["--refs", refs_path(workload)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "spans-%s.bin" % workload)]
    cmd += list(extra)
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += range(int(lo), int(hi) + 1)
        else:
            seeds.append(int(part))
    return seeds


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(binary):
    spec = load_spec()
    ok = True
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            # References hold full-size fingerprints; smoke sizes differ.
            proc = run_once(binary, w, 1, 1, trace, ["--smoke"], refs=False)
            res = last_json(proc.stdout) if proc.returncode == 0 else None
            if res is None:
                print("smoke %s trace=%d: no result" % (w, trace))
                ok = False
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            bad = [n for n in want if got.get(n) != want[n]]
            extra = [n for n in got if n not in want]
            status = "ok" if not bad and not extra and res["correct"] else "FAIL"
            ok = ok and status == "ok"
            print("smoke %s trace=%d: %d metrics, correct=%s: %s%s%s" % (
                w, trace, len(got), res["correct"], status,
                " missing/wrong unit: %s" % bad if bad else "",
                " unexpected: %s" % extra if extra else ""))
    return 0 if ok else 1


def spread(binary, workload, seeds, trace, seconds):
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in seeds:
        proc = run_once(binary, workload, seed, seconds, trace)
        res = last_json(proc.stdout)
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, res["correct"], res["attempted"], res["failed"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in res["metrics"].items())))
        sys.stdout.flush()
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vals in values.items():
        if len(vals) < 2:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(k)
        note = ""
        if bound:
            note = "bound %.2f: %s" % (bound, "ok" if share < bound / 3 else
                                      "within" if share <= bound else "OVER")
        print("%-32s median %-12.6g spread %.4f %s" % (k, med, share, note))
    return 0


def record(binary, workloads, seeds):
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    for w in workloads:
        path = refs_path(w)
        refs = {}
        if os.path.exists(path):
            with open(path) as f:
                refs = json.load(f)
        for seed in seeds:
            with tempfile.NamedTemporaryFile(dir=build_dir(), suffix=".json",
                                             delete=False) as tmp:
                out = tmp.name
            cmd = [binary, "--workload", w, "--seed", str(seed),
                   "--seconds", "0.1", "--trace", "0", "--record", out]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            res = last_json(proc.stdout)
            if proc.returncode != 0 or not res or res["failed"]:
                sys.stderr.write("record %s seed %d failed\n" % (w, seed))
                return 1
            with open(out) as f:
                refs[str(seed)] = json.load(f)
            os.unlink(out)
            print("recorded %s seed %d" % (w, seed))
        with open(path, "w") as f:
            json.dump(refs, f, sort_keys=True, separators=(",", ":"))
            f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--spread", action="store_true")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--record-refs", metavar="SEEDS")
    args = ap.parse_args()

    binary = build()
    if args.smoke:
        return smoke(binary)
    if args.selftest:
        return subprocess.run([binary, "--selftest"], cwd=ROOT).returncode
    if args.record_refs:
        workloads = [args.workload] if args.workload else WORKLOADS
        return record(binary, workloads, parse_seeds(args.record_refs))
    if args.spread:
        if not args.workload:
            ap.error("--spread needs --workload")
        seconds = args.seconds or load_spec()["run_seconds"]
        return spread(binary, args.workload, parse_seeds(args.seeds),
                      args.trace, seconds)
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    proc = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
