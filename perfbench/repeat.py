#!/usr/bin/env python3
"""Repeat-run tool for the PerfSight benchmark.

Run a workload N times (one seed per run) and summarise each metric:

    python3 perfbench/repeat.py run --workload fleet_pull --runs 10 \\
        --out .bench_out/pull-base.json

Compare two sets of runs against the bounds in BENCHMARK.json:

    python3 perfbench/repeat.py compare .bench_out/pull-base.json \\
        .bench_out/pull-new.json

Seeds: tuning runs use seeds 1, 2, 3, ...; `--held-out` runs the held-out
seed HELD_OUT_SEED instead (every run on the same seed), so a claim tuned
on the first seeds can be checked on data it was not tuned on.

The summary gives, per metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)), and the spread: the distance between
the quartiles as a share of the median.  `compare` reports each end-to-end
metric's change of median as a share of the first set's median, signed so
that a positive number is a change for the worse, and judges it against the
metric's bound: "worse" when the change exceeds the bound, "unresolved"
when either set's spread exceeds the bound, else "ok".
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 7919


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.exit("run failed (seed %d): exit %d" % (seed, done.returncode))
    return json.loads(done.stdout.strip().split("\n")[-1])


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs):
    names = list(runs[0]["metrics"])
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def print_summary(runs):
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print("%d runs, %d/%d windows failed, all correct: %s"
          % (len(runs), failed, attempted, correct))
    print("%-34s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                         "spread"))
    for name, s in summarise(runs).items():
        print("%-34s %14.6g %14.6g %14.6g %7.2f%% %s"
              % (name, s["median"], s["q1"], s["q3"], 100 * s["spread"],
                 s["unit"]))


def cmd_run(args):
    runs = []
    for i in range(args.runs):
        seed = HELD_OUT_SEED if args.held_out else i + 1
        r = one_run(args.workload, seed, args.seconds, args.trace)
        r["seed"] = seed
        runs.append(r)
        print("seed %d: attempted %d failed %d" % (seed, r["attempted"],
                                                    r["failed"]),
              file=sys.stderr)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "runs": runs}, f, indent=1)
    print_summary(runs)


def cmd_show(args):
    with open(args.file) as f:
        print_summary(json.load(f)["runs"])


def cmd_compare(args):
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sb, sn = summarise(base["runs"]), summarise(new["runs"])
    worse_any = False
    print("%-20s %14s %14s %9s %7s  %s" % ("metric", "base median",
                                          "new median", "change", "bound",
                                          "verdict"))
    for name, m in bounds.items():
        if name not in sb or name not in sn:
            continue
        b, n = sb[name]["median"], sn[name]["median"]
        change = (n - b) / b if b else 0.0
        if m["better"] == "higher":
            change = -change
        if change > m["bound"]:
            verdict = "worse"
            worse_any = True
        elif max(sb[name]["spread"], sn[name]["spread"]) > m["bound"]:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print("%-20s %14.6g %14.6g %+8.2f%% %6.0f%%  %s"
              % (name, b, n, 100 * change, 100 * m["bound"], verdict))
    return 1 if worse_any else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run a workload N times and summarise")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--held-out", action="store_true",
                   help="use the held-out seed for every run")
    r.add_argument("--seconds", type=int,
                   default=load_spec()["run_seconds"])
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", help="save the runs as JSON")
    s = sub.add_parser("show", help="summarise a saved set of runs")
    s.add_argument("file")
    c = sub.add_parser("compare", help="compare two saved sets of runs")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "run":
        cmd_run(args)
    elif args.cmd == "show":
        cmd_show(args)
    else:
        sys.exit(cmd_compare(args))


if __name__ == "__main__":
    main()
