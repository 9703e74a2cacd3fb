#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the repository root.

    python3 perfbench/selfcheck.py spread [--workloads W ...] [--seeds N]
        Runs each workload untraced on seeds 1..N (default 10) and prints,
        per end-to-end metric, the median and the quartile spread
        (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
    python3 perfbench/selfcheck.py repeat [--workloads W ...] [--seed S]
                                          [--runs N] [--sets K]
        The same on one seed (default 42), N runs (default 10) per set, K
        sets (default 2) one after another; then, per metric, how far each
        later set's median moved from the first set's, against the bound.
        Seeds vary the document; repeating one seed shows run-to-run noise
        alone.
    python3 perfbench/selfcheck.py counters [--seed S]
        Runs table2_paged and table2_bp traced, twice each with one seed:
        the single-client work counters must repeat exactly, B+t, B+v and
        B+p fetches must match across the two tiers (B+i fetches are
        printed: only the paged tier resolves positions through B+i), the
        paged tier must take no BP steps, and the BP tier must touch no tree
        pages.
    python3 perfbench/selfcheck.py heldout
        Runs every workload untraced and traced on the held-out seed; every
        run must pass its correctness gate.
    python3 perfbench/selfcheck.py bare
        Copies only BENCHMARK.json and perfbench/ into an empty directory
        under .bench_build and checks the benchmark fails there without
        printing a result.

Exit code 0 when every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
DEFAULT_SEED = 42
HELDOUT_SEED = 7
# Work counters of one client in fixed order; they must repeat exactly.
COUNTERS = ("results", "btree.tag.fetches", "btree.value.fetches",
            "btree.id.fetches", "btree.path.fetches",
            "buffer_pool.tree.fetches", "string_store.pages_scanned",
            "bp_index.steps")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (exit code, parsed result line or None)."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode != 0 or result is None or not result["correct"]:
        print("\n".join(l for l in lines if l.startswith("FAILED")))
    return done.returncode, result


def collect(workload, seeds, seconds):
    """Runs the workload untraced once per seed; returns (ok, values)."""
    ok = True
    values = {}
    for seed in seeds:
        code, result = run(workload, seed, seconds, 0)
        if code != 0 or result is None or not result["correct"]:
            print(f"{workload} seed {seed}: FAILED")
            ok = False
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return ok, values


def summarize(label, values, bounds):
    """Prints each metric's median and quartile spread; returns medians."""
    medians = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        rel = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s" and rel > bound / 3:
            mark = "  <-- above a third of the bound"
        print(f"{label:20s} {name:26s} median={med:<12.6g} "
              f"spread={rel:.4f} bound={bound}{mark}")
        print("    values: " + " ".join(f"{v:.6g}" for v in vals))
        medians[name] = med
    return medians


def spread(args, bench):
    ok = True
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        good, values = collect(workload, range(1, args.seeds + 1),
                               bench["run_seconds"])
        ok = ok and good
        summarize(workload, values, bounds)
    return ok


def repeat(args, bench):
    ok = True
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    bounds = {name: m["bound"] for name, m in metrics.items()}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        sets = []
        for k in range(args.sets):
            good, values = collect(workload, [args.seed] * args.runs,
                                   bench["run_seconds"])
            ok = ok and good
            sets.append(summarize(f"{workload} set {k + 1}", values, bounds))
        for k in range(1, len(sets)):
            for name, first in sets[0].items():
                later = sets[k].get(name, first)
                change = (later - first) / first if first else 0.0
                worse = (change if metrics[name]["better"] == "lower"
                         else -change)
                mark = ("  <-- worse by more than the bound"
                        if worse > bounds[name] else "")
                print(f"{workload:13s} {name:26s} set {k + 1} vs set 1: "
                      f"{change:+.4f} bound={bounds[name]}{mark}")
    return ok


def per_query(workload, seed):
    path = os.path.join(ROOT, ".bench_build", "out",
                        f"{workload}-seed{seed}-queries.json")
    with open(path) as f:
        return {q["id"]: q for q in json.load(f)}


def counters(args, bench):
    ok = True
    runs = {}
    for workload in ("table2_paged", "table2_bp"):
        seen = []
        for _ in range(2):
            code, result = run(workload, args.seed, 4, 1)
            if code != 0:
                print(f"{workload}: traced run FAILED")
                return False
            seen.append(per_query(workload, args.seed))
        for qid, row in seen[0].items():
            keys = [k for k in row if k in COUNTERS or k.endswith("_rows_out")]
            diff = [k for k in keys if row[k] != seen[1][qid][k]]
            if diff:
                print(f"{workload} {qid}: counters differ between runs: {diff}")
                ok = False
        runs[workload] = seen[0]
    paged, bp = runs["table2_paged"], runs["table2_bp"]
    for qid in paged:
        for k in ("btree.tag.fetches", "btree.value.fetches",
                  "btree.path.fetches"):
            if paged[qid][k] != bp[qid][k]:
                print(f"{qid} {k}: paged {paged[qid][k]} != bp {bp[qid][k]}")
                ok = False
        if paged[qid]["bp_index.steps"] != 0:
            print(f"{qid}: paged tier took BP steps")
            ok = False
        for k in ("buffer_pool.tree.fetches", "string_store.pages_scanned"):
            if bp[qid][k] != 0:
                print(f"{qid} {k}: BP tier touched {bp[qid][k]} tree pages")
                ok = False
    # B+i is not tier-neutral: the paged tier resolves Dewey IDs to
    # positions through B+i lookups, the BP tier walks the BP index.
    id_paged = sum(q["btree.id.fetches"] for q in paged.values())
    id_bp = sum(q["btree.id.fetches"] for q in bp.values())
    print(f"btree.id.fetches per round: paged {id_paged}, bp {id_bp}")
    print("counters: " + ("ok" if ok else "FAILED"))
    return ok


def heldout(args, bench):
    ok = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            code, result = run(w["name"], HELDOUT_SEED, 4, trace)
            good = code == 0 and result is not None and result["correct"]
            print(f"{w['name']} seed {HELDOUT_SEED} trace {trace}: "
                  + ("ok" if good else "FAILED"))
            ok = ok and good
    return ok


def bare(args, bench):
    target = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), target)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(target, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(bench["command"] + [
        "--workload", bench["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"], cwd=target,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=180)
    shutil.rmtree(target, ignore_errors=True)
    good = done.returncode != 0 and '"correct"' not in done.stdout
    print("bare checkout: " + ("fails as expected" if good else "FAILED"))
    return good


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="check", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--seeds", type=int, default=10)
    p = sub.add_parser("repeat")
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p = sub.add_parser("counters")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_parser("heldout")
    sub.add_parser("bare")
    args = parser.parse_args()
    checks = {"spread": spread, "repeat": repeat, "counters": counters,
              "heldout": heldout, "bare": bare}
    return 0 if checks[args.check](args, load_benchmark()) else 1


if __name__ == "__main__":
    sys.exit(main())
