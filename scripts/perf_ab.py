#!/usr/bin/env python3
"""A/B runner for the repository benchmark (perfbench, see BENCHMARK.json).

Builds perfbench at two revisions, each from a clean export of that revision
(`git archive`) into its own directory with its own cargo target directory,
offline.  Then, per workload, it runs N alternating pairs on fixed seeds
(pair i uses seed SEED + i for both sides, and the side that runs first
alternates, so a drifting host does not favour one side), and optionally K
traced pairs for the per-layer metrics.

For every metric it prints the base and head medians, the base quartiles,
how many pairs the head won (by the metric's "better" direction), and the
per-pair head/base ratios.  An end-to-end metric whose head median is worse
than the base median by more than its BENCHMARK.json bound is flagged.  The
raw runs are written to WORK/ab-results.json.

It only reads BENCHMARK.json; the benchmark itself is not modified.

    scripts/perf_ab.py --base HEAD~1 --head HEAD --pairs 10 --seconds 40
    scripts/perf_ab.py --base HEAD --head WORKTREE --pairs 3 --seconds 16 \\
        --workloads sampled --traced 1

`--head WORKTREE` exports the working tree (tracked and untracked, not
ignored files) instead of a commit.  Exit status: 0 when every run reported
`correct: true` and no end-to-end metric is past its bound, 1 otherwise.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args, **kw):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, **kw)


def export(rev, dest):
    """Writes a clean tree of `rev` (or of the working tree) into `dest`."""
    dest.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile() as tar:
        if rev == "WORKTREE":
            files = git("ls-files", "-co", "--exclude-standard", "-z",
                        capture_output=True).stdout.decode().split("\0")
            with tarfile.open(fileobj=tar, mode="w") as out:
                for name in filter(None, files):
                    if (ROOT / name).exists():
                        out.add(ROOT / name, arcname=name, recursive=False)
        else:
            git("archive", "--format=tar", rev, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as src:
            src.extractall(dest)


def build(tree, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/Cargo.toml"],
        cwd=tree, env=env, check=True)
    return target / "release" / "perfbench"


# A traced run's replay line, e.g. "surrogate replay: 8192 configs, traced
# 1416.0 ms vs untraced serial engine 1379.2 ms, coverage 0.9964".
REPLAY = re.compile(r"(\w+)\s+replay: (\d+) configs, .*untraced serial engine ([\d.]+) ms")


def run(binary, tree, workload, seed, seconds, trace):
    """One perfbench run; returns its final JSON line, parsed.  A traced run
    also gets `serial_configs_per_s.<phase>`, the rate of its untraced
    serial engine pass, read from the replay line."""
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"perfbench failed ({binary}, {workload}, seed {seed}):\n{out.stderr}")
    result = json.loads(lines[-1])
    for phase, configs, ms in REPLAY.findall(out.stdout):
        result["metrics"][f"serial_configs_per_s.{phase}"] = {
            "value": int(configs) / (float(ms) / 1e3), "unit": "1/s"}
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(workload, traced, pairs, directions, bounds):
    """Prints one table; returns the names of metrics past their bound."""
    kind = "traced" if traced else "untraced"
    print(f"\n== {workload}, {kind}: {len(pairs)} pairs "
          f"(correct base/head: {sum(b['correct'] for b, _ in pairs)}/"
          f"{sum(h['correct'] for _, h in pairs)}, failed ops base/head: "
          f"{sum(b['failed'] for b, _ in pairs)}/{sum(h['failed'] for _, h in pairs)})")
    print(f"{'metric':<34}{'base med':>12}{'base IQR':>26}{'head med':>12}"
          f"{'change':>9}{'wins':>7}  per-pair head/base")
    past = []
    names = [n for n in pairs[0][0]["metrics"] if all(
        n in b["metrics"] and n in h["metrics"] for b, h in pairs)]
    for name in names:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        better = directions.get(name, "higher" if "configs_per_s" in name else "lower")
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        ratios = " ".join(f"{h / b:.2f}" if b else "-" for b, h in zip(base, head))
        mb, mh = statistics.median(base), statistics.median(head)
        q1, q3 = quartiles(base)
        change = (mh - mb) / mb if mb else 0.0
        flag = ""
        if name in bounds and -sign * change > bounds[name]:
            flag = f"  PAST BOUND {bounds[name]}"
            past.append(f"{workload}:{name}")
        print(f"{name:<34}{mb:>12.4g}{f'[{q1:.4g}, {q3:.4g}]':>26}{mh:>12.4g}"
              f"{change:>+9.1%}{f'{wins}/{len(pairs)}':>7}  {ratios}{flag}")
    return past


def scaling(results):
    """Per side: the untraced parallel rate over the traced serial engine
    rate (medians), i.e. what the benchmark's threads buy over one."""
    for key, pairs in results.items():
        workload, kind = key.split("/")
        traced = results.get(f"{workload}/traced")
        if kind != "untraced" or not traced:
            continue
        for phase in ("exact", "surrogate"):
            name = f"serial_configs_per_s.{phase}"
            if not all(name in r["metrics"] for p in traced for r in p):
                continue
            cells = []
            for i, side in enumerate(("base", "head")):
                parallel = statistics.median(
                    p[i]["metrics"][f"configs_per_s.{phase}"]["value"] for p in pairs)
                serial = statistics.median(p[i]["metrics"][name]["value"] for p in traced)
                cells.append(f"{side} {parallel:.0f}/{serial:.0f} = {parallel / serial:.2f}x")
            print(f"scaling {workload} {phase} (untraced parallel / traced serial engine): "
                  + ", ".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", default="WORKTREE",
                        help="head revision, or WORKTREE (default)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0,
                        help="traced pairs per workload after the untraced ones")
    parser.add_argument("--seconds", type=int, default=None,
                        help="seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every BENCHMARK.json workload)")
    parser.add_argument("--work", default=None,
                        help="directory for the exports and builds (default: a temp dir)")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    directions = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    work = Path(args.work or tempfile.mkdtemp(prefix="perf-ab-")).resolve()

    sides = {}
    for side, rev in (("base", args.base), ("head", args.head)):
        tree = work / f"{side}-src"
        export(rev, tree)
        sides[side] = (build(tree, work / f"{side}-target"), tree)
        print(f"built {side} = {rev}", file=sys.stderr)

    results, past = {}, []
    for workload in workloads:
        for traced, count in ((False, args.pairs), (True, args.traced)):
            pairs = []
            for i in range(count):
                seed = args.seed + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                got = {side: run(*sides[side], workload, seed, seconds, traced)
                       for side in order}
                pairs.append((got["base"], got["head"]))
                print(f"{workload} {'traced' if traced else 'untraced'} pair {i + 1}/{count} "
                      f"(seed {seed}, {order[0]} first) done", file=sys.stderr)
            if pairs:
                results[f"{workload}/{'traced' if traced else 'untraced'}"] = pairs
                past += report(workload, traced, pairs, directions,
                               {} if traced else bounds)
    scaling(results)
    (work / "ab-results.json").write_text(json.dumps(results))
    incorrect = sum(not r["correct"] for pairs in results.values() for p in pairs for r in p)
    print(f"\nraw runs: {work / 'ab-results.json'}")
    print(f"incorrect runs: {incorrect}; end-to-end metrics past their bound: "
          f"{', '.join(past) or 'none'}")
    sys.exit(1 if incorrect or past else 0)


if __name__ == "__main__":
    main()
