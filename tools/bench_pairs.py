"""Run perfbench in pairs, a parent checkout against a change, and write BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --label fast_step \\
        --what "what the change does" desk-hecvl=1001-1010 paper-single=1011-1015

Each WORKLOAD=SEEDS plan runs ``perfbench/run.py`` for 30 s once per side and
seed, each run in a fresh process inside its own checkout. Per seed the two sides run
back to back, and the side that runs first alternates from seed to seed
(the change first on the first seed). SEEDS is a comma-separated list of
seeds and ``first-last`` ranges; a range must not be empty, and a seed may appear
only once per workload, since the pairs are keyed by seed.

The summary gives, per workload and end-to-end metric, both sides' medians,
the parent's interquartile range (inclusive quartiles) and the number of
pairs in which the change is strictly better, in the direction that the
change checkout's ``BENCHMARK.json`` declares; and per workload, each side's
failed operations and runs that were not correct. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 30  # the run length BENCHMARK.json sets
COMMAND = ("python3 perfbench/run.py --workload <workload> --seed <seed> "
           f"--seconds {SECONDS} --trace 0")
METHOD = ("one fresh process per run; per seed, parent and change run back to back, the side "
          "that runs first alternating by seed; metrics are perfbench's scaled end-to-end figures")


def parse_seeds(text: str) -> list[int]:
    """`1,3,5-7` -> [1, 3, 5, 6, 7]; an empty range such as `5-3` raises ValueError."""
    seeds = []
    for part in text.split(","):
        first, dash, last = part.partition("-")
        first, last = int(first), int(last) if dash else int(first)
        if last < first:
            raise ValueError(f"seed range {part!r} is empty")
        seeds.extend(range(first, last + 1))
    return seeds


def parse_plan(spec: str) -> tuple[str, list[int]]:
    workload, sep, seeds = spec.partition("=")
    if not sep or not workload:
        raise ValueError(f"expected WORKLOAD=SEEDS, got {spec!r}")
    return workload, parse_seeds(seeds)


def parse_plans(specs: list[str]) -> list[tuple[str, list[int]]]:
    """Every plan, each seed once per workload: `summarize` pairs the runs by seed."""
    plans, seen = [], set()
    for workload, seeds in map(parse_plan, specs):
        for seed in seeds:
            if (workload, seed) in seen:
                raise ValueError(f"{workload}: seed {seed} is planned twice")
            seen.add((workload, seed))
        plans.append((workload, seeds))
    return plans


def parse_output(stdout: str) -> tuple[str, dict]:
    """The host line and the closing JSON object of one perfbench run's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    host = next((line for line in lines if line.startswith("host:")), None)
    if host is None:
        raise ValueError("perfbench printed no host line")
    return host, json.loads(lines[-1])


def orders(seeds: list[int]) -> list[tuple[int, tuple[str, str]]]:
    """Each seed with its two sides in run order: the change first on every other seed."""
    return [(seed, ("change", "parent") if i % 2 == 0 else ("parent", "change"))
            for i, seed in enumerate(seeds)]


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: its seeds, per side the failed operations and the runs that were not
    correct, and per metric the medians, parent IQR and better pairs."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        results: dict[str, dict[int, dict]] = {"parent": {}, "change": {}}
        for r in runs:
            if r["workload"] == workload:
                results[r["side"]][r["seed"]] = r["result"]
        seeds = [s for s in results["parent"] if s in results["change"]]
        if not seeds:
            continue
        by_side = {side: {s: results[side][s]["metrics"] for s in seeds} for side in results}
        metrics = {}
        for name, first in by_side["parent"][seeds[0]].items():
            parent = [by_side["parent"][s][name]["value"] for s in seeds]
            change = [by_side["change"][s][name]["value"] for s in seeds]
            lower = better.get(name, "lower") == "lower"
            quartiles = (statistics.quantiles(parent, n=4, method="inclusive")
                         if len(parent) > 1 else [parent[0]] * 3)
            metrics[name] = {
                "unit": first["unit"],
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_iqr": quartiles[2] - quartiles[0],
                "change_better_pairs": sum(c < p if lower else c > p
                                           for p, c in zip(parent, change)),
                "pairs": len(seeds),
            }
        summary[workload] = {
            "seeds": seeds,
            "failed": {side: sum(results[side][s]["failed"] for s in seeds) for side in results},
            "not_correct": {side: sum(not results[side][s]["correct"] for s in seeds)
                            for side in results},
            "metrics": metrics,
        }
    return summary


def directions(checkout: Path) -> dict[str, str]:
    """Each end-to-end metric's better direction, from a checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int) -> tuple[str, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return parse_output(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change checkout")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--what", required=True, help="one line on what the change does")
    parser.add_argument("--out", type=Path, default=Path("."), help="directory of the output")
    parser.add_argument("plans", nargs="+", metavar="WORKLOAD=SEEDS")
    args = parser.parse_args(argv)
    try:
        plans = parse_plans(args.plans)
    except ValueError as e:
        parser.error(str(e))

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = directions(checkouts["change"])
    path = args.out / f"BENCH_{args.label}.json"
    runs: list[dict] = []
    for workload, seeds in plans:
        for seed, sides in orders(seeds):
            for side in sides:
                host, result = run_once(checkouts[side], workload, seed)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "ran_first": side == sides[0], "host": host, "result": result})
                print(f"{workload} seed={seed} {side}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
            # Rewritten after every pair, so an interrupted session keeps what it measured.
            path.write_text(json.dumps({
                "label": args.label, "what": args.what, "command": COMMAND,
                "method": METHOD, "summary": summarize(runs, better), "runs": runs,
            }, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
