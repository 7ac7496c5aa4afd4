"""Alternating parent/change benchmark pairs, summarised for a gain claim.

Runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``)
untraced in two checkouts, one pair of runs per seed, alternating which side
runs first, and reads each run's last line.  It prints the per-run table, then
for each end-to-end metric of ``BENCHMARK.json``: each side's median and
quartiles, how many pairs the change wins (ties count for neither), the
median and quartiles of the per-pair change/parent ratio (informational: a
drift of the box's speed across pairs does not spread it, but no verdict
reads it), whether the medians differ by more than the parent's
interquartile range, whether the change's median stays within the metric's
``bound``, and whether the parent's spread leaves that verdict unresolved.
A run whose last line has ``correct: false``, a failed operation, or no such
line is flagged.  Standard library only; run from anywhere:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload decide --pairs 10 --seconds 20 --first-seed 11

Quartiles are linear interpolation between order statistics (numpy's default
percentile, ``statistics.quantiles(method="inclusive")``).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its last line, or ``{"correct": False, ...}`` when it has none."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {}, "error": (proc.stderr or proc.stdout)[-500:].strip()}


def flagged(run: dict) -> bool:
    return run.get("correct") is not True or run.get("failed") != 0


def value(run: dict, name: str):
    return (run.get("metrics", {}).get(name) or {}).get("value")


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per metric, from (parent run, change run) pairs and ``BENCHMARK.json``'s end-to-end entries.

    A pair counts toward a metric only when both runs report it.  ``wins`` counts the pairs where the change is
    strictly better in the metric's ``better`` direction.  ``resolved`` says whether the medians differ by more than
    the parent's interquartile range, and ``claimable`` whether a gain may be claimed: resolved, in the better
    direction, and won in at least nine tenths of the pairs.  ``rel_change`` is the medians' gap over the parent's
    median, and ``within_bound`` says that the change's median is not worse than the parent's, in the ``better``
    direction, by more than ``bound`` times the parent's median.  ``unresolved`` says that the parent's interquartile
    range is wider than ``bound`` times its median, so the runs cannot show a change of the bound's size, unless every
    change run is better than every parent run.  ``ratio`` holds the quartiles of change over parent in each pair
    with a nonzero parent, or None; it is informational."""
    out = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        both = [(value(p, name), value(c, name)) for p, c in pairs]
        both = [(p, c) for p, c in both if p is not None and c is not None]
        if not both:
            out.append({"name": name, "pairs": 0, "resolved": False, "claimable": False, "unresolved": True})
            continue
        runs = dict(zip(SIDES, zip(*both)))
        sides = {side: quartiles(runs[side]) for side in SIDES}
        wins = sum(c < p if lower else c > p for p, c in both)
        ratios = [c / p for p, c in both if p]
        gap = sides["change"][1] - sides["parent"][1]
        iqr = sides["parent"][2] - sides["parent"][0]
        resolved = abs(gap) > iqr
        claimable = resolved and (gap < 0) == lower and 10 * wins >= 9 * len(both)
        base = sides["parent"][1]
        within = (gap if lower else -gap) <= m["bound"] * abs(base)
        separated = max(runs["change"]) < min(runs["parent"]) if lower else min(runs["change"]) > max(runs["parent"])
        unresolved = iqr > m["bound"] * abs(base) and not separated
        out.append({"name": name, "pairs": len(both), "parent": sides["parent"], "change": sides["change"],
                    "wins": wins, "ratio": quartiles(ratios) if ratios else None, "gap": gap, "parent_iqr": iqr,
                    "resolved": resolved, "claimable": claimable,
                    "rel_change": gap / base if base else float("nan"), "bound": m["bound"],
                    "within_bound": within, "unresolved": unresolved})
    return out


def _fmt(x) -> str:
    return "null" if x is None else f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.3f}" if abs(x) < 10 else f"{x:.2f}"


def table(workload: str, seeds: list[int], pairs: list[tuple[dict, dict]], names: list[str]) -> list[str]:
    """The per-run markdown table: one row per pair, parent and change side by side for each metric."""
    head = ["workload", "pair", "seed", "first"] + [f"{side} `{n}`" for n in names for side in SIDES] + ["flags"]
    rows = ["| " + " | ".join(head) + " |", "|---|---:|---:|---|" + "---:|" * (2 * len(names)) + "---|"]
    for i, (seed, (p, c)) in enumerate(zip(seeds, pairs)):
        flags = ", ".join(side for side, run in zip(SIDES, (p, c)) if flagged(run))
        cells = [workload, str(i + 1), str(seed), SIDES[i % 2]]
        cells += [_fmt(value(run, n)) for n in names for run in (p, c)] + [flags]
        rows.append("| " + " | ".join(cells) + " |")
    return rows


def report(summary: list[dict]) -> list[str]:
    lines = []
    for s in summary:
        if not s["pairs"]:
            lines.append(f"{s['name']}: no pair reports it")
            continue
        p, c, r = s["parent"], s["change"], s["ratio"] or (None,) * 3
        lines.append(f"{s['name']}: parent {_fmt(p[1])} [{_fmt(p[0])}-{_fmt(p[2])}], "
                     f"change {_fmt(c[1])} [{_fmt(c[0])}-{_fmt(c[2])}], change wins {s['wins']}/{s['pairs']}, "
                     f"change/parent per pair {_fmt(r[1])} [{_fmt(r[0])}-{_fmt(r[2])}] (informational), "
                     f"gap {s['gap']:+.4g} vs parent IQR {s['parent_iqr']:.4g} "
                     f"({'exceeds' if s['resolved'] else 'within'}), "
                     f"gain claimable: {'yes' if s['claimable'] else 'no'}, "
                     f"change {s['rel_change']:+.1%} against bound {s['bound']:.0%}: "
                     f"{'within bound' if s['within_bound'] else 'exceeds bound'}"
                     + (f", unresolved: parent IQR {s['parent_iqr']:.4g} is wider than {s['bound']:.0%} of its median"
                        if s["unresolved"] else ""))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=11)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs = {side: run_once(getattr(args, side), bench["command"], args.workload, seed, args.seconds)
                for side in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"{side} " + " ".join(_fmt(value(runs[side], m["name"])) for m in metrics)
            + (" FLAGGED " + runs[side].get("error", "") if flagged(runs[side]) else "") for side in order),
              file=sys.stderr, flush=True)
    print("\n".join(table(args.workload, seeds, pairs, [m["name"] for m in metrics])))
    print()
    print("\n".join(report(summarize(pairs, metrics))))
    n_flagged = sum(flagged(run) for pair in pairs for run in pair)
    if n_flagged:
        print(f"{n_flagged} run(s) flagged: correct is not true or an operation failed")
    return 1 if n_flagged else 0


if __name__ == "__main__":
    sys.exit(main())
