#!/usr/bin/env python3
"""Compares two sets of perfbench runs of one workload, parent against change.

Each input file holds perfbench result lines, one run per line: the last
stdout line of `python3 perfbench/run.py --workload W ...`.  Other lines
(host, inputs, phase facts) are skipped, so a run's whole stdout may be
appended as is.  Runs pair up in file order: run i of the parent with run i
of the change, which is how alternating parent/change runs are recorded.

    tools/bench_diff.py parent.jsonl change.jsonl
    tools/bench_diff.py parent.jsonl change.jsonl --workload batch-deep \\
        --seed 1 --parent-sha 8e6b5f4 --change-sha 1a2b3c4 \\
        --append docs/perf/trajectory.jsonl
    tools/bench_diff.py --selftest

For every end-to-end metric in BENCHMARK.json it prints the median and the
quartiles of each side, the change/parent median ratio and the pairs the
change won.  It exits 1 when a change median is worse than the parent's by
more than that metric's bound, when any run reports `correct: false`, or
when the change fails a larger share of its operations than the parent; it
exits 2 on unusable input.  `--append` adds one summary line (workload,
seed, pairs, both shas, both sides' medians) to a trajectory file.  The
script only reads BENCHMARK.json.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_runs(path):
    """Result lines of one file: JSON objects carrying `correct` and `metrics`."""
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "correct" in obj and "metrics" in obj:
                runs.append(obj)
    return runs


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list (q in [0, 1])."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def worse_by(parent, change, better):
    """Relative amount by which `change` is worse than `parent` (<= 0: not worse)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    if better == "higher":
        return (parent - change) / abs(parent)
    return (change - parent) / abs(parent)


def failed_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return failed / attempted if attempted else 0.0


def compare(parent, change, spec):
    """Returns (rows, problems) for non-empty run lists: one row per
    end-to-end metric, and every reason the change must be refused."""
    problems = []
    for side, runs in (("parent", parent), ("change", change)):
        bad = sum(1 for r in runs if not r["correct"])
        if bad:
            problems.append("%s: %d run(s) report correct: false" % (side, bad))
    if failed_share(change) > failed_share(parent):
        problems.append("change fails a larger share of operations (%.6f > %.6f)"
                        % (failed_share(change), failed_share(parent)))
    rows = []
    pairs = min(len(parent), len(change))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        p = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
        c = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
        if not p and not c:
            continue
        if len(p) != len(parent) or len(c) != len(change):
            problems.append("%s: missing from some runs" % name)
            continue
        row = {"metric": name, "unit": metric["unit"],
               "parent": [quantile(p, 0.25), quantile(p, 0.5), quantile(p, 0.75)],
               "change": [quantile(c, 0.25), quantile(c, 0.5), quantile(c, 0.75)]}
        row["ratio"] = row["change"][1] / row["parent"][1] if row["parent"][1] else float("nan")
        row["won"] = sum(1 for i in range(pairs)
                         if worse_by(p[i], c[i], metric["better"]) < 0)
        row["pairs"] = pairs
        row["worse_by"] = worse_by(row["parent"][1], row["change"][1], metric["better"])
        if row["worse_by"] > metric["bound"]:
            problems.append("%s: change median %.6g is %.1f%% worse than parent %.6g "
                            "(bound %.0f%%)" % (name, row["change"][1], 100 * row["worse_by"],
                                                row["parent"][1], 100 * metric["bound"]))
        rows.append(row)
    return rows, problems


def format_table(rows):
    fmt = "%-16s %-10s %-34s %-34s %7s %7s"
    out = [fmt % ("metric", "unit", "parent median [q1, q3]",
                  "change median [q1, q3]", "ratio", "won")]
    for r in rows:
        side = lambda q: "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])
        out.append(fmt % (r["metric"], r["unit"], side(r["parent"]), side(r["change"]),
                          "%.3f" % r["ratio"], "%d/%d" % (r["won"], r["pairs"])))
    return "\n".join(out)


def summary_line(rows, workload, seed, parent_sha, change_sha):
    return json.dumps({
        "workload": workload, "seed": seed, "pairs": rows[0]["pairs"] if rows else 0,
        "parent": parent_sha, "change": change_sha,
        "median": {side: {r["metric"]: round(r[side][1], 6) for r in rows}
                   for side in ("parent", "change")}})


def selftest(spec):
    """Builds runs in memory and checks every verdict the tool can reach."""
    def run(scale, correct=True, attempted=1000, failed=0):
        metrics = {}
        for m in spec["end_to_end"]:
            base = 100.0
            value = base * scale if m["better"] == "higher" else base / scale
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    parent = [run(s) for s in (1.00, 0.98, 1.02, 0.99, 1.01)]
    checks = [
        ("a 5% gain passes", [run(s * 1.05) for s in (1.00, 0.98, 1.02, 0.99, 1.01)],
         True),
        ("noise inside the bound passes", [run(s) for s in (0.90, 0.95, 1.0, 0.93, 0.97)],
         True),
        ("a 30% loss breaks the bound", [run(s * 0.7) for s in (1.00, 0.98, 1.02, 0.99, 1.01)],
         False),
        ("correct: false fails", [run(1.0)] * 4 + [run(1.0, correct=False)], False),
        ("a larger failed share fails", [run(1.0)] * 4 + [run(1.0, failed=1)], False),
    ]
    ok = True
    for name, change, expect_pass in checks:
        rows, problems = compare(parent, change, spec)
        passed = not problems
        if passed != expect_pass or len(rows) != len(spec["end_to_end"]):
            print("bench_diff selftest FAILED: %s (problems: %s)" % (name, problems))
            ok = False
    rows, _ = compare(parent, [run(s * 1.05) for s in (1.00, 0.98, 1.02, 0.99, 1.01)], spec)
    if any(r["won"] != 5 for r in rows):
        print("bench_diff selftest FAILED: a uniform gain must win every pair")
        ok = False
    line = json.loads(summary_line(rows, "batch-deep", 1, "aaaaaaa", "bbbbbbb"))
    if line["pairs"] != 5 or set(line["median"]["change"]) != {
            m["name"] for m in spec["end_to_end"]}:
        print("bench_diff selftest FAILED: summary line")
        ok = False
    if ok:
        print("bench_diff self-tests passed")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="?", help="file of parent result lines")
    ap.add_argument("change", nargs="?", help="file of change result lines")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--parent-sha")
    ap.add_argument("--change-sha")
    ap.add_argument("--append", help="trajectory file to add the summary line to")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    if args.selftest:
        return selftest(spec)
    if not args.parent or not args.change:
        ap.error("parent and change files are required")
    if args.append and None in (args.workload, args.seed, args.parent_sha, args.change_sha):
        ap.error("--append needs --workload, --seed, --parent-sha and --change-sha")
    parent, change = read_runs(args.parent), read_runs(args.change)
    if not parent or not change:
        print("bench_diff: no result lines in %s" % (args.parent if not parent else args.change),
              file=sys.stderr)
        return 2
    rows, problems = compare(parent, change, spec)
    print(format_table(rows))
    print("failed share: parent %.6f, change %.6f" % (failed_share(parent), failed_share(change)))
    if args.append:
        with open(args.append, "a") as f:
            f.write(summary_line(rows, args.workload, args.seed, args.parent_sha,
                                 args.change_sha) + "\n")
    for p in problems:
        print("REFUSE: " + p)
    print("verdict: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
