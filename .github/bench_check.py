"""CI helper: gate the benchmark metrics whose counts repeat at a fixed scale.

Usage: bench_check.py BENCHMARK.json BASE.json HEAD.json

BASE.json and HEAD.json are `go run ./bench -out` files (one JSON record
per line and workload) from the merge base and from the change, run at
the same --seconds and --seed. `go run ./bench -compare` prints every
end-to-end metric, and CI shows that table as information only: on a
shared runner the wall-clock rows (loops_per_s, latencies, setup_s) drift
by more than their bounds between two runs of the same commit. Three metrics do not depend on the clock — operation counts
are fixed by the scale, so they repeat to well inside their bounds
(bench/README.md, "How the bounds were calibrated"):

  allocs_per_loop   bound 2%    (repeats to ~1e-3 relative: pooled arenas
                                 dropped by GC are the only noise)
  ii_over_mii       bound 1%    (schedule quality; fleet-mix moves ~0.05%
                                 with stealing)
  succeeded_frac    bound 0.1%

This script fails (exit 1) when HEAD's median is worse than BASE's by
more than the bound BENCHMARK.json fixes, on any workload both files
cover, and prints one line per workload x metric either way.
"""

import json
import statistics
import sys

GATED = ("allocs_per_loop", "ii_over_mii", "succeeded_frac")


def load(path):
    """Untraced records by workload (end-to-end metrics never come from a traced run)."""
    by_workload = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if not rec.get("traced"):
                by_workload.setdefault(rec["workload"], []).append(rec["metrics"])
    return by_workload


def main():
    manifest_path, base_path, head_path = sys.argv[1:4]
    with open(manifest_path) as f:
        manifest = json.load(f)
    metrics = {m["name"]: m for m in manifest["end_to_end"] if m["name"] in GATED}
    missing = set(GATED) - set(metrics)
    assert not missing, f"{manifest_path} no longer defines {sorted(missing)}"
    base, head = load(base_path), load(head_path)

    failed, compared = [], 0
    for w in (w["name"] for w in manifest["workloads"]):
        if w not in base or w not in head:
            print(f"{w}: skipped (not in both files)")
            continue
        for name in GATED:
            m = metrics[name]
            a = statistics.median(r[name]["value"] for r in base[w])
            b = statistics.median(r[name]["value"] for r in head[w])
            worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "REGRESSED"
                failed.append(f"{w} {name}")
            compared += 1
            print(f"{w:14} {name:16} base {a:<12.6g} head {b:<12.6g} worse by {worse:+.4%} (bound {m['bound']:.2%}) {verdict}")

    assert compared, "no workload present in both files: nothing was checked"
    if failed:
        print("deterministic benchmark metrics regressed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
