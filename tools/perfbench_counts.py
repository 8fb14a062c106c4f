#!/usr/bin/env python3
"""Diffs a perfbench run's deterministic metrics against a pinned baseline.

perfbench prints one JSON object as its last stdout line. Every metric in
it whose unit is a count, a byte size, a ratio of counts or virtual time
is a pure function of the seed and the code, so any difference from the
baseline means the change moved the simulated work.

  python3 perfbench/run.py --workload pagerank_live --seed 1 --seconds 1 \\
      --trace 1 > run.txt
  python3 tools/perfbench_counts.py tests/perfbench_counts/pagerank_live.json run.txt

Exit code 0 when every pinned metric matches exactly, 1 on any difference
(each is printed), 2 on unreadable input. `--update` rewrites the baseline
from the run instead; a re-baseline needs a written reason in CHANGES.md,
as a trace golden does.
"""

import argparse
import json
import sys

DETERMINISTIC_UNITS = {"count", "bytes", "msgs/tuple", "virtual_s"}


def pinned_metrics(run_path):
    with open(run_path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        sys.exit("perfbench_counts: %s is empty" % run_path)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        sys.exit("perfbench_counts: last line of %s is not JSON: %s" %
                 (run_path, e))
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in DETERMINISTIC_UNITS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="pinned metrics (JSON)")
    parser.add_argument("run", help="perfbench stdout")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the run")
    args = parser.parse_args()

    actual = pinned_metrics(args.run)
    if args.update:
        with open(args.baseline, "w") as f:
            json.dump(actual, f, indent=2, sort_keys=True)
            f.write("\n")
        return 0

    with open(args.baseline) as f:
        expected = json.load(f)
    diffs = []
    for name in sorted(set(expected) | set(actual)):
        want, got = expected.get(name), actual.get(name)
        if want != got:
            diffs.append("  %-28s baseline %s, run %s" % (name, want, got))
    if diffs:
        print("perfbench_counts: %d metric(s) differ from %s:" %
              (len(diffs), args.baseline))
        print("\n".join(diffs))
        return 1
    print("perfbench_counts: %d metrics match %s" %
          (len(expected), args.baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
