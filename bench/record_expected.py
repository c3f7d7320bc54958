"""Record the output digests the benchmark checks against (expected.json).

    python3 bench/record_expected.py

Run it only at a commit whose outputs are known good: every later run
compares its reports with what this stores.  Digests of cubic and chain
do not depend on the seed (point labels are mapped back to p1..pn); fuzz
stores one digest per op of the stream of FUZZ_SEED, and "-" where the
op fails at the recording commit, which leaves that op to the invariants.
"""

from __future__ import annotations

import itertools
import json
import sys

import run

FUZZ_SEED = 0
FUZZ_OPS = 4096
FAMILY_SIZES = {"cubic": (6, 24, 48), "chain": (4, 12, 24)}


def main() -> int:
    run.load_program()
    import checks
    import workloads

    expected = {"cubic": {}, "chain": {}, "fuzz": {"seed": FUZZ_SEED},
                "cli": {}}
    blank = {"cubic": {}, "chain": {}, "fuzz": {"seed": -1}, "cli": {}}
    for name, sizes in FAMILY_SIZES.items():
        for n in sizes:
            digests = set()
            for seed in (1, 2):
                wl = run.make_workload(name, seed, n, blank)
                item = next(wl.inputs)
                outcome = run.analyse(item)
                problem = checks.check_analysis(outcome, item[1], None)
                if problem:
                    sys.exit(f"{name}({n}): {problem}")
                digests.add(checks.outcome_digest(outcome, item[1]))
            if len(digests) != 1:
                sys.exit(f"{name}({n}): the report depends on point labels")
            expected[name][str(n)] = digests.pop()

    outcomes = []
    for doc, _ in itertools.islice(workloads.fuzz_stream(FUZZ_SEED), FUZZ_OPS):
        try:
            outcome = run.analyse((doc, None))
        except Exception as exc:  # a known failure: store no expectation
            print(f"fuzz op {len(outcomes)}: {exc!r}", file=sys.stderr)
            outcomes.append("-")
            continue
        problem = checks.check_analysis(outcome, None, None)
        if problem:
            print(f"fuzz op {len(outcomes)}: {problem}", file=sys.stderr)
            outcomes.append("-")
        else:
            outcomes.append(checks.outcome_digest(outcome))
    expected["fuzz"]["outcomes"] = outcomes

    for argv in workloads.CLI_VARIANTS:
        _, code, stdout, _ = run.cli_subprocess((argv, None))
        if code not in (0, 1, 2, 3):
            sys.exit(f"cli {argv}: exit {code}")
        expected["cli"][" ".join(argv)] = [code, checks.cli_digest(stdout)]

    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
