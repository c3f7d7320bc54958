"""Record the output digests that test_output_digests.py checks
(output_digests.json).

    PYTHONPATH=src python3 tests/record_output_digests.py

Run it only at a commit whose outputs are known good: every later run of
the test compares the program's outputs with what this stores.
"""

from __future__ import annotations

import json
import sys

from test_output_digests import DIGESTS, record


def main() -> int:
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
