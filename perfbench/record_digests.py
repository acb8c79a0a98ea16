"""Write table_digests.json: CSV digests of the exact-tables tables at the digest seed.

    python3 perfbench/record_digests.py

The traced exact-tables run at that seed checks its tables against this
file, so rerun this only when the tables are meant to change, and say so.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import parkcrit  # noqa: E402

import workloads as W  # noqa: E402


def main():
    wl = W.ExactTables(parkcrit, W.ExactTables.DIGEST_SEED, W.nproc(), HERE.parent)
    ops = wl.ops()
    tables = []
    for i in range(W.ExactTables.DIGEST_OPS):
        outputs = []
        try:
            next(ops).run(outputs)
        except parkcrit.errors.ParkingModelError:
            pass  # a refusal after the table was made, as the timed loop sees it
        tables.append((i, outputs[0][1]))
    digests = W.table_digests(tables, HERE.parent)
    (HERE / W.DIGESTS_FILE).write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
