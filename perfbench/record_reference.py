"""Record the default-seed outputs that worker.py checks each run against.

    python3 perfbench/record_reference.py

Rerun only when a change to the program is meant to change these outputs,
and say so in the change: the recorded values are the correctness oracle.
"""

import json

from worker import REFERENCE_FILE, import_package
from workloads import DEFAULT_SEED, WORKLOADS, call_seed


def main() -> None:
    import_package()
    reference = {
        name: w.snapshot(w.call(call_seed(DEFAULT_SEED, 0))) for name, w in WORKLOADS.items()
    }
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
