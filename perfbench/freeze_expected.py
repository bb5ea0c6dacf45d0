"""Write expected.json, the frozen record of the chain's exact outputs.

Run from the repository root, only when an exact output is meant to change:

    python3 perfbench/freeze_expected.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from feyngkz import pipeline  # noqa: E402
from feyngkz.fixtures import fixtures  # noqa: E402
import workloads  # noqa: E402


def main():
    specs = fixtures()
    one_mass = fixtures()["one-mass-bubble"]
    one_mass.weight = (0, 0, 0, 1)
    specs["one-mass-bubble@w=0,0,0,1"] = one_mass
    out = {key: workloads.record(spec, pipeline.run(spec))
           for key, spec in specs.items()}
    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
