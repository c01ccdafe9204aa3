"""Recompute the frozen sublattice verdicts used by the ``lattice`` workload.

The verdicts in ``lattice_verdicts.json`` were computed once by the code of
the commit that introduced the benchmark; a later change must reproduce them,
so do not rerun this script to make a failing check pass.

Usage: python3 bench/freeze_lattice.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import braidcryst as bc  # noqa: E402
import workloads as w  # noqa: E402


def main() -> None:
    verdicts = {}
    for n, m in w.LATTICE_STRATA:
        for index in range(w.LATTICE_CASES):
            rep, gens = w.lattice_case(n, m, index)
            verdicts[w.lattice_case_key(n, m, index)] = bc.sublattice_is_torsion_free(rep, gens)
    w.LATTICE_VERDICTS.write_text(json.dumps(verdicts, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(verdicts)} verdicts, {sum(verdicts.values())} torsion free")


if __name__ == "__main__":
    main()
