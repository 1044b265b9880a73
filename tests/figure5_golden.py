"""The paper's Figure 5 as golden data.

``tests/golden/figure5.json`` holds the 36 Figure-5 cells (3 schemes × 3
queries × 4 k) of the default workload, parsed from the committed
``experiments_output.txt``.  This module parses the rendered Figure-5
tables and compares them with the golden cells.  The CI job regenerates
all 36 cells and checks them::

    python -m repro.experiments figure5 > figure5.txt
    python tests/figure5_golden.py figure5.txt
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "figure5.json"

#: the compared columns of one cell, in table order
COLUMNS = ("l_min", "l_max", "m_min", "m_max", "contains_mc", "exact")

_SCHEMES = {
    "km anonymization": "km",
    "k-anonymity": "k-anonymity",
    "Bipartite Grouping": "bipartite",
}
_WORKLOAD = re.compile(r"^# workload: (\S+)$", re.M)
_TITLE = re.compile(r"^Figure 5\([a-i]\) (.+), Query (\d)$")


def parse_figure5(text: str) -> Dict[str, object]:
    """``{"workload": label, "cells": [...]}`` from rendered Figure-5
    tables (the output of ``python -m repro.experiments figure5``)."""
    workload = _WORKLOAD.search(text)
    cells = []
    panel = None
    for line in text.splitlines():
        if line.startswith("Figure "):
            title = _TITLE.match(line.strip())
            panel = (_SCHEMES[title.group(1)], f"Q{title.group(2)}") if title else None
            continue
        fields = line.split()
        if panel is None or len(fields) != 7 or not fields[0].isdigit():
            continue
        k, l_min, l_max, m_min, m_max, contains, exact = fields
        cells.append(
            {
                "scheme": panel[0],
                "query": panel[1],
                "k": int(k),
                "l_min": int(l_min),
                "l_max": int(l_max),
                "m_min": int(m_min),
                "m_max": int(m_max),
                "contains_mc": contains == "yes",
                "exact": exact == "yes",
            }
        )
    return {"workload": workload.group(1) if workload else None, "cells": cells}


def load_golden() -> Dict[str, object]:
    return json.loads(GOLDEN_PATH.read_text())


def cell_key(cell: dict) -> Tuple[str, str, int]:
    return (cell["scheme"], cell["query"], cell["k"])


def compare(observed: List[dict], golden: List[dict]) -> List[str]:
    """Every difference between ``observed`` and ``golden`` cells, plus
    every observed cell whose MC range escapes its LICM range."""
    problems = []
    expected = {cell_key(cell): cell for cell in golden}
    seen = {cell_key(cell): cell for cell in observed}
    for key in sorted(set(expected) - set(seen)):
        problems.append(f"{key}: missing")
    for key in sorted(set(seen) - set(expected)):
        problems.append(f"{key}: not in the golden data")
    for key in sorted(set(seen) & set(expected)):
        got, want = seen[key], expected[key]
        for column in COLUMNS:
            if got[column] != want[column]:
                problems.append(f"{key}: {column} {got[column]!r} != {want[column]!r}")
        if not got["l_min"] <= got["m_min"] <= got["m_max"] <= got["l_max"]:
            problems.append(f"{key}: MC range not inside the LICM range")
    return problems


def main(argv: List[str]) -> int:
    observed = parse_figure5(Path(argv[0]).read_text())
    golden = load_golden()
    problems = compare(observed["cells"], golden["cells"])
    if observed["workload"] != golden["workload"]:
        problems.insert(
            0, f"workload {observed['workload']!r} != {golden['workload']!r}"
        )
    for problem in problems:
        print(problem)
    print(f"{len(observed['cells'])} cells, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
