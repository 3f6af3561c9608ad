"""Every printed claim of the registered theories, against a golden file.

`tests/data/claims.txt` holds `check_property(...).describe()` for every
registered theory and property, and `verdict(S, T).describe()` (what
`monadlab nogo S T` prints) for every ordered pair. Every certificate is
exact, so no bound enters. A change that alters a printed claim shows each
altered line in the diff of that file. Regenerate it with

    PYTHONPATH=src python tests/test_claims.py > tests/data/claims.txt
"""

import difflib
from pathlib import Path

from monadlab.nogo import verdict
from monadlab.theories import BOOM_FULL, PropertyId, check_property, lookup_theory

GOLDEN = Path(__file__).resolve().parent / "data" / "claims.txt"
# the registry at import; tests register more theories as they run
BUILTIN = (*BOOM_FULL, "pointed", "exception:{a}", "exception:{a,b}", "abgroup",
           "convex", "reader:2")


def claim_lines() -> list:
    entries = sorted(map(lookup_theory, BUILTIN), key=lambda e: e.theory_id)
    lines = []
    for entry in entries:
        for prop in PropertyId:
            cert = check_property(entry, prop)
            lines.append(f"{entry.theory_id} {prop.value}: {cert.describe()}")
    for s in entries:
        for t in entries:
            lines.append(f"nogo {s.theory_id} {t.theory_id}")
            lines += verdict(s, t).describe().splitlines()
    return lines


def test_printed_claims_match_the_golden_file():
    want = GOLDEN.read_text().splitlines()
    got = claim_lines()
    diff = list(difflib.unified_diff(want, got, "golden", "now", lineterm="", n=1))
    assert not diff, "\n".join(diff[:40])


if __name__ == "__main__":
    print("\n".join(claim_lines()))
