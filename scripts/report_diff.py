"""Compare two clmech outputs of the same kind, old against new.

    python3 scripts/report_diff.py OLD NEW

Two `check` reports are paired line by line. The pair fails on any change
of a header line, of a check line's tag, label, bound or note, or of the
RESULT verdict, and when a value above 1e-10 in magnitude moves by more
than 1e-10 relative. Each value that moved is printed with its old and new
value and its relative change |new - old| / max(|old|, |new|).

Two `simulate` CSVs must have the same header and the same t column. The
largest relative change of the q, qd and p columns, element by element, is
printed for each; above 1e-12 the pair fails. The el_residual column is
printed as the largest absolute change and does not decide.

Prints a markdown table; exits 0 when the outputs agree by these rules,
1 when they do not.
"""

from __future__ import annotations

import math
import re
import sys

REPORT_VALUE_FLOOR = 1e-10
REPORT_RTOL = 1e-10
CSV_RTOL = 1e-12

# "[TAG] label value=V[ bound...][  # note]" and "RESULT verdict max_residual=V"
_CHECK = re.compile(r"(\[\w+\] \S+) value=(\S+)(.*)\Z")
_RESULT = re.compile(r"(RESULT \w+) max_residual=(\S+)\Z")


def relative(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / max(abs(old), abs(new))


def _split(line: str) -> tuple[str, float | None]:
    """The part of a report line that must not change, and its value."""
    m = _CHECK.match(line) or _RESULT.match(line)
    if m is None:
        return line, None
    return m.group(1) + (m.group(3) if m.lastindex == 3 else ""), float(m.group(2))


def diff_reports(old: list[str], new: list[str]) -> tuple[list[str], bool]:
    rows = ["| line | old | new | relative change |", "| --- | --- | --- | --- |"]
    if len(old) != len(new):
        return rows + [f"line count {len(old)} -> {len(new)}"], False
    ok, values, moved = True, 0, 0
    for a, b in zip(old, new):
        (key_a, x), (key_b, y) = _split(a), _split(b)
        if key_a != key_b:
            rows.append(f"changed: `{a}` -> `{b}`")
            ok = False
            continue
        if x is None:
            continue
        values += 1
        rel = relative(x, y)
        if rel:
            moved += 1
            label = key_a.split()[1] if key_a.startswith("[") else key_a
            rows.append(f"| {label} | {x!r} | {y!r} | {rel:.3g} |")
            if max(abs(x), abs(y)) > REPORT_VALUE_FLOOR and rel > REPORT_RTOL:
                ok = False
    rows.append(f"{values} values, {moved} moved")
    return rows, ok


def diff_csvs(old: list[str], new: list[str]) -> tuple[list[str], bool]:
    rows = ["| column | largest change |", "| --- | --- |"]
    if old[0] != new[0] or len(old) != len(new):
        return rows + [f"header or row count differs: {old[0]!r} -> {new[0]!r}"], False
    header = old[0].split(",")
    a = [[float(v) for v in line.split(",")] for line in old[1:]]
    b = [[float(v) for v in line.split(",")] for line in new[1:]]
    if any(x[0] != y[0] for x, y in zip(a, b)):
        return rows + ["| t | differs |"], False
    rows.append("| t | identical |")
    ok = True
    for group in ("q", "qd", "p"):
        cols = [k for k, name in enumerate(header) if name.rsplit("_", 1)[0] == group]
        worst = max((relative(x[k], y[k]) for x, y in zip(a, b) for k in cols), default=0.0)
        rows.append(f"| {group} | {worst:.3g} relative |")
        ok = ok and worst <= CSV_RTOL
    res = max(abs(x[-1] - y[-1]) for x, y in zip(a, b))
    rows.append(f"| el_residual | {res:.3g} absolute (not checked) |")
    return rows, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (open(path, encoding="utf-8").read().splitlines() for path in argv)
    is_csv = bool(old) and old[0].startswith("t,")
    rows, ok = (diff_csvs if is_csv else diff_reports)(old, new)
    print("\n".join(rows))
    print("agree" if ok else "DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
