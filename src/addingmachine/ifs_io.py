"""Text format for finite iterated function systems.

    # rotation by one and by three
    states: 0 1 2 3 4 5
    label a: 1 2 3 4 5 0
    label b: 3 4 5 0 1 2
    metric:
    0 1 1/2 ...

The states line lists 0..n-1 in order. Each label line gives the image
of state k at position k, so maps must be total. The optional metric
block holds n rows of n rationals. Blank lines and '#' comments are
ignored. Malformed input fails with the offending line number.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IFSParseError, InputError
from .finite_ifs import FiniteIFS


def parse_ifs(text: str) -> FiniteIFS:
    lines = [
        (no, line.strip())
        for no, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise IFSParseError(1, "empty description")
    no, first = lines[0]
    if not first.startswith("states:"):
        raise IFSParseError(no, f"expected 'states:' line, got {first!r}")
    tokens = first[len("states:"):].split()
    try:
        listed = [int(t) for t in tokens]
    except ValueError:
        raise IFSParseError(no, f"malformed state list {tokens!r}") from None
    n = len(listed)
    if n == 0 or listed != list(range(n)):
        raise IFSParseError(no, "states must be 0 1 ... n-1 in order")

    tables: list[tuple[str, tuple[int, ...]]] = []
    seen_labels: set[str] = set()
    metric_rows: list[tuple[Fraction, ...]] | None = None
    idx = 1
    while idx < len(lines):
        no, line = lines[idx]
        if line.startswith("label "):
            head, sep, rest = line[len("label "):].partition(":")
            name = head.strip()
            if not sep or not name or " " in name:
                raise IFSParseError(no, f"malformed label line {line!r}")
            if name in seen_labels:
                raise IFSParseError(no, f"duplicate label {name!r}")
            entries = rest.split()
            try:
                images = tuple(int(t) for t in entries)
            except ValueError:
                raise IFSParseError(no, f"malformed image list for label {name!r}") from None
            if len(images) != n:
                raise IFSParseError(
                    no, f"map {name!r} gives {len(images)} images, expected {n} (not total)"
                )
            for x, y in enumerate(images):
                if not 0 <= y < n:
                    raise IFSParseError(no, f"map {name!r} sends {x} to {y}, outside 0..{n - 1}")
            seen_labels.add(name)
            tables.append((name, images))
            idx += 1
        elif line == "metric:":
            if metric_rows is not None:
                raise IFSParseError(no, "second metric block")
            metric_rows = []
            idx += 1
            for _ in range(n):
                if idx >= len(lines):
                    raise IFSParseError(no, f"metric block needs {n} rows")
                row_no, row_line = lines[idx]
                entries = row_line.split()
                if len(entries) != n:
                    raise IFSParseError(row_no, f"metric row has {len(entries)} entries, expected {n}")
                row = []
                for t in entries:
                    try:
                        row.append(Fraction(t))
                    except (ValueError, ZeroDivisionError):
                        raise IFSParseError(row_no, f"malformed rational {t!r}") from None
                metric_rows.append(tuple(row))
                idx += 1
        else:
            raise IFSParseError(no, f"unrecognized line {line!r}")
    if not tables:
        raise IFSParseError(lines[-1][0], "no label lines; at least one map is required")
    # metric axiom failures are not tied to one line; InputError passes through
    return FiniteIFS(tables, metric=metric_rows)


def format_ifs(F: FiniteIFS) -> str:
    """Inverse of parse_ifs, canonical form."""
    out = ["states: " + " ".join(str(x) for x in F.states)]
    for label in F.labels:
        out.append(f"label {label}: " + " ".join(str(y) for y in F.table(label)))
    if F.metric is not None:
        out.append("metric:")
        for row in F.metric:
            out.append(" ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def load_ifs(path: str) -> FiniteIFS:
    """Read and parse a description file; text that is not UTF-8 is an
    InputError, and a file that cannot be opened raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_ifs(text)
