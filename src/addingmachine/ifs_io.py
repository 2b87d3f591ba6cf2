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

parse_ifs owns the syntax only: the states line, the shape of a label
line, number tokens, and the extent of the metric block. Whether a
label line is a valid map (a new label, n images in 0..n-1) is decided
by finite_ifs, the one owner of that rule, whose InputError parse_ifs
reports at the label line. The metric axioms are not tied to one line:
their failures pass through as a plain InputError.
"""

from __future__ import annotations

from .errors import IFSParseError, InputError
from .exactnum import exact_rational
from .finite_ifs import FiniteIFS, _checked_map


def _numbers(no: int, tokens: list[str], read, what: str) -> list:
    """tokens read by read (int or exact_rational), any failure at line no."""
    try:
        return list(map(read, tokens))
    except ValueError:
        raise IFSParseError(no, f"malformed {what} {' '.join(tokens)!r}") from None


def parse_ifs(text: str) -> FiniteIFS:
    lines = (
        (no, line)
        for no, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    )
    no, first = next(lines, (1, None))
    if first is None:
        raise IFSParseError(1, "empty description")
    if not first.startswith("states:"):
        raise IFSParseError(no, f"expected 'states:' line, got {first!r}")
    states = _numbers(no, first[len("states:"):].split(), int, "state list")
    n = len(states)
    if n == 0 or states != list(range(n)):
        raise IFSParseError(no, "states must be 0 1 ... n-1 in order")
    tables: dict[str, tuple[int, ...]] = {}
    metric = None
    for no, line in lines:
        if line.startswith("label "):
            name, sep, rest = line[len("label "):].partition(":")
            name = name.strip()
            if not sep or not name or " " in name:
                raise IFSParseError(no, f"malformed label line {line!r}")
            images = _numbers(no, rest.split(), int, "image list")
            try:
                tables[name] = _checked_map(name, images, n, tables)
            except InputError as exc:
                raise IFSParseError(no, str(exc)) from None
        elif line == "metric:":
            if metric is not None:
                raise IFSParseError(no, "second metric block")
            metric, block = [], no
            for no, row in lines:
                entries = row.split()
                if len(entries) != n:
                    raise IFSParseError(no, f"metric row has {len(entries)} entries, expected {n}")
                metric.append(_numbers(no, entries, exact_rational, "metric row"))
                if len(metric) == n:
                    break
            if len(metric) < n:
                raise IFSParseError(block, f"metric block needs {n} rows")
        else:
            raise IFSParseError(no, f"unrecognized line {line!r}")
    if not tables:
        raise IFSParseError(no, "no label lines; at least one map is required")
    return FiniteIFS(tables, metric=metric)


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
