from fractions import Fraction
from textwrap import dedent

import pytest

from addingmachine.errors import IFSParseError, InputError
from addingmachine.finite_ifs import FiniteIFS, rotation_system
from addingmachine.ifs_io import format_ifs, load_ifs, parse_ifs

PLAIN = dedent("""\
    states: 0 1 2 3
    label a: 1 2 3 0
    label b: 1 0 1 0
    """)

WITH_METRIC = dedent("""\
    states: 0 1 2
    label a: 1 2 0
    metric:
    0 1/2 1
    1/2 0 1/2
    1 1/2 0
    """)


def test_parse_plain():
    F = parse_ifs(PLAIN)
    assert F.n_states == 4
    assert F.labels == ("a", "b")
    assert F.table("b") == (1, 0, 1, 0)


def test_parse_with_metric():
    F = parse_ifs(WITH_METRIC)
    assert F.distance(0, 2) == 1
    assert F.distance(1, 2) == Fraction(1, 2)


def test_roundtrip():
    for text in (PLAIN, WITH_METRIC):
        F = parse_ifs(text)
        assert parse_ifs(format_ifs(F)) == F
    G = rotation_system(6, [1, 3])
    assert parse_ifs(format_ifs(G)) == G


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nstates: 0 1\n# the swap\nlabel a: 1 0\n\n"
    assert parse_ifs(text) == rotation_system(2, [1])


HEAD = "# a swap\n\nstates: 0 1\n"  # the states line is line 3

# (text, line, message) for every IFSParseError that parse_ifs raises
PARSE_ERRORS = [
    ("", 1, "empty description"),
    ("# nothing\n\n  \n", 1, "empty description"),
    ("\n# a\nlabel a: 1 0\n", 3, "expected 'states:' line, got 'label a: 1 0'"),
    ("\nstates: 0 one\n", 2, "malformed state list '0 one'"),
    ("\nstates:\n", 2, "states must be 0 1 ... n-1 in order"),
    ("\nstates: 1 0\n", 2, "states must be 0 1 ... n-1 in order"),
    (HEAD + "label a 1 0\n", 4, "malformed label line 'label a 1 0'"),
    (HEAD + "label : 1 0\n", 4, "malformed label line 'label : 1 0'"),
    (HEAD + "label a b: 1 0\n", 4, "malformed label line 'label a b: 1 0'"),
    (HEAD + "label a: 1 x\n", 4, "malformed image list '1 x'"),
    (HEAD + "label a: 1\n", 4, "map 'a' has 1 entries, expected 2"),
    (HEAD + "label a: 1 2\n", 4, "map 'a' sends 1 to 2, outside 0..1"),
    (HEAD + "label a: 1 0\n# again\nlabel a: 0 1\n", 6, "duplicate label 'a'"),
    (HEAD + "label a: 1 0\nwhat is this\n", 5, "unrecognized line 'what is this'"),
    # reported at the last meaningful line, a metric row included
    (HEAD, 3, "no label lines; at least one map is required"),
    (HEAD + "metric:\n0 1\n1 0\n\n# end\n", 6, "no label lines; at least one map is required"),
]
METRIC_ERRORS = [
    (HEAD + "label a: 1 0\nmetric:\n0 1\n\n", 5, "metric block needs 2 rows"),
    (HEAD + "label a: 1 0\nmetric:\n0 1 1\n1 0\n", 6, "metric row has 3 entries, expected 2"),
    (HEAD + "label a: 1 0\nmetric:\n0 1\n1 x\n", 7, "malformed metric row '1 x'"),
    (HEAD + "label a: 1 0\nmetric:\n0 1/0\n1 0\n", 6, "malformed metric row '0 1/0'"),
    (HEAD + "label a: 1 0\nmetric:\n0 1\n1 0\nmetric:\n", 8, "second metric block"),
]


def _assert_parse_errors(cases):
    for text, line_no, message in cases:
        with pytest.raises(IFSParseError) as e:
            parse_ifs(text)
        assert (text, e.value.line_no, str(e.value)) == (text, line_no, f"line {line_no}: {message}")


def test_parse_errors_carry_line_numbers():
    _assert_parse_errors(PARSE_ERRORS)


def test_metric_block_errors():
    _assert_parse_errors(METRIC_ERRORS)


@pytest.mark.parametrize("bad", ["b: 1", "b: 0 -1", "b: 0 1 1", "a: 0 1"])
def test_label_lines_obey_the_constructor_rule(bad):
    # one rule for a valid map: the parser reports FiniteIFS's own
    # message at the offending label line
    name, images = bad.split(":")
    with pytest.raises(InputError) as built:
        FiniteIFS([("a", (1, 0)), (name, map(int, images.split()))])
    with pytest.raises(IFSParseError) as parsed:
        parse_ifs(f"states: 0 1\nlabel a: 1 0\nlabel {bad}\n")
    assert str(parsed.value) == f"line 3: {built.value}"


def test_metric_axiom_violations_are_input_errors():
    bad = "states: 0 1\nlabel a: 1 0\nmetric:\n0 1\n2 0\n"
    with pytest.raises(InputError) as e:
        parse_ifs(bad)
    assert not isinstance(e.value, IFSParseError)


def test_load_ifs(tmp_path):
    p = tmp_path / "sys.ifs"
    p.write_text(WITH_METRIC)
    assert load_ifs(p) == parse_ifs(WITH_METRIC)


def test_format_is_deterministic():
    F = FiniteIFS({"b": (0, 1), "a": (1, 0)})
    assert format_ifs(F) == format_ifs(parse_ifs(format_ifs(F)))
