import argparse
import hashlib
import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from textwrap import dedent
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from addingmachine import cli, conjugacy, finite_ifs, interval_dynamics
from addingmachine.cli import SWEEP_MAX_STEPS, main
from addingmachine.ifs_io import format_ifs

Z6_TWO_TEXT = dedent("""\
    states: 0 1 2 3 4 5
    label a: 1 2 3 4 5 0
    label b: 3 4 5 0 1 2
    """)


@pytest.fixture
def z6two(tmp_path):
    p = tmp_path / "z6two.ifs"
    p.write_text(Z6_TWO_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- odometer ------------------------------------------------------------------


def test_odometer_add(capsys):
    code, out, _ = run(capsys, "odometer", "add", "--base", "2,3;5",
                       "--p", "1,2,4", "--q", "1,1,0")
    assert code == 0
    assert out == "0,1,0\n"


def test_odometer_succ(capsys):
    code, out, _ = run(capsys, "odometer", "succ", "--base", "2;3",
                       "--point", "1,1,2")
    assert code == 0
    assert out == "0,2,2\n"


def test_odometer_succ_dyadic_rollover(capsys):
    code, out, _ = run(capsys, "odometer", "succ", "--base", ";2",
                       "--point", "1,1,1")
    assert code == 0
    assert out == "0,0,0\n"


def test_odometer_dist_dyadic(capsys):
    code, out, _ = run(capsys, "odometer", "dist", "--base", ";2",
                       "--p", "0,0,0,0", "--q", "0,1,1,0")
    assert code == 0
    assert out == "3/8\n"


def test_odometer_dist(capsys):
    code, out, _ = run(capsys, "odometer", "dist", "--base", "2;2",
                       "--p", "0,1,1", "--q", "0,0,1")
    assert code == 0
    assert out == "1/4\n"


def test_odometer_conjugate_yes(capsys):
    code, out, _ = run(capsys, "odometer", "conjugate",
                       "--base1", "4,3;5", "--base2", "2,2,3;5")
    assert code == 0
    assert out == dedent("""\
        # odometer conjugate
        # base1 = 4,3;5
        # base2 = 2,2,3;5
        M1: 2^2 3^1 5^inf
        M2: 2^2 3^1 5^inf
        conjugate: yes
        """)


def test_odometer_conjugate_no(capsys):
    code, out, _ = run(capsys, "odometer", "conjugate",
                       "--base1", "4;5", "--base2", "2;5")
    assert code == 0
    assert "M1: 2^2 5^inf" in out
    assert "M2: 2^1 5^inf" in out
    assert out.endswith("conjugate: no\n")


def test_odometer_conjugate_needs_full_base(capsys):
    code, _, err = run(capsys, "odometer", "conjugate",
                       "--base1", "4,3", "--base2", "2,2,3;5")
    assert code == 1
    assert "';'" in err


def test_odometer_conjugate_rejects_finite_tails(capsys):
    # well-formed finite bases parse, but profiles need an infinite tail
    code, _, err = run(capsys, "odometer", "conjugate",
                       "--base1", "2,3;", "--base2", "6;")
    assert code == 1
    assert "infinite tail" in err


# -- ifs -----------------------------------------------------------------------


def test_ifs_analyze(capsys, z6two):
    code, out, _ = run(capsys, "ifs", "analyze", z6two)
    assert code == 0
    assert out == dedent(f"""\
        # ifs analyze
        # input: {z6two}
        # states: 6
        # labels: a b
        # bound: 6
        # horizon: 36
        minimal: yes
        spectrum: 1 2
        cover[1]: {{0 1 2 3 4 5}}
        cover[2]: {{0 2 4}} {{1 3 5}}
        tower: 2 (sizes 2)
        level 1: {{0 2 4}} {{1 3 5}}
        digits:
        0 -> 0
        1 -> 1
        2 -> 0
        3 -> 1
        4 -> 0
        5 -> 1
        equivariance a: PASS
        equivariance b: PASS
        recurrent: (none)
        injective on recurrent: yes
        """)


def test_ifs_analyze_not_minimal(capsys, tmp_path):
    p = tmp_path / "half.ifs"
    p.write_text("states: 0 1 2 3\nlabel a: 2 3 0 1\n")
    code, out, _ = run(capsys, "ifs", "analyze", str(p))
    assert code == 0
    assert "minimal: no" in out
    assert "periodic: 0 1 2 3" in out
    assert "spectrum" not in out


def test_ifs_analyze_six_cycle(capsys, tmp_path):
    p = tmp_path / "z6.ifs"
    p.write_text("states: 0 1 2 3 4 5\nlabel a: 1 2 3 4 5 0\n")
    code, out, _ = run(capsys, "ifs", "analyze", str(p), "--bound", "6")
    assert code == 0
    assert "spectrum: 1 2 3 6" in out
    assert "tower: 2 3 (sizes 2 6)" in out
    assert "equivariance a: PASS" in out


def test_ifs_analyze_huge_bound_returns(capsys, z6two):
    code, out, _ = run(capsys, "ifs", "analyze", z6two, "--bound", "1000000000")
    assert code == 0
    assert "spectrum: 1 2\n" in out


def test_ifs_verify_passes(capsys, tmp_path):
    p = tmp_path / "z4.ifs"
    p.write_text("states: 0 1 2 3\nlabel a: 1 2 3 0\n")
    code, out, _ = run(capsys, "ifs", "verify", str(p))
    assert code == 0
    assert "tower: 2 2 (sizes 2 4)" in out
    assert "digits:" in out
    assert "0 -> 0,0" in out
    assert "3 -> 1,1" in out
    assert "equivariance a: PASS" in out
    assert "injective on recurrent: yes (4 states)" in out
    assert "base check: PASS (2^2)" in out
    assert out.endswith("verdict: PASS\n")


def test_ifs_verify_full_report(capsys, z6two):
    code, out, _ = run(capsys, "ifs", "verify", z6two)
    assert code == 0
    assert out == dedent(f"""\
        # ifs verify
        # input: {z6two}
        # states: 6
        # labels: a b
        tower: 2 (sizes 2)
        level 1: {{0 2 4}} {{1 3 5}}
        digits:
        0 -> 0
        1 -> 1
        2 -> 0
        3 -> 1
        4 -> 0
        5 -> 1
        equivariance a: PASS
        equivariance b: PASS
        injective on recurrent: yes (0 states)
        base check: PASS (2^1)
        verdict: PASS
        """)


def test_ifs_verify_decides_minimality_once(capsys, z6two, monkeypatch):
    # is_minimal is asked at every guard, but only the first call searches
    searches = []
    reached = finite_ifs._reached

    def counting(successors, x):
        searches.append(x)
        return reached(successors, x)

    monkeypatch.setattr(finite_ifs, "_reached", counting)
    code, out, _ = run(capsys, "ifs", "verify", z6two)
    assert code == 0
    assert len(searches) == 2  # one forward and one reverse search


def test_ifs_analyze_reads_a_bijective_system_off_one_summary(capsys, tmp_path, monkeypatch):
    # one forward and one reverse search, and neither the R walk, the
    # collapsed-pair search nor nm_set
    path = tmp_path / "rot96.ifs"
    path.write_text(format_ifs(finite_ifs.rotation_system(96, [1, 5])))
    searches = []
    reached = finite_ifs._reached

    def counting(successors, starts):
        searches.append(starts)
        return reached(successors, starts)

    def walk(*args):
        raise AssertionError("a walk ran on a bijective system")

    monkeypatch.setattr(finite_ifs, "_reached", counting)
    monkeypatch.setattr(finite_ifs, "_reach_walk", walk)
    monkeypatch.setattr(finite_ifs, "_collapse_layers", walk)
    monkeypatch.setattr(finite_ifs, "nm_set", walk)
    code, out, _ = run(capsys, "ifs", "analyze", str(path))
    assert code == 0
    assert len(searches) == 2
    lines = out.splitlines()
    assert "spectrum: 1 2 4" in lines
    assert "tower: 2 2 (sizes 2 4)" in lines
    assert "recurrent: (none)" in lines


@pytest.fixture
def squeeze3(tmp_path):
    """Minimal but not bijective: no set is minimal for the first power."""
    p = tmp_path / "squeeze3.ifs"
    p.write_text("states: 0 1 2\nlabel a: 2 2 0\nlabel b: 1 0 2\n")
    return str(p)


def test_ifs_analyze_non_bijective_has_no_cover(capsys, squeeze3):
    code, out, _ = run(capsys, "ifs", "analyze", squeeze3)
    assert code == 0
    assert out == dedent(f"""\
        # ifs analyze
        # input: {squeeze3}
        # states: 3
        # labels: a b
        # bound: 3
        # horizon: 9
        minimal: yes
        spectrum: 1
        cover[1]: none (0 minimal sets, expected 1)
        tower: (trivial)
        digits:
        0 -> -
        1 -> -
        2 -> -
        equivariance a: PASS
        equivariance b: PASS
        recurrent: (none)
        injective on recurrent: yes
        """)


def test_ifs_verify_non_bijective(capsys, squeeze3):
    code, out, _ = run(capsys, "ifs", "verify", squeeze3)
    assert code == 0
    assert out == dedent(f"""\
        # ifs verify
        # input: {squeeze3}
        # states: 3
        # labels: a b
        tower: (trivial)
        digits:
        0 -> -
        1 -> -
        2 -> -
        equivariance a: PASS
        equivariance b: PASS
        injective on recurrent: yes (0 states)
        base check: PASS ((empty))
        verdict: PASS
        """)


# minimal and not bijective; the spectrum holds a prime that no tower
# level carries, and on FOLD4 two recurrent states share their digits
FOLD4_TEXT = "states: 0 1 2 3\nlabel a: 1 2 0 0\nlabel b: 1 3 0 0\n"
FOLD3_TEXT = "states: 0 1 2\nlabel a: 1 0 0\nlabel b: 2 0 0\n"


def _trivial_certificate(n):
    digits = "".join(f"{x} -> -\n" for x in range(n))
    return ("tower: (trivial)\ndigits:\n" + digits
            + "equivariance a: PASS\nequivariance b: PASS\n")


def _header(op, path, n):
    return f"# ifs {op}\n# input: {path}\n# states: {n}\n# labels: a b\n"


def test_ifs_verify_fails_on_injectivity_and_base_check(capsys, tmp_path):
    p = tmp_path / "fold4.ifs"
    p.write_text(FOLD4_TEXT)
    code, out, _ = run(capsys, "ifs", "verify", str(p))
    assert code == 2
    assert out == _header("verify", p, 4) + _trivial_certificate(4) + dedent("""\
        injective on recurrent: no (2 states)
        base check: FAIL (tower gives 3^0 but the power spectrum supports 3^1)
        verdict: FAIL
        """)


def test_ifs_verify_reports_an_equivariance_counterexample(capsys, tmp_path, monkeypatch):
    # a factor map with the residues of states 0 and 1 swapped: state 0
    # (residue 1) goes to state 1 (residue 0), not to residue 2
    real = conjugacy.build_factor_map

    def swapped(F, tower):
        fm = real(F, tower)
        digits = list(fm.digits)
        digits[0], digits[1] = digits[1], digits[0]
        return conjugacy.FactorMap.from_digits(fm.primes, digits)

    monkeypatch.setattr(conjugacy, "build_factor_map", swapped)
    p = tmp_path / "z4.ifs"
    p.write_text("states: 0 1 2 3\nlabel a: 1 2 3 0\n")
    code, out, _ = run(capsys, "ifs", "verify", str(p))
    assert code == 2
    assert out.endswith(dedent("""\
        digits:
        0 -> 1,0
        1 -> 0,0
        2 -> 0,1
        3 -> 1,1
        equivariance a: FAIL
        counterexample: label a at state 0
        injective on recurrent: yes (4 states)
        base check: PASS (2^2)
        verdict: FAIL
        """))


def test_ifs_analyze_reports_a_non_injective_recurrent_set(capsys, tmp_path):
    p = tmp_path / "fold4.ifs"
    p.write_text(FOLD4_TEXT)
    code, out, _ = run(capsys, "ifs", "analyze", str(p))
    assert code == 0
    assert out == _header("analyze", p, 4) + dedent("""\
        # bound: 4
        # horizon: 16
        minimal: yes
        spectrum: 1 3
        cover[1]: none (0 minimal sets, expected 1)
        cover[3]: none (2 minimal sets, expected 3)
        """) + _trivial_certificate(4) + dedent("""\
        recurrent: 0 1
        injective on recurrent: no
        """)


def test_ifs_verify_base_check_fails_on_a_spectrum_prime_without_a_level(capsys, tmp_path):
    p = tmp_path / "fold3.ifs"
    p.write_text(FOLD3_TEXT)
    code, out, _ = run(capsys, "ifs", "verify", str(p))
    assert code == 2
    assert out == _header("verify", p, 3) + _trivial_certificate(3) + dedent("""\
        injective on recurrent: yes (1 state)
        base check: FAIL (tower gives 2^0 but the power spectrum supports 2^1)
        verdict: FAIL
        """)
    code, out, _ = run(capsys, "ifs", "analyze", str(p))
    assert code == 0
    assert out == _header("analyze", p, 3) + dedent("""\
        # bound: 3
        # horizon: 9
        minimal: yes
        spectrum: 1 2
        cover[1]: none (0 minimal sets, expected 1)
        cover[2]: none (1 minimal sets, expected 2)
        """) + _trivial_certificate(3) + dedent("""\
        recurrent: 0
        injective on recurrent: yes
        """)


def test_ifs_analyze_walks_the_collapsed_pairs_once(capsys, tmp_path, monkeypatch):
    # the spectrum walks once; canonical_cover's check for each of the
    # members 1 and 3 reads that walk instead of walking again
    p = tmp_path / "fold4.ifs"
    p.write_text(FOLD4_TEXT)
    calls = []
    collapse = finite_ifs._collapse_layers

    def counting(F):
        calls.append(F)
        return collapse(F)

    monkeypatch.setattr(finite_ifs, "_collapse_layers", counting)
    code, out, _ = run(capsys, "ifs", "analyze", str(p))
    assert code == 0
    assert "spectrum: 1 3" in out.splitlines()
    assert len(calls) == 1


def perm_and_map_system(n):
    """The CI hang guard's system: the first minimal draw of random.Random(1)."""
    r = random.Random(1)
    while True:
        F = finite_ifs.FiniteIFS({"a": tuple(r.sample(range(n), n)),
                                  "b": tuple(r.randrange(n) for _ in range(n))})
        if finite_ifs.is_minimal(F):
            return F


# sha256 of the stdout without its "# input:" line, as printed by a closure
# pass that grows one closure per state and drops one state per rejection
@pytest.mark.parametrize("op, digest", [
    ("analyze", "30a712910c13232b5e0fc13833e25e70f92da132b5f4bd6d0cecb91fa7886e23"),
    ("verify", "10304fc8502d1e8936fbcfad750ee034a7be6e446818ca4b146eb69c034e37c7"),
], ids=["analyze", "verify"])
def test_ifs_reports_on_a_200_state_non_bijective_system_keep_their_bytes(
        capsys, tmp_path, op, digest):
    p = tmp_path / "perm-map-200.ifs"
    p.write_text(format_ifs(perm_and_map_system(200)))
    code, out, _ = run(capsys, "ifs", op, str(p))
    assert code == 0
    text = "".join(l for l in out.splitlines(True) if not l.startswith("# input:"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_ifs_verify_rejects_non_minimal(capsys, tmp_path):
    p = tmp_path / "half.ifs"
    p.write_text("states: 0 1 2 3\nlabel a: 2 3 0 1\n")
    code, _, err = run(capsys, "ifs", "verify", str(p))
    assert code == 1
    assert "minimal" in err


def test_ifs_parse_error_reports_line(capsys, tmp_path):
    p = tmp_path / "bad.ifs"
    p.write_text("states: 0 1\nlabel a: 1 5\n")
    code, _, err = run(capsys, "ifs", "analyze", str(p))
    assert code == 1
    assert "line 2" in err


def test_ifs_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "ifs", "analyze", str(tmp_path / "nope.ifs"))
    assert code == 1
    assert "error" in err


def test_ifs_unreadable_inputs_are_input_errors(capsys, z6two, tmp_path):
    latin1 = tmp_path / "latin1.ifs"
    latin1.write_bytes(b"# caf\xe9\n" + Z6_TWO_TEXT.encode())
    for argv in (["ifs", "analyze", str(tmp_path)],
                 ["ifs", "verify", str(latin1)],
                 ["ifs", "analyze", z6two, "--output", str(tmp_path)]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
    assert "not UTF-8" in run(capsys, "ifs", "analyze", str(latin1))[2]


def test_ifs_analyze_output_file_and_determinism(capsys, z6two, tmp_path):
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(["ifs", "analyze", z6two, "--output", str(out1)]) == 0
    assert main(["ifs", "analyze", z6two, "--output", str(out2)]) == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.decode().startswith("# ifs analyze")


def test_main_keeps_no_option_values_between_calls(capsys, z6two, tmp_path):
    report = tmp_path / "report.txt"
    assert main(["ifs", "analyze", z6two, "--output", str(report)]) == 0
    assert capsys.readouterr().out == ""
    code, out, _ = run(capsys, "ifs", "analyze", z6two)
    assert code == 0
    assert out == report.read_text()


# -- tent ----------------------------------------------------------------------


def test_tent_orbit(capsys):
    code, out, _ = run(capsys, "tent", "orbit", "--a", "(0+1*sqrt(2))/1",
                       "--budget", "8")
    assert code == 0
    assert out == dedent("""\
        # tent orbit
        # a = (0+1*sqrt(2))/1
        # budget = 8
        k=0: 1/2
        k=1: (0+1*sqrt(2))/2
        k=2: (-1+1*sqrt(2))/1
        k=3: (2-1*sqrt(2))/1
        status: exact-cycle-found
        cycle: start 3 period 1
        """)


def test_tent_orbit_full_slope_reaches_zero(capsys):
    code, out, _ = run(capsys, "tent", "orbit", "--a", "2", "--budget", "10")
    assert code == 0
    assert "k=0: 1/2\nk=1: 1\nk=2: 0\n" in out
    assert "cycle: start 2 period 1" in out


def test_tent_kneading(capsys):
    code, out, _ = run(capsys, "tent", "kneading", "--a", "13/10", "--length", "5")
    assert code == 0
    assert out.endswith("RLRRR\n")


# sha256 of the stdout of long kneading and orbit runs on rational and surd
# slopes; kneading reads the integer walk, orbit steps exact numbers
@pytest.mark.parametrize("slope, kneading, orbit", [
    ("13/10", "5dadcf022bf0eb483d61463486c14e74fa71368d342aab026758fd39c0a5c2f8",
     "7b2ba855cee6bdb7974f728a160d923576641267613a1b177f9ff794d8e26a6a"),
    ("1414/1000", "1d76379d499ed19c0dfa903713151d82c18aecc61558678a6f87aef6cc142c80",
     "169ef418dc9cc2e9aec56b1b7c15aa8d28d776836b79e9a125d453c447e6fc36"),
    ("(12-2*sqrt(5))/7", "dbcdea845f25622484f4db58c16becfadbcfcd667d24a1b022e6b2429f59bbe8",
     "eb0480f183e5b97e424f1d0f39b38db02586bf5554649278f32c43390288e449"),
    ("(1+sqrt(5))/2", "f0d8cce3415eb687c5efb5ef8132d1cf049e37633f55212292fbd51f4ac456e7",
     "0dd9db83b2580a4f9898ba9db1e8d37b7f74ef33aff80cc5d58cbd8b48cb8322"),
])
def test_tent_kneading_and_orbit_keep_their_bytes(capsys, slope, kneading, orbit):
    for argv, digest in ((("kneading", "--length", "2000"), kneading),
                         (("orbit", "--budget", "200"), orbit)):
        code, out, _ = run(capsys, "tent", *argv, "--a", slope)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tent_cycle_certified(capsys):
    code, out, _ = run(capsys, "tent", "cycle", "--a", "13/10", "--n", "2")
    assert code == 0
    assert "status: certified" in out
    assert "I[0] = [91/200, 10621/20000]" in out
    assert "I[1] = [1183/2000, 13/20]" in out


def test_tent_cycle_surd_hull_endpoints(capsys):
    code, out, _ = run(capsys, "tent", "cycle", "--a", "(12-2*sqrt(5))/7",
                       "--n", "2", "--window", "128")
    assert code == 0
    assert out == dedent("""\
        # tent cycle
        # a = (12-2*sqrt(5))/7
        # transient = 0, window = 128, margin = 0
        # n = 2
        status: certified
        I[0] = [(2+10*sqrt(5))/49, (6188-2230*sqrt(5))/2401]
        I[1] = [(-76+116*sqrt(5))/343, (6-1*sqrt(5))/7]
        """)


def test_tent_cycle_absent(capsys):
    code, out, _ = run(capsys, "tent", "cycle", "--a", "2", "--n", "2")
    assert code == 0
    assert "status: absent" in out
    assert "overlap: class 0 and class 1" in out


def test_tent_cycle_escape_report(capsys):
    # a margin in sqrt(2) widens the rational hulls of 13/10, whose
    # containment has no slack, so the image of I[0] leaks out of I[1]
    code, out, _ = run(capsys, "tent", "cycle", "--a", "13/10", "--n", "2",
                       "--margin", "sqrt(2)/100")
    assert code == 0
    assert out == dedent("""\
        # tent cycle
        # a = 13/10
        # transient = 0, window = 64, margin = sqrt(2)/100
        # n = 2
        status: inconclusive
        """) + ("escape: T(I[0]) = [(1183-26*sqrt(2))/2000, 13/20] not inside "
               "I[1] = [(1183-20*sqrt(2))/2000, (65+1*sqrt(2))/100]\n")


def test_tent_cycle_absent_at_a_later_prefix(capsys):
    # the hulls of the first three prefixes (13, 19 and 25 points) are
    # disjoint but escape; the fourth (31 points) makes two of them meet
    code, out, _ = run(capsys, "tent", "cycle", "--a", "637/500", "--n", "6")
    assert code == 0
    assert out == dedent("""\
        # tent cycle
        # a = 637/500
        # transient = 0, window = 64, margin = 0
        # n = 6
        status: absent
        overlap: class 2 and class 4
        """)


def test_tent_tower(capsys):
    code, out, _ = run(capsys, "tent", "cycle", "--a", "11/10",
                       "--primes", "2,2", "--window", "128")
    assert code == 0
    assert "level size 2: certified" in out
    assert "level size 4: certified" in out
    assert "deepest certified: 2" in out
    assert "note: " in out


SURD_TOWER_NOTE = (
    "note: certified levels witness disjoint interval families cyclically "
    "permuted by the map; they are necessary evidence for adding-machine "
    "structure on the critical orbit closure, not a proof of it\n"
)


def test_tent_tower_surd_slope(capsys):
    code, out, _ = run(capsys, "tent", "cycle", "--a", "(12-2*sqrt(5))/7",
                       "--primes", "2,2,2", "--window", "256")
    assert code == 0
    assert out == dedent("""\
        # tent tower
        # a = (12-2*sqrt(5))/7
        # transient = 0, window = 256, margin = 0
        # primes = 2,2,2
        level size 2: certified
        level size 4: certified
        level size 8: certified
        deepest certified: 3
        """) + SURD_TOWER_NOTE


def test_tent_tower_surd_slope_after_a_transient(capsys):
    # a^8 < 2 here, so T_a is renormalizable at every level: --transient is
    # accepted and echoed but has no effect, and the report is the
    # transient-free one
    code, out, _ = run(capsys, "tent", "cycle", "--a", "(12-2*sqrt(5))/7",
                       "--primes", "2,2,2", "--window", "256", "--transient", "64")
    assert code == 0
    assert out == dedent("""\
        # tent tower
        # a = (12-2*sqrt(5))/7
        # transient = 64, window = 256, margin = 0
        # primes = 2,2,2
        level size 2: certified
        level size 4: certified
        level size 8: certified
        deepest certified: 3
        """) + SURD_TOWER_NOTE


@pytest.mark.parametrize("transient", [0, 1, 2, 64])
def test_tent_cycle_certifies_whatever_the_transient(capsys, transient):
    # a^2 = 1.212201 < 2: a sampled tail that dropped c_1 and c_2 once read
    # an escape as "absent" from transient 2 on
    code, out, _ = run(capsys, "tent", "cycle", "--a", "1101/1000", "--n", "2",
                       "--transient", str(transient))
    assert code == 0
    assert out == dedent(f"""\
        # tent cycle
        # a = 1101/1000
        # transient = {transient}, window = 64, margin = 0
        # n = 2
        status: certified
        I[0] = [989799/2000000, 1002164662401/2000000000000]
        I[1] = [1089768699/2000000000, 1101/2000]
        """)


def test_tent_cycle_long_transient_walks_nothing_extra(capsys):
    # a transient of 24,000 once meant 24,064 exact points and 147 MiB
    started = time.perf_counter()
    code, out, _ = run(capsys, "tent", "cycle", "--a", "13/10", "--primes", "2,2,2",
                       "--transient", "24000")
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert out.splitlines()[2:8] == [
        "# transient = 24000, window = 64, margin = 0",
        "# primes = 2,2,2",
        "level size 2: certified",
        "level size 4: absent",
        "level size 8: absent",
        "deepest certified: 1",
    ]


@pytest.mark.parametrize("op", [("cycle", "--a", "13/10"), ("sweep", "--from", "1", "--to", "2",
                                                            "--step", "1/2")])
def test_tent_negative_transient_is_an_input_error(capsys, op):
    code, out, err = run(capsys, "tent", *op, "--n", "2", "--transient", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: transient must be >= 0, got -1\n"


def decimal_text(x):
    """format_exact's text for a Fraction, with digits from Decimal, which
    has no limit on the size of the ints it prints."""
    if x.denominator == 1:
        return str(Decimal(x.numerator))
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def test_tent_orbit_prints_points_past_the_int_digit_limit(capsys):
    # the last point's denominator is 1000^1434 or 2*1000^1434: 4303 digits
    a = Fraction(1999, 1000)
    code, out, _ = run(capsys, "tent", "orbit", "--a", "1999/1000", "--budget", "1434")
    assert code == 0
    x = Fraction(1, 2)
    for _ in range(1434):
        x = a * x if x < Fraction(1, 2) else a * (1 - x)
    assert len(str(Decimal(x.denominator))) > 4300
    *_, last, status = out.splitlines()
    assert last == f"k=1434: {decimal_text(x)}"
    assert status == "status: transient-only"


def test_tent_cycle_prints_hulls_past_the_int_digit_limit(capsys):
    # a = 1 + 10^-1500 certifies on c_0, ..., c_4, whose denominators reach
    # 2*10^6000; the slope itself prints in 1,501-digit parts
    s = 10**1500
    a = Fraction(s + 1, s)
    code, out, _ = run(capsys, "tent", "cycle", "--a", f"{s + 1}/{s}", "--n", "2")
    assert code == 0
    det = interval_dynamics.detect_interval_cycle(a, 2)
    assert det.status == "certified"
    ends = [x for hull in det.intervals for x in hull]
    assert max(len(str(Decimal(x.denominator))) for x in ends) > 4300
    assert out.splitlines()[-3:] == ["status: certified"] + [
        f"I[{j}] = [{decimal_text(lo)}, {decimal_text(hi)}]"
        for j, (lo, hi) in enumerate(det.intervals)
    ]


def test_tent_cycle_needs_n_or_primes(capsys):
    code, _, err = run(capsys, "tent", "cycle", "--a", "13/10")
    assert code == 1
    assert "--n or --primes" in err


@pytest.mark.parametrize("op", [("cycle", "--a", "13/10"),
                                ("sweep", "--from", "1", "--to", "3/2", "--step", "1/4")])
def test_tent_n_and_primes_exclude_each_other(capsys, op):
    # given both, the command once printed the --primes tower and dropped --n
    code, out, err = run(capsys, "tent", *op, "--primes", "2,2", "--n", "3")
    assert code == 1
    assert out == ""
    assert "--n" in err and "--primes" in err


def test_tent_sweep(capsys):
    code, out, _ = run(capsys, "tent", "sweep", "--from", "1", "--to", "3/2",
                       "--step", "1/4", "--primes", "2")
    assert code == 0
    assert out == dedent("""\
        a,level_certified,cycle_lengths,status
        1,0,,degenerate
        5/4,1,2,certified
        3/2,0,,absent
        """)


def test_tent_sweep_surd_slopes(capsys):
    code, out, _ = run(capsys, "tent", "sweep", "--from", "(12-2*sqrt(5))/7",
                       "--to", "(13-2*sqrt(5))/7", "--step", "sqrt(5)/40",
                       "--primes", "2,2", "--window", "64")
    assert code == 0
    assert out == dedent("""\
        a,level_certified,cycle_lengths,status
        (12-2*sqrt(5))/7,2,2;4,certified
        (480-73*sqrt(5))/280,2,2;4,certified
        (240-33*sqrt(5))/140,2,2;4,certified
        """)


def test_tent_sweep_single_level(capsys):
    code, out, _ = run(capsys, "tent", "sweep", "--from", "1", "--to", "3/2",
                       "--step", "1/4", "--n", "2")
    assert code == 0
    assert out == dedent("""\
        a,level_certified,cycle_lengths,status
        1,0,,degenerate
        5/4,1,2,certified
        3/2,0,,absent
        """)


def test_tent_sweep_refuses_too_many_slopes_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "tent", "sweep", "--from", "1", "--to", "2",
                         "--step", "1/1000000000", "--primes", "2,2,2")
    assert time.perf_counter() - t0 < 1
    assert code == 1
    assert out == ""
    assert err == (f"error: tent sweep spans more than {SWEEP_MAX_STEPS} steps; "
                   "use a larger --step or a shorter range\n")


def test_tent_sweep_cap_is_on_steps_past_the_start(capsys, monkeypatch):
    # a range of exactly the cap's steps runs, with one more slope than steps
    monkeypatch.setattr(cli, "SWEEP_MAX_STEPS", 4)
    args = ("tent", "sweep", "--from", "1", "--step", "1/4", "--n", "1")
    code, out, _ = run(capsys, *args, "--to", "2")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["1", "5/4", "3/2", "7/4", "2"]
    code, out, err = run(capsys, *args, "--to", "17/8")
    assert (code, out) == (1, "")
    assert "more than 4 steps" in err


def test_tent_sweep_needs_n_or_primes_on_an_empty_range(capsys):
    code, out, err = run(capsys, "tent", "sweep", "--from", "2", "--to", "1", "--step", "1")
    assert code == 1
    assert out == ""
    assert "--n or --primes" in err


def test_tent_bad_slope(capsys):
    code, _, err = run(capsys, "tent", "orbit", "--a", "5/2", "--budget", "4")
    assert code == 1
    assert "slope" in err


def test_tent_negative_surd_slope_names_the_range(capsys):
    code, out, err = run(capsys, "tent", "orbit", "--a=-sqrt(2)")
    assert code == 1
    assert out == ""
    assert "slope must lie in [0, 2]" in err


def test_tent_golden_mean_as_written(capsys):
    code, out, _ = run(capsys, "tent", "kneading", "--a", "(1+sqrt(5))/2", "--length", "5")
    assert code == 0
    assert out == dedent("""\
        # tent kneading
        # a = (1+1*sqrt(5))/2
        # length = 5
        RLCRL
        """)


def test_tent_zero_denominator_after_sqrt(capsys):
    code, out, err = run(capsys, "tent", "orbit", "--a", "sqrt(2)/0")
    assert code == 1
    assert out == ""
    assert err == "error: zero denominator in 'sqrt(2)/0'\n"


def test_tent_large_radicand_is_factored_quickly(capsys):
    # 10^24 + 7 is prime: trial division up to its square root never ended
    started = time.perf_counter()
    code, out, _ = run(capsys, "tent", "orbit", "--a",
                       "(1+sqrt(1000000000000000000000007))/1000000000000", "--budget", "3")
    assert time.perf_counter() - started < 0.5
    assert code == 0
    assert out.splitlines()[1:5] == [
        "# a = (1+1*sqrt(1000000000000000000000007))/1000000000000",
        "# budget = 3",
        "k=0: 1/2",
        "k=1: (1+1*sqrt(1000000000000000000000007))/2000000000000",
    ]


def test_tent_radicand_past_the_factoring_limit_is_an_input_error(capsys):
    code, out, err = run(capsys, "tent", "orbit", "--a", "sqrt(3317044064679887385961981)")
    assert code == 1
    assert out == ""
    assert err == ("error: radicand must be below 3317044064679887385961981, "
                   "got 3317044064679887385961981\n")


def test_tent_chained_sum_is_an_input_error(capsys):
    code, out, err = run(capsys, "tent", "cycle", "--a", "1+2+sqrt(2)", "--n", "2")
    assert code == 1
    assert out == ""
    assert err == "error: malformed exact number '1+2+sqrt(2)'\n"


@pytest.mark.parametrize("argv", [
    ("tent", "sweep", "--from", "sqrt(2)", "--to", "2", "--step", "sqrt(3)/100",
     "--n", "2"),
    ("tent", "cycle", "--a", "(1+1*sqrt(3))/2", "--margin", "(0+1*sqrt(2))/100",
     "--n", "2"),
    # hulls that meet never meet the margin: the radicands are checked first
    ("tent", "cycle", "--a", "sqrt(3)", "--margin", "sqrt(2)/100", "--n", "2"),
    ("tent", "cycle", "--a", "sqrt(3)", "--margin", "sqrt(2)/100", "--primes", "2,2"),
    ("tent", "sweep", "--from", "sqrt(3)", "--to", "2", "--step", "1/10",
     "--margin", "sqrt(2)/100", "--n", "2"),
])
def test_tent_mixed_radicands_are_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot combine sqrt(")


def test_argument_errors_are_named(capsys, z6two):
    for argv, message in (
        (["ifs", "analyze", z6two, "--bound", "0"], "bound and horizon must be >= 1"),
        (["tent", "sweep", "--from", "1", "--to", "2", "--step", "0", "--n", "2"],
         "step must be positive"),
        (["tent", "cycle", "--a", "13/10", "--primes", "2,x"], "malformed prime list '2,x'"),
        # an empty list is given, so it is malformed, not missing
        (["tent", "cycle", "--a", "13/10", "--primes", ""], "malformed prime list ''"),
        (["tent", "sweep", "--from", "1", "--to", "2", "--step", "1/2", "--primes", ""],
         "malformed prime list ''"),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


# -- exit code remapping ----------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main(["odometer", "add", "--base", "2;2"]) == 1
    assert main(["tent", "nonsense"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# -- leaf dispatch ------------------------------------------------------------------

# one valid argv per leaf, past its (command, op); each starts with a
# required argument: the system file for ifs, an option and its value else
VALID_ARGVS = {
    ("odometer", "add"): ["--base", "2;2", "--p", "1,0", "--q", "1"],
    ("odometer", "succ"): ["--base", "2;2", "--point", "1,1"],
    ("odometer", "dist"): ["--base", "2;2", "--p", "0,1", "--q", "1"],
    ("odometer", "conjugate"): ["--base1", "4,3;5", "--base2", "2,2,3;5"],
    ("ifs", "analyze"): ["system.ifs", "--bound", "3", "--horizon", "9", "--output", "o"],
    ("ifs", "verify"): ["system.ifs", "--output", "o"],
    ("tent", "orbit"): ["--a", "13/10", "--budget", "8"],
    ("tent", "kneading"): ["--a", "13/10", "--length", "5"],
    ("tent", "cycle"): ["--a", "13/10", "--n", "2", "--window", "64", "--margin", "0"],
    ("tent", "sweep"): ["--from", "1", "--to", "3/2", "--step", "1/10", "--primes", "2,2"],
}
ABBREVIATIONS = [
    ["tent", "cycle", "--a", "13/10", "--win", "64", "--pr", "2,2"],
    ["tent", "sweep", "--fr", "1", "--to", "2", "--st", "1/2", "--n", "2", "--out", "o"],
    ["odometer", "add", "--ba", "2;2", "--p", "1", "--q", "1"],
    ["odometer", "conjugate", "--base", "2;2", "--base2", "2;2"],  # ambiguous
    ["ifs", "analyze", "system.ifs", "--bo", "3", "--hor", "9"],
]
TOP_LEVEL_ARGVS = [[], ["tent"], ["tent", "nonsense"], ["--help"], ["tent", "--help"],
                   ["odometer"], ["nonsense", "add"], ["-h", "tent", "cycle"]]


def leaf_corpus(leaf, valid):
    """Variants of one leaf's valid argv: well formed, malformed and -h."""
    option = next(i for i, item in enumerate(valid) if item.startswith("--"))
    name, value = valid[option:option + 2]
    required = 2 if valid[0].startswith("--") else 1
    for rest in (
        valid,
        valid[:option] + [f"{name}={value}"] + valid[option + 2:],
        valid + [name, value],  # repeated: the last one counts
        valid[required:],  # the first required argument is missing
        valid + ["--n", "3"],  # with sweep's --primes: they exclude each other
        valid + ["--primes", "2"],  # with cycle's --n
        valid + ["--bogus"],
        valid + ["--bogus=1", "extra"],
        valid + ["-h"],
        ["-h"],
        [],
    ):
        yield [*leaf, *rest]


# the argv shapes of the benchmark decks' ops
DECK_ARGVS = [
    ["tent", "cycle", "--a", "(12-2*sqrt(5))/7", "--primes", "2,2,2", "--window", "256",
     "--transient", "8"],
    ["ifs", "analyze", "F"],
    ["ifs", "verify", "F"],
]


def count_parses(monkeypatch):
    """A list that gets one entry per argparse parse call, on any parser."""
    calls = []

    def counting(parse):
        def counted(self, *args, **kwargs):
            calls.append(parse.__name__)
            return parse(self, *args, **kwargs)
        return counted
    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(argparse.ArgumentParser, name,
                            counting(getattr(argparse.ArgumentParser, name)))
    return calls


def test_main_parses_only_the_leaf_and_matches_the_full_tree(capsys, monkeypatch):
    parser, leaves = cli._build_parser()
    assert set(VALID_ARGVS) == set(leaves)
    plain = [[*leaf, *valid] for leaf, valid in VALID_ARGVS.items()] + DECK_ARGVS
    corpus = [argv for leaf, valid in VALID_ARGVS.items() for argv in leaf_corpus(leaf, valid)]
    corpus += ABBREVIATIONS + TOP_LEVEL_ARGVS + DECK_ARGVS
    parses = count_parses(monkeypatch)
    seen = []
    for name in ("_cmd_odometer", "_cmd_ifs", "_cmd_tent"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
    for argv in corpus:
        seen.clear()
        parses.clear()
        code = main(list(argv))
        got = capsys.readouterr()
        parsed = bool(parses)
        try:
            expected, expected_code = parser.parse_args(list(argv)), 0
        except SystemExit as exc:
            expected, expected_code = None, 0 if exc.code in (0, None) else 1
        want = capsys.readouterr()
        assert (code, got.out, got.err) == (expected_code, want.out, want.err), argv
        assert seen == ([expected] if expected is not None else []), argv
        # plain argv never reaches argparse; an "=" or abbreviated option
        # is valid too, but only the full tree reads it
        if argv in plain:
            assert not parsed, argv


VALUES = ["", "-1", "-sqrt(2)", "x", "64"]


@st.composite
def leaf_argvs(draw):
    """A leaf's (command, op) and tokens, most of the time with its
    required arguments. Half the draws use only its option strings as
    spelled, its repeated and exclusive options among them, and values
    that do not start with '-'; the rest add -h, --opt=value forms,
    abbreviations, options without a value and every value."""
    leaves = cli._build_parser()[1]
    name = draw(st.sampled_from(sorted(leaves)))
    leaf = leaves[name]
    plain = draw(st.booleans())
    option = st.sampled_from(sorted(leaf.options))
    value = st.sampled_from([v for v in VALUES if not (plain and v.startswith("-"))])
    pieces = [st.tuples(option, value), st.tuples(value)]
    if not plain:
        pieces += [st.tuples(option), st.just(("-h",)),
                   st.tuples(st.builds("{}={}".format, option, value)),
                   st.tuples(st.builds(lambda o, k: o[:k], option, st.integers(2, 6)), value)]
    required = [(*action.option_strings[:1], draw(value)) for action in leaf.actions
                if action.required and draw(st.integers(0, 4))]
    pieces = draw(st.permutations(required + draw(st.lists(st.one_of(pieces), max_size=3))))
    return [*name, *(token for piece in pieces for token in piece)]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(argv=leaf_argvs())
# argparse converts every occurrence of a repeated option, and reads
# nothing as the value of a last option
@example(argv=["tent", "cycle", "--a", "x", "--n", "x", "--n", "64"])
@example(argv=["tent", "cycle", "--n", "64", "--a"])
def test_plain_reader_agrees_with_the_full_tree(argv):
    parser, leaves = cli._build_parser()
    args = leaves[tuple(argv[:2])].read(argv)
    if args is not None:
        assert parser.parse_args(list(argv)) == args
    got = run_main(argv)
    with mock.patch.object(cli._Leaf, "read", lambda self, argv: None):
        assert got == run_main(argv)


def test_plain_reader_takes_a_string_default_through_type():
    # no leaf has such a default; argparse converts it, so read does too
    leaf = cli._Leaf(argparse.ArgumentParser())
    leaf.add_argument("--k", type=int, default="7")
    leaf.add_argument("--s", default="x")
    assert vars(leaf.parser.parse_args([])) == {"k": 7, "s": "x"}
    assert leaf.read(["c", "o"]) == argparse.Namespace(command="c", op="o", k=7, s="x")
