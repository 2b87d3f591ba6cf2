from textwrap import dedent

import pytest

from addingmachine import finite_ifs
from addingmachine.cli import main

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
    # today's behaviour, not a sound verdict: a^2 < 2 here, so T_a is
    # renormalizable, but hulls sampled after the transient lose c_1 and
    # c_2, an image escapes, and every level reads "absent" (ROADMAP item 4)
    code, out, _ = run(capsys, "tent", "cycle", "--a", "(12-2*sqrt(5))/7",
                       "--primes", "2,2,2", "--window", "256", "--transient", "64")
    assert code == 0
    assert out == dedent("""\
        # tent tower
        # a = (12-2*sqrt(5))/7
        # transient = 64, window = 256, margin = 0
        # primes = 2,2,2
        level size 2: absent
        level size 4: absent
        level size 8: absent
        deepest certified: 0
        """) + SURD_TOWER_NOTE


def test_tent_cycle_needs_n_or_primes(capsys):
    code, _, err = run(capsys, "tent", "cycle", "--a", "13/10")
    assert code == 1
    assert "--n or --primes" in err


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


def test_tent_sweep_needs_n_or_primes_on_an_empty_range(capsys):
    code, out, err = run(capsys, "tent", "sweep", "--from", "2", "--to", "1", "--step", "1")
    assert code == 1
    assert out == ""
    assert "--n or --primes" in err


def test_tent_bad_slope(capsys):
    code, _, err = run(capsys, "tent", "orbit", "--a", "5/2", "--budget", "4")
    assert code == 1
    assert "slope" in err


def test_tent_zero_denominator_after_sqrt(capsys):
    code, out, err = run(capsys, "tent", "orbit", "--a", "sqrt(2)/0")
    assert code == 1
    assert out == ""
    assert err == "error: zero denominator in 'sqrt(2)/0'\n"


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
])
def test_tent_mixed_radicands_are_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot combine sqrt(")


# -- exit code remapping ----------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main(["odometer", "add", "--base", "2;2"]) == 1
    assert main(["tent", "nonsense"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
