"""Self-checks of the benchmark: oracles reject corrupted reports, and
every workload runs end to end at a tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout

import pytest

import layers
import run
import workloads as W

sys.path.insert(0, str(run.ROOT / "src"))

TINY = {
    "ifs-rotation": W.RotationWorkload(ladder=(8, 12, 16), templates=((2, 1), (3, 2))),
    "ifs-semigroup": W.SemigroupWorkload(
        ladder=((4, 2, 10, 40), (5, 2, 20, 80), (6, 2, 40, 160)), per_rung=2),
    "tent-certify": W.TentWorkload(scale=10),
}


def cli_output(argv) -> tuple[str, int]:
    from addingmachine.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(list(argv))
    return out.getvalue(), rc


def kinds(problems):
    return [kind for kind, _ in problems]


def rotation_op(tmp_path, op, m, shifts, d):
    tables = [tuple((x + s) % m for x in range(m)) for s in shifts]
    path = tmp_path / "rot.ifs"
    W.write_ifs(path, tables)
    check = W.check_rotation(W.rotation_report(op, str(path), m, shifts, d))
    out, rc = cli_output(("ifs", op, str(path)))
    assert check(out, rc) == []
    return out, rc, check


def test_rotation_oracle_rejects_a_dropped_spectrum_member(tmp_path):
    out, rc, check = rotation_op(tmp_path, "analyze", 12, [1, 5, 9], 4)
    assert "spectrum: 1 2 4\n" in out
    bad = out.replace("spectrum: 1 2 4\n", "spectrum: 1 4\n")
    assert kinds(check(bad, rc)) == ["unexpected"]


def test_rotation_oracle_rejects_a_swapped_tower_digit(tmp_path):
    out, rc, check = rotation_op(tmp_path, "verify", 12, [1, 5, 9], 4)
    line = next(l for l in out.splitlines() if l.endswith(" -> 1,0"))
    bad = out.replace(line + "\n", line.replace("1,0", "0,1") + "\n")
    assert kinds(check(bad, rc)) == ["unexpected"]
    assert check(out, 2) != []


def test_semigroup_oracle_rejects_corrupted_reports(tmp_path):
    tables = [(1, 2, 3, 0), (0, 0, 1, 2)]
    assert W.strongly_connected(tables) and W.graph_period(tables) == 1
    path = tmp_path / "semi.ifs"
    W.write_ifs(path, tables)
    corruptions = {
        "analyze": [("cover[1]: none (0 minimal sets, expected 1)", "cover[1]: {0 1 2}"),
                    ("tower: (trivial)", "tower: 2 (sizes 2)")],
        "verify": [("base check: PASS", "base check: FAIL"),
                   ("verdict: PASS", "verdict: FAIL")],
    }
    for op, pairs in corruptions.items():
        check = W.check_semigroup(op, str(path), 4, "a b", 1)
        out, rc = cli_output(("ifs", op, str(path)))
        assert check(out, rc) == []
        for good, wrong in pairs:
            bad = out.replace(good, wrong)
            assert bad != out
            assert "unexpected" in kinds(check(bad, rc))


@pytest.mark.parametrize("transient, kind", [(0, "unexpected"), (4, W.KNOWN_DEFECT)])
def test_tent_oracle_counts_a_flipped_certificate(transient, kind):
    slope = W.Slope.make(1081, 0, 0, 1000)  # a^8 < 2: every level exists
    argv = ("tent", "cycle", "--a", slope.text(), "--primes", "2,2,2",
            "--window", "128", "--transient", "0")
    check = W.check_tent(slope, transient, 128)
    out, rc = cli_output(argv)
    out = out.replace("# transient = 0", f"# transient = {transient}")
    assert "level size 2: certified" in out and check(out, rc) == []
    bad = out.replace("level size 2: certified", "level size 2: absent")
    assert kind in kinds(check(bad, rc))


def test_tent_oracle_rejects_certified_above_the_threshold():
    slope = W.Slope.make(3, 0, 0, 2)  # a^2 = 9/4 > 2
    check = W.check_tent(slope, 0, 64)
    out, rc = cli_output(("tent", "cycle", "--a", "3/2", "--primes", "2,2,2",
                          "--window", "64", "--transient", "0"))
    assert check(out, rc) == []
    bad = out.replace("level size 2: absent", "level size 2: certified")
    assert bad != out and kinds(check(bad, rc))[0] == "unexpected"


def test_threshold_arithmetic_is_exact():
    sqrt2 = W.Slope(0, 1, 2, 1)
    assert sqrt2.power_minus_two_sign(2) == 0
    assert sqrt2.power_minus_two_sign(4) == 1
    fourth_root_below = W.Slope.make(1189, 0, 0, 1000)  # 1.189 < 2^(1/4)
    assert fourth_root_below.power_minus_two_sign(4) == -1
    assert fourth_root_below.power_minus_two_sign(8) == 1
    # (1 + sqrt(5))/3 = 1.0787 < 2^(1/8)
    assert W.Slope.make(1, 1, 5, 3).power_minus_two_sign(8) == -1
    rng = random.Random(0)
    for _ in range(200):
        slope = W.surd_slope(rng) if rng.random() < 0.5 else W.rational_slope(rng)
        assert slope.in_range()


def test_rotation_generator_plants_the_period():
    rng = random.Random(1)
    for m in W.RotationWorkload().ladder:
        for k, d in W.ROTATION_TEMPLATES:
            shifts = W.rotation_shifts(rng, m, k, d)
            tables = [tuple((x + s) % m for x in range(m)) for s in shifts]
            assert len(set(shifts)) == k and 0 not in shifts
            assert W.graph_period(tables) == d and W.strongly_connected(tables)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(24) == 50
    assert run.tail_percentile(36) == 70
    assert run.tail_percentile(54) == 80
    assert run.tail_percentile(180) == 90
    assert run.tail_percentile(360) == 95
    assert run.tail_percentile(5) == 100


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_traced_and_untraced_with_one_digest(name, tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workload = TINY[name]
    workdir = tmp_path / "work"
    setup_samples, cli, deck = run.setup(workload, 7, workdir)
    again = workload.build(7, workdir)  # same seed, same inputs
    assert [op.argv for op in again] == [op.argv for op in deck]

    tally = run.Tally()
    metrics, digests, _ = run.end_to_end(cli, deck, 0, workdir, tally, setup_samples)
    assert tally.unexpected == 0 and tally.attempted == len(deck)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}

    traced, traced_digests, _, problems = run.per_layer(
        cli, deck, 0, workdir, tally, name, tmp_path / "spans.csv")
    assert problems == []
    assert traced_digests == digests and len(digests) == 1
    assert set(traced) == {m["name"] for m in spec["per_layer"]}
    assert all(traced[f"{n}.calls"][0] > 0 for n in layers.ACTIVE[name])
    assert tally.unexpected == 0
