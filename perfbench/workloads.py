"""Seeded inputs and exact oracles for the benchmark workloads.

Standard library only, and no code shared with addingmachine: the period
BFS, the rotation closed forms and the tent-map threshold arithmetic are
the benchmark's own, so an oracle never trusts the code being timed.

A workload builds a deck of ops from a seed. An op is one CLI argv plus
a check that reads the op's stdout and exit code and returns a list of
problems, each ``(kind, message)``. ``kind`` is ``"unexpected"`` for
anything wrong, or ``KNOWN_DEFECT`` for the one documented defect at the
seed commit: ``tent cycle`` with a positive ``--transient`` reports
``absent`` for levels that the closed form says exist.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

KNOWN_DEFECT = "transient-absent"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    rung: int
    check: Callable[[str, int], list]


def _first_mismatch(got: str, want: str) -> str:
    g, w = got.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(g, w)):
        if a != b:
            return f"line {i + 1}: got {a!r}, want {b!r}"
    return f"got {len(g)} lines, want {len(w)}"


# -- graph facts, computed independently of the library ----------------------


def strongly_connected(tables) -> bool:
    """Whether the union graph of the maps is strongly connected."""
    n = len(tables[0])
    forward = [[t[x] for t in tables] for x in range(n)]
    backward = [[] for _ in range(n)]
    for x in range(n):
        for y in forward[x]:
            backward[y].append(x)
    for adjacency in (forward, backward):
        seen = {0}
        stack = [0]
        while stack:
            for y in adjacency[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != n:
            return False
    return True


def graph_period(tables) -> int:
    """Period of a strongly connected union graph, from BFS levels.

    d = gcd over edges x -> y of (level(x) + 1 - level(y)), the index of
    imprimitivity of the graph.
    """
    n = len(tables[0])
    level = [-1] * n
    level[0] = 0
    queue = [0]
    for x in queue:
        for t in tables:
            y = t[x]
            if level[y] < 0:
                level[y] = level[x] + 1
                queue.append(y)
    d = 0
    for x in range(n):
        for t in tables:
            d = math.gcd(d, level[x] + 1 - level[t[x]])
    return d


def semigroup_size(tables, cap: int) -> int:
    """Number of distinct word tables, or a value above cap once exceeded."""
    seen = set(tables)
    frontier = list(seen)
    while frontier:
        fresh = []
        for prev in frontier:
            for t in tables:
                table = tuple(t[v] for v in prev)
                if table not in seen:
                    seen.add(table)
                    fresh.append(table)
                    if len(seen) > cap:
                        return len(seen)
        frontier = fresh
    return len(seen)


def prime_factors(n: int) -> list[int]:
    """Prime factors of n in ascending order, with multiplicity."""
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def write_ifs(path: Path, tables) -> None:
    labels = [chr(ord("a") + i) for i in range(len(tables))]
    lines = ["states: " + " ".join(map(str, range(len(tables[0]))))]
    lines += [f"label {l}: " + " ".join(map(str, t)) for l, t in zip(labels, tables)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _block(states) -> str:
    return "{" + " ".join(map(str, states)) + "}"


# -- ifs-rotation --------------------------------------------------------------

# (number of shifts, planted period d); every d divides every ladder size
# and leaves the shifts distinct at the smallest one.
ROTATION_TEMPLATES = tuple((k, d) for k in (2, 3) for d in (1, 2, 4))


def rotation_shifts(rng: random.Random, m: int, k: int, d: int) -> list[int]:
    """u * (1, 1 + d, ..., 1 + (k-1) d) mod m for a seeded unit u mod m.

    Then gcd(m, s_i - s_j) = d and gcd(m, s_1, ...) = 1. Multiplying by a
    unit relabels the states (x -> u x), so every seed gives a system of
    the same structure, and the same cost, for one template; the cost of
    a free choice of shifts moves with how their values meet m.
    """
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    u = rng.choice(units)
    return [u * (1 + j * d) % m for j in range(k)]


def rotation_report(op: str, path: str, m: int, shifts, d: int) -> str:
    """The exact report of `ifs analyze` / `ifs verify` on x -> x + s mod m.

    Closed form: the n-th power's minimal sets are the residue classes
    mod gcd(n, d), so the spectrum is the divisors of d and cover[n] is
    the classes mod n. The color of x mod N | d is x * s1^-1 mod N, the
    greedy tower takes the primes of d in ascending order, and no state
    is fixed by all words of one length.
    """
    labels = [chr(ord("a") + i) for i in range(len(shifts))]
    u = pow(shifts[0], -1, d) if d > 1 else 0
    primes = prime_factors(d)
    sizes = [math.prod(primes[:i]) for i in range(1, len(primes) + 1)]
    tower = ["tower: " + (" ".join(map(str, primes)) or "(trivial)")
             + (f" (sizes {' '.join(map(str, sizes))})" if primes else "")]
    for i, size in enumerate(sizes, start=1):
        blocks = [[x for x in range(m) if x * u % size == j] for j in range(size)]
        tower.append(f"level {i}: " + " ".join(_block(b) for b in blocks))
    tower.append("digits:")
    for x in range(m):
        r, digits = x * u % d if d > 1 else 0, []
        for p in primes:
            digits.append(r % p)
            r //= p
        tower.append(f"{x} -> " + (",".join(map(str, digits)) or "-"))
    tower += [f"equivariance {l}: PASS" for l in labels]
    head = [f"# ifs {op}", f"# input: {path}", f"# states: {m}", f"# labels: {' '.join(labels)}"]
    if op == "analyze":
        spectrum = [n for n in range(1, m + 1) if d % n == 0]
        lines = head + [f"# bound: {m}", f"# horizon: {m * m}", "minimal: yes",
                        "spectrum: " + " ".join(map(str, spectrum))]
        for n in spectrum:
            lines.append(f"cover[{n}]: " + " ".join(_block(range(j, m, n)) for j in range(n)))
        lines += tower + ["recurrent: (none)", "injective on recurrent: yes"]
    else:
        counts = {p: primes.count(p) for p in primes}
        profile = " ".join(f"{p}^{k}" for p, k in sorted(counts.items())) or "(empty)"
        lines = head + tower + ["injective on recurrent: yes (0 states)",
                                f"base check: PASS ({profile})", "verdict: PASS"]
    return "\n".join(lines) + "\n"


def check_rotation(expected: str):
    def check(out: str, rc: int) -> list:
        problems = []
        if rc != 0:
            problems.append(("unexpected", f"exit code {rc}"))
        if out != expected:
            problems.append(("unexpected", _first_mismatch(out, expected)))
        return problems
    return check


@dataclass(frozen=True)
class RotationWorkload:
    """`ifs analyze` and `ifs verify` on minimal rotation systems."""

    ladder: tuple[int, ...] = (12, 16, 20)
    templates: tuple[tuple[int, int], ...] = ROTATION_TEMPLATES

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"ifs-rotation:{seed}")
        per_rung = []
        for rung, m in enumerate(self.ladder):
            ops = []
            for i, (k, d) in enumerate(self.templates):
                shifts = rotation_shifts(rng, m, k, d)
                tables = [tuple((x + s) % m for x in range(m)) for s in shifts]
                if graph_period(tables) != d or not strongly_connected(tables):
                    raise RuntimeError(f"generator planted a wrong period: m={m} {shifts}")
                path = workdir / f"rot-m{m}-{i}.ifs"
                write_ifs(path, tables)
                for op in ("analyze", "verify"):
                    expected = rotation_report(op, str(path), m, shifts, d)
                    ops.append(Op(("ifs", op, str(path)), rung, check_rotation(expected)))
            per_rung.append(ops)
        return _interleave(per_rung, group=2)


def _interleave(per_rung, group: int) -> list[Op]:
    """Spread the rungs evenly over the deck, `group` consecutive ops at a time.

    Any prefix of the deck then holds each rung in nearly its overall
    share, so a run's mix does not depend on where a pass is cut.
    """
    units = []
    for rung, ops in enumerate(per_rung):
        chunks = [ops[i:i + group] for i in range(0, len(ops), group)]
        units += [((i + 0.5) / len(chunks), rung, chunk) for i, chunk in enumerate(chunks)]
    return [op for _, _, chunk in sorted(units, key=lambda u: u[:2]) for op in chunk]


# -- ifs-semigroup -------------------------------------------------------------

# (states, labels, lowest and highest number of distinct word tables);
# the band on the semigroup size keeps the cost per system in check, since
# the library's layer loops scale with the number of distinct tables
SEMIGROUP_LADDER = ((5, 3, 150, 250), (6, 2, 300, 450), (7, 2, 600, 900))


def random_semigroup_system(rng: random.Random, n: int, k: int, lo: int, hi: int):
    for _ in range(1_000_000):
        tables = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)]
        if all(len(set(t)) == n for t in tables) or not strongly_connected(tables):
            continue
        if lo <= semigroup_size(tables, hi) <= hi:
            return tables
    raise RuntimeError(f"no system with n={n} k={k} and {lo}..{hi} tables")


def relabel(rng: random.Random, tables):
    """The same system under a seeded renaming of its states and labels."""
    n = len(tables[0])
    name = list(range(n))
    rng.shuffle(name)
    renamed = [tuple(name[t[x]] for x in sorted(range(n), key=name.__getitem__)) for t in tables]
    rng.shuffle(renamed)
    return renamed


def _partition_problem(blocks_text: str, n: int, count: int) -> str | None:
    blocks = [b.strip("{}").split() for b in blocks_text.split("} {")]
    states = sorted(int(x) for b in blocks for x in b)
    if len(blocks) != count or states != list(range(n)) or not all(blocks):
        return f"not a partition of 0..{n - 1} into {count} blocks: {blocks_text}"
    return None


def check_semigroup(op: str, path: str, n: int, labels: str, d: int):
    """Oracle for a non-bijective minimal system with graph period d.

    Checks the header, that minimality is reported, that every printed
    cover is a partition into as many blocks as its index, that the tower
    primes multiply to a divisor of d, that the equivariance and base
    checks pass, that verify's verdict is PASS and that the exit code is 0.
    """
    head = [f"# ifs {op}", f"# input: {path}", f"# states: {n}", f"# labels: {labels}"]
    if op == "analyze":
        head += [f"# bound: {n}", f"# horizon: {n * n}", "minimal: yes"]

    def check(out: str, rc: int) -> list:
        problems = []
        lines = out.splitlines()

        def bad(message):
            problems.append(("unexpected", message))

        if rc != 0:
            bad(f"exit code {rc}")
        if lines[:len(head)] != head:
            bad("header " + _first_mismatch("\n".join(lines[:len(head)]), "\n".join(head)))
        tower = next((l for l in lines if l.startswith("tower: ")), None)
        if tower is None:
            bad("no tower line")
        else:
            primes = tower[len("tower: "):].split(" (sizes")[0]
            product = 1 if primes == "(trivial)" else math.prod(map(int, primes.split()))
            if d % product:
                bad(f"tower product {product} does not divide the period {d}")
        for line in lines:
            if line.startswith("cover[") and ": none (" not in line:
                index, _, blocks = line.partition("]: ")
                problem = _partition_problem(blocks, n, int(index[len("cover["):]))
                if problem:
                    bad(problem)
            if line.startswith("equivariance ") and not line.endswith(": PASS"):
                bad(line)
            if line.startswith("base check: FAIL"):
                bad(line)
        if op == "verify":
            verdict = lines[-1] if lines else ""
            if verdict != "verdict: PASS":
                bad(f"last line {verdict!r}")
        return problems
    return check


@dataclass(frozen=True)
class SemigroupWorkload:
    """`ifs analyze` and `ifs verify` on random minimal non-bijective systems."""

    ladder: tuple[tuple[int, int, int, int], ...] = SEMIGROUP_LADDER
    per_rung: int = 6

    def build(self, seed: int, workdir: Path) -> list[Op]:
        """A fixed family of systems, each renamed by the seed.

        Drawing fresh systems for every seed changed the work of a pass
        by half from seed to seed, as a system's cost follows its word
        tables; a renaming keeps the work and changes every input file.
        """
        family = random.Random("ifs-semigroup:family")
        rng = random.Random(f"ifs-semigroup:{seed}")
        per_rung = []
        for rung, (n, k, lo, hi) in enumerate(self.ladder):
            ops = []
            for i in range(self.per_rung):
                tables = relabel(rng, random_semigroup_system(family, n, k, lo, hi))
                path = workdir / f"semi-n{n}-{i}.ifs"
                write_ifs(path, tables)
                labels = " ".join(chr(ord("a") + j) for j in range(k))
                for op in ("analyze", "verify"):
                    check = check_semigroup(op, str(path), n, labels, graph_period(tables))
                    ops.append(Op(("ifs", op, str(path)), rung, check))
            per_rung.append(ops)
        return _interleave(per_rung, group=2)


# -- tent-certify --------------------------------------------------------------

# renormalization thresholds 2^(1/2), 2^(1/4), 2^(1/8); floats only place
# the slopes, every verdict is decided in integers
CLUSTERS = (2 ** 0.5, 2 ** 0.25, 2 ** 0.125)
RADICANDS = (2, 3, 5)
PRIMES = (2, 2, 2)


@dataclass(frozen=True)
class Slope:
    """p/s (q == 0) or (p + q*sqrt(r))/s, in lowest terms as printed."""

    p: int
    q: int
    r: int
    s: int

    @classmethod
    def make(cls, p: int, q: int, r: int, s: int) -> "Slope":
        g = math.gcd(p, q, s)
        return cls(p // g, q // g, r if q else 0, s // g)

    def text(self) -> str:
        if self.q == 0:
            return str(self.p) if self.s == 1 else f"{self.p}/{self.s}"
        sign = "+" if self.q >= 0 else "-"
        return f"({self.p}{sign}{abs(self.q)}*sqrt({self.r}))/{self.s}"

    def power_minus_two_sign(self, e: int) -> int:
        """Exact sign of a^e - 2, by repeated squaring in Z[sqrt(r)]."""
        if self.q == 0:
            return _sign(self.p ** e - 2 * self.s ** e)
        x, y, k = self.p, self.q, 1
        while k < e:
            x, y, k = x * x + y * y * self.r, 2 * x * y, 2 * k
        return _surd_sign(x - 2 * self.s ** e, y, self.r)

    def in_range(self) -> bool:
        """1 < a <= 2."""
        return (_surd_sign(self.p - self.s, self.q, self.r) > 0
                and _surd_sign(2 * self.s - self.p, -self.q, self.r) >= 0)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _surd_sign(x: int, y: int, r: int) -> int:
    """Sign of x + y*sqrt(r) for a non-square r, decided by squaring."""
    if y == 0:
        return _sign(x)
    if x >= 0 and y > 0:
        return 1
    if x <= 0 and y < 0:
        return -1
    diff = x * x - y * y * r  # nonzero: sqrt(r) is irrational
    return _sign(diff) if x > 0 else -_sign(diff)


def _near(rng: random.Random) -> float:
    target = rng.choice(CLUSTERS)
    return target * (1 + rng.choice((-1, 1)) * rng.uniform(0.002, 0.03))


def rational_slope(rng: random.Random) -> Slope:
    while True:
        s = int(10 ** rng.uniform(1, 4))
        slope = Slope.make(round(s * _near(rng)), 0, 0, s)
        if slope.in_range():
            return slope


def surd_slope(rng: random.Random) -> Slope:
    while True:
        r, s = rng.choice(RADICANDS), rng.randint(2, 9)
        q = rng.choice((-1, 1)) * rng.randint(1, 3)
        slope = Slope.make(round(s * _near(rng) - q * math.sqrt(r)), q, r, s)
        if slope.in_range():
            return slope


def check_tent(slope: Slope, transient: int, window: int):
    """Oracle: `certified` at size 2^k needs a^(2^k) <= 2, `absent` needs > 2.

    At equality either verdict is accepted. An `absent` below the
    threshold from an op with a positive transient is the known defect.
    """
    sizes = [math.prod(PRIMES[:i]) for i in range(1, len(PRIMES) + 1)]
    head = ["# tent tower", f"# a = {slope.text()}",
            f"# transient = {transient}, window = {window}, margin = 0",
            "# primes = " + ",".join(map(str, PRIMES))]
    signs = [slope.power_minus_two_sign(size) for size in sizes]

    def check(out: str, rc: int) -> list:
        problems = []
        lines = out.splitlines()
        if rc != 0:
            problems.append(("unexpected", f"exit code {rc}"))
        if lines[:4] != head:
            problems.append(("unexpected", "header " + _first_mismatch("\n".join(lines[:4]), "\n".join(head))))
        statuses = []
        for size, sign, line in zip(sizes, signs, lines[4:]):
            prefix = f"level size {size}: "
            status = line[len(prefix):] if line.startswith(prefix) else None
            statuses.append(status)
            if status not in ("certified", "absent", "degenerate", "inconclusive"):
                problems.append(("unexpected", f"bad level line {line!r}"))
            elif status == "certified" and sign > 0:
                problems.append(("unexpected", f"size {size} certified but a^{size} > 2"))
            elif status == "absent" and sign < 0:
                kind = KNOWN_DEFECT if transient > 0 else "unexpected"
                problems.append((kind, f"size {size} absent but a^{size} < 2"))
        deepest = 0
        while deepest < len(statuses) and statuses[deepest] == "certified":
            deepest += 1
        tail = lines[4 + len(sizes):]
        if not tail or tail[0] != f"deepest certified: {deepest}":
            problems.append(("unexpected", f"deepest certified line {tail[:1]!r}, want {deepest}"))
        if len(tail) != 2 or not tail[1].startswith("note: "):
            problems.append(("unexpected", "missing disclaimer note"))
        return problems
    return check


WINDOWS = (64, 128, 256)
TRANSIENTS = (1, 2, 4, 8, 16, 32, 64)
# ops per pass for each (window, slope kind). Surds are a quarter of the
# ops. The shares put the median inside the rational ops at window 128
# and the tail percentile inside the surd ops at window 256, away from
# the edges between groups, where a quantile would jump with the seed.
TENT_MIX = {(64, "rational"): 30, (128, "rational"): 50, (256, "rational"): 10,
            (64, "surd"): 6, (128, "surd"): 6, (256, "surd"): 18}


@dataclass(frozen=True)
class TentWorkload:
    """`tent cycle --primes 2,2,2` on slopes clustered at the thresholds.

    Each rung is one window size. In every (window, kind) group a fifth
    of the ops use a positive transient, the rest use none. The seed draws
    the rational slopes and the order of the ops. The surd ops are a fixed
    panel, the same for every seed: a surd op costs from 20 to 200 ms
    depending on its slope, and a fresh draw per seed moved the work of a
    pass by a sixth, while rational ops of one window cost nearly alike.
    """

    scale: int = 1

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"tent-certify:{seed}")
        panel = random.Random("tent-certify:surds")
        per_rung = [[] for _ in WINDOWS]
        for (window, kind), count in TENT_MIX.items():
            draw = panel if kind == "surd" else rng
            count = max(1, count // self.scale)
            transients = [draw.choice(TRANSIENTS) for _ in range(round(count / 5))]
            transients += [0] * (count - len(transients))
            draw.shuffle(transients)
            for transient in transients:
                slope = surd_slope(draw) if kind == "surd" else rational_slope(draw)
                per_rung[WINDOWS.index(window)].append((slope, transient))
        for ops in per_rung:
            rng.shuffle(ops)
        deck = _interleave([[_tent_op(slope, transient, rung) for slope, transient in ops]
                            for rung, ops in enumerate(per_rung)], group=1)
        # sqrt(2), the equality case at size 2, opens every deck, so the
        # warm-up op of set-up costs the same for every seed
        deck[0] = _tent_op(Slope(0, 1, 2, 1), 0, deck[0].rung)
        return deck


def _tent_op(slope: Slope, transient: int, rung: int) -> Op:
    window = WINDOWS[rung]
    argv = ("tent", "cycle", "--a", slope.text(), "--primes", ",".join(map(str, PRIMES)),
            "--window", str(window), "--transient", str(transient))
    return Op(argv, rung, check_tent(slope, transient, window))


WORKLOADS = {
    "ifs-rotation": RotationWorkload,
    "ifs-semigroup": SemigroupWorkload,
    "tent-certify": TentWorkload,
}
