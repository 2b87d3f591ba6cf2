"""Command line interface.

Three command families: `odometer` for exact mixed-radix arithmetic,
`ifs` for analyzing finite systems from description files, and `tent`
for exact tent-map orbits and renormalization certificates.

`main` reads plain argv without argparse. When argv[:2] names a leaf,
a (command, op) pair such as ("tent", "cycle"), and every later token
is a positional or one of that leaf's option strings, as spelled,
followed by a value that does not start with '-', the leaf builds the
namespace the full tree would from the Actions that add_argument
returned. Everything else goes to the full parser tree: argv that names
no leaf, -h, --opt=value, abbreviations, repeated options, values that
start with '-', and every error. So messages and exit codes stay those
of the tree. Each argument is defined once, on its leaf.

Exit codes: 0 for a completed computation or verified certificate, 1
for rejected input, 2 when a verification finds a counterexample.
Reports contain no timestamps or environment data, so a repeated
invocation is byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import conjugacy, finite_ifs, interval_dynamics, odometer
from .errors import ExactnessError, InputError, NoCanonicalCoverError
from .exactnum import format_exact, parse_exact
from .ifs_io import load_ifs


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt_states(xs) -> str:
    return " ".join(str(x) for x in sorted(xs))


def _fmt_block(block) -> str:
    return "{" + " ".join(str(x) for x in block) + "}"


def _fmt_interval(iv) -> str:
    return f"[{format_exact(iv[0])}, {format_exact(iv[1])}]"


# -- odometer ---------------------------------------------------------------


def _cmd_odometer(args) -> int:
    if args.op in ("add", "dist"):
        base = odometer.BaseSequence.from_text(args.base)
        p = odometer.OdometerPoint.from_text(base, args.p)
        q = odometer.OdometerPoint.from_text(base, args.q)
        if args.op == "add":
            print(odometer.add(p, q).to_text())
        else:
            print(odometer.distance(p, q))
        return 0
    if args.op == "succ":
        base = odometer.BaseSequence.from_text(args.base)
        point = odometer.OdometerPoint.from_text(base, args.point)
        print(odometer.successor(point).to_text())
        return 0
    # conjugate, the last operation argparse accepts
    b1 = odometer.BaseSequence.from_text(args.base1)
    b2 = odometer.BaseSequence.from_text(args.base2)
    m1 = odometer.prime_multiplicity(b1)
    m2 = odometer.prime_multiplicity(b2)
    lines = [
        "# odometer conjugate",
        f"# base1 = {b1}",
        f"# base2 = {b2}",
        f"M1: {m1}",
        f"M2: {m2}",
        f"conjugate: {'yes' if m1 == m2 else 'no'}",
    ]
    print("\n".join(lines))
    return 0


# -- ifs ----------------------------------------------------------------------


def _cmd_ifs(args) -> int:
    """`ifs analyze` and `ifs verify` as one pass.

    In order: the header (analyze adds its bound and horizon), one
    minimality guard, analyze's spectrum and covers, the certificate
    (tower, digits, equivariance), one recurrence and injectivity check
    at the horizon, then verify's counterexample, base check and verdict.
    """
    F = load_ifs(args.file)
    analyze = args.op == "analyze"
    lines = [
        f"# ifs {args.op}",
        f"# input: {args.file}",
        f"# states: {F.n_states}",
        f"# labels: {' '.join(F.labels)}",
    ]
    horizon = F.n_states ** 2
    if analyze:
        bound = args.bound if args.bound is not None else F.n_states
        horizon = args.horizon if args.horizon is not None else horizon
        if bound < 1 or horizon < 1:
            raise InputError("bound and horizon must be >= 1")
        lines.append(f"# bound: {bound}")
        lines.append(f"# horizon: {horizon}")
    if not finite_ifs.is_minimal(F):
        if not analyze:
            raise InputError("verification needs a minimal system")
        lines.append("minimal: no")
        lines.append(f"periodic: {_fmt_states(finite_ifs.periodic_points(F))}")
        _emit("\n".join(lines) + "\n", args.output)
        return 0
    if analyze:
        lines.append("minimal: yes")
        spectrum = finite_ifs.spectrum(F, bound)
        lines.append(f"spectrum: {' '.join(map(str, spectrum.members))}")
        for n in spectrum.members:
            try:
                cover = finite_ifs.canonical_cover(F, n)
                blocks = " ".join(_fmt_block(b) for b in cover.sets)
                lines.append(f"cover[{n}]: {blocks}")
            except NoCanonicalCoverError as exc:
                lines.append(f"cover[{n}]: none ({exc.reason})")
    tower = conjugacy.max_tower(F)
    fm = conjugacy.build_factor_map(F, tower)
    report = conjugacy.verify_equivariance(F, fm)
    sizes = " ".join(str(tower.size(i)) for i in range(1, tower.depth + 1))
    lines.append(f"tower: {' '.join(map(str, tower.primes)) or '(trivial)'}"
                 + (f" (sizes {sizes})" if tower.depth else ""))
    for i in range(1, tower.depth + 1):
        blocks = " ".join(_fmt_block(b) for b in tower.levels[i - 1])
        lines.append(f"level {i}: {blocks}")
    lines.append("digits:")
    for x in F.states:
        vector = ",".join(map(str, fm.digits[x])) if fm.depth else "-"
        lines.append(f"{x} -> {vector}")
    for label, ok in report.per_label:
        lines.append(f"equivariance {label}: {'PASS' if ok else 'FAIL'}")
    rr = finite_ifs.regularly_recurrent_points(F, horizon)
    injective = conjugacy.injectivity_on_regularly_recurrent(F, fm, rr)
    failed = not report.passed
    if analyze:
        lines.append(f"recurrent: {_fmt_states(rr) if rr else '(none)'}")
        lines.append(f"injective on recurrent: {'yes' if injective else 'no'}")
    else:
        if report.witness is not None:
            label, x = report.witness
            lines.append(f"counterexample: label {label} at state {x}")
        lines.append(
            f"injective on recurrent: {'yes' if injective else 'no'}"
            f" ({len(rr)} state{'s' if len(rr) != 1 else ''})"
        )
        failed = failed or not injective
        alpha = conjugacy.tower_to_alpha(tower)
        if alpha.mismatch is None:
            profile = " ".join(f"{p}^{k}" for p, k in alpha.multiplicities) or "(empty)"
            lines.append(f"base check: PASS ({profile})")
        else:
            lines.append(f"base check: FAIL ({alpha.mismatch})")
            failed = True
        lines.append(f"verdict: {'FAIL' if failed else 'PASS'}")
    _emit("\n".join(lines) + "\n", args.output)
    return 2 if failed else 0


# -- tent ---------------------------------------------------------------------

# a sweep certifies at most this many steps past --from, so at most one
# more slope than this; the bound is one exact comparison, made before
# the first slope
SWEEP_MAX_STEPS = 10_000


def _cmd_tent(args) -> int:
    if args.op == "orbit":
        a = interval_dynamics.TentParam.from_text(args.a)
        orbit = interval_dynamics.critical_orbit(a, budget=args.budget)
        lines = [
            "# tent orbit",
            f"# a = {format_exact(a.a)}",
            f"# budget = {args.budget}",
        ]
        for k, point in enumerate(orbit.points):
            lines.append(f"k={k}: {format_exact(point)}")
        lines.append(f"status: {orbit.status}")
        if orbit.status == "exact-cycle-found":
            lines.append(f"cycle: start {orbit.cycle_start} period {orbit.period}")
        print("\n".join(lines))
        return 0
    if args.op == "kneading":
        a = interval_dynamics.TentParam.from_text(args.a)
        symbols = interval_dynamics.kneading_sequence(a, args.length)
        lines = [
            "# tent kneading",
            f"# a = {format_exact(a.a)}",
            f"# length = {args.length}",
            symbols,
        ]
        print("\n".join(lines))
        return 0
    if args.op == "cycle":
        a = parse_exact(args.a)
        _check_transient(args.transient)
        a = interval_dynamics.TentParam(a)  # validated once, after the transient
        header = [
            f"# a = {format_exact(a.a)}",
            f"# transient = {args.transient}, window = {args.window}, margin = {args.margin}",
        ]
        primes = _parse_primes(args.primes) if args.primes is not None else None
        if primes is None and args.n is None:
            raise InputError("tent cycle needs --n or --primes")
        sizes, levels, deepest = _certify(a, primes, args.n, args.window, parse_exact(args.margin))
        lines = [f"# tent {'cycle' if primes is None else 'tower'}"] + header
        if primes is not None:
            lines.append(f"# primes = {','.join(map(str, primes))}")
            for size, det in zip(sizes, levels):
                lines.append(f"level size {size}: {det.status}")
            lines.append(f"deepest certified: {deepest}")
            lines.append(f"note: {interval_dynamics.DISCLAIMER}")
        else:
            det, = levels
            lines.append(f"# n = {args.n}")
            lines.append(f"status: {det.status}")
            if det.status == "certified":
                for j, iv in enumerate(det.intervals):
                    lines.append(f"I[{j}] = {_fmt_interval(iv)}")
            elif det.overlap is not None:
                j1, j2 = det.overlap
                lines.append(f"overlap: class {j1} and class {j2}")
            elif det.escape is not None:
                j, img, target = det.escape
                lines.append(
                    f"escape: T(I[{j}]) = {_fmt_interval(img)} not inside "
                    f"I[{(j + 1) % args.n}] = {_fmt_interval(target)}"
                )
        print("\n".join(lines))
        return 0
    # sweep, the last operation argparse accepts
    start = parse_exact(args.start)
    stop = parse_exact(args.stop)
    step = parse_exact(args.step)
    if step <= 0:
        raise InputError("step must be positive")
    if start + SWEEP_MAX_STEPS * step < stop:
        raise InputError(f"tent sweep spans more than {SWEEP_MAX_STEPS} steps; "
                         "use a larger --step or a shorter range")
    if args.primes is None and args.n is None:
        raise InputError("tent sweep needs --n or --primes")
    _check_transient(args.transient)
    rows = ["a,level_certified,cycle_lengths,status"]
    margin = parse_exact(args.margin)
    primes = _parse_primes(args.primes) if args.primes is not None else None
    a = start
    while a <= stop:
        sizes, levels, deepest = _certify(a, primes, args.n, args.window, margin)
        certified = [str(size) for size, lv in zip(sizes, levels) if lv.status == "certified"]
        status = "certified" if deepest == len(sizes) else levels[deepest].status
        rows.append(f"{format_exact(a)},{deepest},{';'.join(certified)},{status}")
        a = a + step
    _emit("\n".join(rows) + "\n", args.output)
    return 0


def _certify(a, primes, n, window, margin):
    """(sizes, levels, deepest certified) of the tower certificate for
    primes, or, when primes is None, of one level of size n."""
    if primes is not None:
        cert = interval_dynamics.tower_certificate(a, primes, window=window, margin=margin)
        return cert.sizes, cert.levels, cert.deepest_certified
    det = interval_dynamics.detect_interval_cycle(a, n, window=window, margin=margin)
    return (n,), (det,), int(det.status == "certified")


def _check_transient(transient: int) -> None:
    """--transient is accepted and echoed for old command lines, and has
    no effect: the certificate reads the critical orbit from 1/2 (see
    interval_dynamics)."""
    if transient < 0:
        raise InputError(f"transient must be >= 0, got {transient}")


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t.strip()) for t in text.split(","))
    except ValueError:
        raise InputError(f"malformed prime list {text!r}") from None


# -- wiring -------------------------------------------------------------------


class _Leaf:
    """One (command, op) parser, with the Actions its add_argument calls
    returned. `read` takes plain argv off these Actions alone; every
    argument here stores exactly one value, the only kind it knows."""

    def __init__(self, parser: argparse.ArgumentParser, *parents: _Leaf):
        self.parser = parser
        self.actions = []
        self.options = {}  # option string -> Action
        self.groups = []  # lists of Actions that exclude each other
        for parent in parents:
            for action in parent.actions:
                self._record(action)
            self.groups += parent.groups

    def _record(self, action: argparse.Action) -> argparse.Action:
        self.actions.append(action)
        self.options.update(dict.fromkeys(action.option_strings, action))
        return action

    def add_argument(self, *args, **kwargs) -> argparse.Action:
        return self._record(self.parser.add_argument(*args, **kwargs))

    def exclusive_group(self):
        """An add_argument for a new mutually exclusive group."""
        group, members = self.parser.add_mutually_exclusive_group(), []
        self.groups.append(members)

        def add_argument(*args, **kwargs) -> argparse.Action:
            members.append(self._record(group.add_argument(*args, **kwargs)))
            return members[-1]
        return add_argument

    def read(self, argv: list[str]) -> argparse.Namespace | None:
        """The namespace of argv, whose argv[:2] names this leaf, or None
        when argv is not plain.

        Plain means: every later token is a positional, or one of this
        leaf's option strings as spelled followed by its value; no
        positional or value starts with '-'; no option is given twice,
        nor two of one exclusive group; every required argument is
        given; and every type conversion succeeds. The namespace is then
        the one the full tree's parse_args returns: dest, default and
        type come from the Actions, and a string value, a default
        included, goes through type, as argparse does.
        """
        given = {}
        positionals = (action for action in self.actions if not action.option_strings)
        tokens = iter(argv[2:])
        for token in tokens:
            if token[:1] == "-":
                action, token = self.options.get(token), next(tokens, "-")
            else:
                action = next(positionals, None)
            if action is None or action in given or token[:1] == "-":
                return None
            given[action] = token
        if any(sum(action in given for action in group) > 1 for group in self.groups):
            return None
        args = argparse.Namespace(command=argv[0], op=argv[1])
        for action in self.actions:
            if action in given:
                value = given[action]
            elif action.required:
                return None
            else:
                value = action.default
            if isinstance(value, str) and action.type is not None:
                try:
                    value = action.type(value)
                except (TypeError, ValueError, argparse.ArgumentTypeError):
                    return None
            setattr(args, action.dest, value)
        return args


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[tuple[str, str], _Leaf]]:
    """The full parser tree, and its leaves by (command, op).

    Built once per process: parse_args never mutates a parser.
    """
    parser = argparse.ArgumentParser(
        prog="addingmachine",
        description="exact adding machines, finite systems, tent maps",
    )
    top = parser.add_subparsers(dest="command", required=True)
    leaves = {}

    def command(name: str, summary: str):
        """Add a command, and return a function that adds its op parsers
        and records each in leaves."""
        ops = top.add_parser(name, help=summary).add_subparsers(dest="op", required=True)

        def leaf(op: str, *parents: _Leaf, **kwargs) -> _Leaf:
            parser = ops.add_parser(op, parents=[p.parser for p in parents], **kwargs)
            leaves[name, op] = _Leaf(parser, *parents)
            return leaves[name, op]
        return leaf

    odo = command("odometer", "mixed-radix arithmetic")
    p_add = odo("add", help="add two points digit-wise with carry")
    p_add.add_argument("--base", required=True, help="base as 'prefix;tail', e.g. '4,3;5'")
    p_add.add_argument("--p", required=True, help="point, least significant digit first")
    p_add.add_argument("--q", required=True)
    p_succ = odo("succ", help="add one")
    p_succ.add_argument("--base", required=True)
    p_succ.add_argument("--point", required=True)
    p_dist = odo("dist", help="exact distance between points")
    p_dist.add_argument("--base", required=True)
    p_dist.add_argument("--p", required=True)
    p_dist.add_argument("--q", required=True)
    p_conj = odo("conjugate", help="compare prime profiles of two bases")
    p_conj.add_argument("--base1", required=True)
    p_conj.add_argument("--base2", required=True)

    ifs = command("ifs", "finite iterated function systems")
    p_an = ifs("analyze", help="minimality, spectrum, covers, tower")
    p_an.add_argument("file", help="system description file")
    p_an.add_argument("--bound", type=int, default=None, help="spectrum bound (default: state count)")
    p_an.add_argument("--horizon", type=int, default=None, help="recurrence horizon (default: state count squared)")
    p_an.add_argument("--output", default=None, help="write the report here instead of stdout")
    p_vf = ifs("verify", help="build and check the full certificate")
    p_vf.add_argument("file")
    p_vf.add_argument("--output", default=None)

    tent = command("tent", "exact tent-map dynamics")
    p_orb = tent("orbit", help="critical orbit with exact cycle detection")
    p_orb.add_argument("--a", required=True, help="slope: rational or (p+q*sqrt(r))/s")
    p_orb.add_argument("--budget", type=int, default=64)
    p_kn = tent("kneading", help="symbol sequence of the critical orbit")
    p_kn.add_argument("--a", required=True)
    p_kn.add_argument("--length", type=int, required=True)
    # the certificate options cycle and sweep share; --n and --primes
    # each pick the levels, so they exclude each other
    cert = _Leaf(argparse.ArgumentParser(add_help=False))
    levels = cert.exclusive_group()
    levels("--n", type=int, default=None, help="cycle length to certify")
    levels("--primes", default=None, help="comma-separated level factors, e.g. 2,2")
    cert.add_argument("--transient", type=int, default=0, help="accepted, no effect")
    cert.add_argument("--window", type=int, default=64, help="critical-orbit points to read at most")
    cert.add_argument("--margin", default="0",
                      help="exact widening of each hull, for the certification only")
    p_cy = tent("cycle", cert, help="interval cycle certificate")
    p_cy.add_argument("--a", required=True)
    p_sw = tent("sweep", cert, help="CSV of certificates over a slope range")
    p_sw.add_argument("--from", dest="start", required=True)
    p_sw.add_argument("--to", dest="stop", required=True)
    p_sw.add_argument("--step", required=True)
    p_sw.add_argument("--output", default=None)
    return parser, leaves


def main(argv=None) -> int:
    """Run the command argv names and return its exit code.

    Plain argv (see _Leaf.read) never reaches argparse; the full parser
    tree parses the rest, with its usual messages and exit codes.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, leaves = _build_parser()
    leaf = leaves.get(tuple(argv[:2]))
    args = leaf.read(argv) if leaf else None
    if args is None:
        # not plain argv, or no leaf named: the full tree parses, and
        # reports any error as it always has
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits with 2 on usage errors; that code is reserved
            # here for mathematical counterexamples, so remap to plain 1
            return 0 if exc.code in (0, None) else 1
    command = {"odometer": _cmd_odometer, "ifs": _cmd_ifs, "tent": _cmd_tent}[args.command]
    try:
        return command(args)
    except (InputError, ExactnessError, OSError) as exc:
        # ExactnessError here means the arguments mixed radicands; OSError
        # means an input file or --output path could not be opened
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
