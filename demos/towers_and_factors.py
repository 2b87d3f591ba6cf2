"""From a finite system to a counter: towers, digits, equivariance.

Stacking cyclically permuted partitions turns a finite minimal system
into a mixed-radix counter: each state receives the digit vector of its
block, and every map of the system acts as "add one". This demo builds
the tower for a twelve-state rotation and checks the translation.

Run as: python3 demos/towers_and_factors.py
"""

from addingmachine import (
    PrimeMultiplicity,
    build_factor_map,
    max_tower,
    rotation_system,
    tower_to_alpha,
    verify_equivariance,
)


def main():
    F = rotation_system(12, [1])
    tower = max_tower(F)
    print(f"tower factors for the 12-cycle: {tower.primes}")
    for i in range(1, tower.depth + 1):
        blocks = " ".join(
            "{" + " ".join(map(str, b)) + "}" for b in tower.levels[i - 1]
        )
        print(f"  level {i} ({tower.size(i)} blocks): {blocks}")

    fm = build_factor_map(F, tower)
    print("\nstate -> digit vector (least significant first):")
    for x in F.states:
        print(f"  {x:2d} -> {','.join(map(str, fm.digits[x]))}")

    report = verify_equivariance(F, fm)
    print(f"\nevery map acts as +1 on the digits: {report.passed}"
          f" ({report.checks} checks)")

    x = 7
    p = fm.point(x)
    print(f"state {x} becomes the point {p.to_text()} of the counter.")
    print(f"Its image under the rotation is {fm.point(F.table('a')[x]).to_text()},")
    print(f"which is also successor({p.to_text()}) = {p.successor().to_text()}")

    alpha = tower_to_alpha(tower)
    print(f"\nthe tower realizes the counter base '{alpha.base().to_text()}'"
          f" with prime profile {PrimeMultiplicity(alpha.multiplicities)}")


if __name__ == "__main__":
    main()
