"""Random test data drawn with a seeded `random.Random`."""

from fractions import Fraction


def random_combination(rng, basis):
    """Random exact-rational combination of a subspace basis."""
    if not basis:
        raise ValueError("empty basis")
    out = Fraction(0) * basis[0]
    for b in basis:
        out = out + Fraction(rng.randint(-4, 4), rng.randint(1, 4)) * b
    return out
