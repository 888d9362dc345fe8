"""Test-only oracle for the pentagon: the five-cycle f1 f2 f3 f4 f5 - 1 of
the factors f_i = phi(x_i, y_i), multiplied out with four braid products,
as `associator.pentagon_residual` computed it before it came to use the
antipode."""

from fractions import Fraction

from mzv.braid import BraidElement, evaluate_series

# (i, j, k, l) gives the factor f = phi(X_ij, X_kl), in the five-cycle's order
PENTAGON_PAIRS = ((1, 2, 2, 3), (3, 4, 4, 5), (5, 1, 1, 2), (2, 3, 3, 4), (4, 5, 5, 1))


def braid_one(degree_cap: int, unit=Fraction(1)) -> BraidElement:
    return BraidElement(degree_cap, {(): unit})


def pentagon_factor(phi, pair) -> BraidElement:
    """phi evaluated at the two generators that `pair` names."""
    n, unit = phi.truncation, phi.ring.one
    i, j, k, l = pair
    return evaluate_series(phi, BraidElement.generator(i, j, n, unit=unit),
                           BraidElement.generator(k, l, n, unit=unit), n)


def five_cycle_residual(phi) -> BraidElement:
    """f1 f2 f3 f4 f5 - 1, multiplied left to right."""
    n, unit = phi.truncation, phi.ring.one
    acc = braid_one(n, unit)
    for pair in PENTAGON_PAIRS:
        acc = acc * pentagon_factor(phi, pair)
    return acc - braid_one(n, unit)
