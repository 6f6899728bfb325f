import pytest

from fractions import Fraction

from hopfcross.hopf import GroupSpec, LieSpec, build_group_algebra, \
    build_truncated_enveloping, build_truncated_poly_hopf
from hopfcross.actions import (AlgebraData, action_module_algebra,
                               build_poly_action, graded_module_algebra)


@pytest.fixture(scope="session")
def z2():
    return build_group_algebra(GroupSpec.cyclic(2))


@pytest.fixture(scope="session")
def z3():
    return build_group_algebra(GroupSpec.cyclic(3))


@pytest.fixture(scope="session")
def s3():
    return build_group_algebra(GroupSpec.symmetric(3))


@pytest.fixture(scope="session")
def poly26():
    return build_truncated_poly_hopf(2, 6)


@pytest.fixture(scope="session")
def poly24():
    return build_truncated_poly_hopf(2, 4)


@pytest.fixture(scope="session")
def heis5():
    return build_truncated_enveloping(LieSpec.heisenberg(), 5)


@pytest.fixture(scope="session")
def dual_numbers():
    """k[t]/(t^2) on the basis {1, t}."""
    return AlgebraData.from_table(
        "kt", ["1", "t"],
        {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1},
         ("t", "1"): {"t": 1}, ("t", "t"): {}},
        "1")


@pytest.fixture(scope="session")
def sign_action(z2, dual_numbers):
    """k[Z/2] acting on k[t]/(t^2) by g.t = -t, flip transposition."""
    table = {("e", "1"): {"1": 1}, ("e", "t"): {"t": 1},
             ("g1", "1"): {"1": 1}, ("g1", "t"): {"t": -1}}
    mad = action_module_algebra(z2, dual_numbers, table, name="Z2 sign")
    return mad


@pytest.fixture(scope="session")
def z3_graded(dual_numbers):
    """Z/3 with the inversion-graded transposition on k[t]/(t^2)."""
    g3 = GroupSpec.cyclic(3)
    autos = {"id": {e: e for e in g3.elements},
             "inv": {e: g3.inverse(e) for e in g3.elements}}
    return graded_module_algebra(g3, dual_numbers, {"1": "id", "t": "inv"},
                                 autos, name="Z3 inversion graded")


@pytest.fixture(scope="session")
def case2_beta_y():
    """Q = ide, beta1(Y) = Y, beta2 = 0 at budget 5."""
    return build_poly_action([[1, 0], [0, 1]], [0, 1], [0], 5)


@pytest.fixture(scope="session")
def case1b():
    """Q = diag(2, 1/2), beta linear, at budget 5."""
    return build_poly_action([[2, 0], [0, Fraction(1, 2)]], [0, 3], [0, 5], 5)


def scalar(algebra, c=1):
    return Fraction(c) * algebra.unit
