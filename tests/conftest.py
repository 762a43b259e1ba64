import pytest

from gsl import core


@pytest.fixture(scope="session")
def gb():
    return core.boolean_gamma()


@pytest.fixture(scope="session")
def z2():
    return core.zn_gamma(2)


@pytest.fixture(scope="session")
def z3():
    return core.zn_gamma(3)


@pytest.fixture(scope="session")
def z4():
    return core.zn_gamma(4)


@pytest.fixture(scope="session")
def bool_sr():
    return core.boolean_semiring()


@pytest.fixture(scope="session")
def z4_sr():
    return core.zn_semiring(4)


def replaced(x, **changes):
    """x with some constructor arguments changed, a table by its view name
    ("prod", "mul", ...); the rest are x's name, ids and `tables`."""
    if isinstance(x, core.GammaSemiring):
        args = {"name": x.name, "S": x.S, "G": x.G, **dict(zip(("addS", "addG", "prod"), x.tables))}
    else:
        args = {"name": x.name, "carrier": x.carrier, **dict(zip(("add", "mul"), x.tables))}
    return type(x)(**{**args, **changes})


def build_zero_product():
    """S = G = boolean monoid, product constantly zero: valid, but the only
    operator action is the zero map, so there is no unity."""
    add = ((0, 1), (1, 1))
    prod = tuple(tuple(tuple(0 for _ in range(2)) for _ in range(2)) for _ in range(2))
    g = core.GammaSemiring("zero_product", ("0", "1"), ("0", "1"), add, add, prod)
    assert core.validate_gamma_semiring(g).ok
    return g


@pytest.fixture(scope="session")
def zero_product():
    return build_zero_product()


def build_one_element():
    """S = G = {0}: every quantifier over nonzero elements is vacuous."""
    return core.GammaSemiring("one_element", ("0",), ("0",), ((0,),), ((0,),), (((0,),),))


def build_boolean_by_chain(k: int):
    """S the Boolean monoid {0, 1} under or, G the chain 0 < ... < k-1 under
    max, a@g@b = a and b and (g != 0): a valid instance with |S| != |G|."""
    g = core.GammaSemiring(
        f"boolean_by_chain{k}",
        ("0", "1"),
        tuple(str(c) for c in range(k)),
        tuple(tuple(a | b for b in range(2)) for a in range(2)),
        tuple(tuple(max(c, d) for d in range(k)) for c in range(k)),
        tuple(tuple(tuple(a & b & (c != 0) for b in range(2)) for c in range(k)) for a in range(2)),
    )
    assert core.validate_gamma_semiring(g).ok
    return g


@pytest.fixture(scope="session")
def all_small_instances(gb, z2, z3, z4, zero_product, bool_sr):
    """Every stock instance with carriers of size at most 4."""
    return [gb, z2, z3, z4, zero_product, core.gamma_from_semiring(bool_sr)]


def build_upper_triangular():
    """Gamma-semiring from the 2x2 upper-triangular Boolean matrices
    [[a, b], [0, c]] (index a<<2 | b<<1 | c) under entrywise or and the
    matrix product: non-commutative, so its left, right and two-sided
    ideals all differ, and not every additive submonoid is an ideal."""

    def mul(i, j):
        a, b, c = i >> 2, i >> 1 & 1, i & 1
        d, e, f = j >> 2, j >> 1 & 1, j & 1
        return (a & d) << 2 | ((a & e) | (b & f)) << 1 | (c & f)

    add = tuple(tuple(i | j for j in range(8)) for i in range(8))
    mul_table = tuple(tuple(mul(i, j) for j in range(8)) for i in range(8))
    r = core.Semiring("upper_triangular", tuple(str(i) for i in range(8)), add, mul_table)
    return core.gamma_from_semiring(r)


@pytest.fixture(scope="session")
def upper_triangular():
    return build_upper_triangular()


@pytest.fixture(scope="session")
def enum_instances(all_small_instances, upper_triangular):
    """The small instances plus one non-commutative one, for the enumerators."""
    return [*all_small_instances, upper_triangular]
