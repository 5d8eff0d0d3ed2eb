import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spincert
from spincert.fields import GF, QQ, FieldError, PrimeField, RandomSource, is_prime


def test_prime_validation():
    for bad in (4, 9, 1, 0, -7, 1000001):  # 1000001 = 101 * 9901
        with pytest.raises(FieldError):
            PrimeField(bad)
    # int64 elimination is exact only below 2**31
    with pytest.raises(FieldError):
        PrimeField(4294967311)
    assert PrimeField(2147483647).p == 2**31 - 1
    for small in (2, 3):
        with pytest.raises(FieldError):
            PrimeField(small)
    assert GF(5).p == 5
    assert GF(1000003).p == 1000003


def test_is_prime():
    assert is_prime(999983) and is_prime(1000003)
    assert not is_prime(999981) and not is_prime(1)


def test_gf_cached_and_hashable():
    assert GF(7) is GF(7)
    assert GF(7) == PrimeField(7)
    assert len({GF(7), GF(7), GF(11)}) == 2


def test_gf_rejects_invalid_p_on_every_call():
    # the cache holds fields, never a failure
    for bad in (9, 9, 3, 2**31 + 11):
        with pytest.raises(FieldError):
            GF(bad)


def test_scalar_coercion():
    f = GF(7)
    assert f.scalar(-1) == 6
    assert f.scalar(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert QQ.scalar(3) == Fraction(3)


def test_fields_share_one_interface():
    # one code path over both fields: a method added to only one of them fails here
    def public(field):
        return {name for name in dir(field) if not name.startswith("_")}

    assert public(GF(7)) - {"p"} == public(QQ)


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(14)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_exactness_spot():
    f = GF(999983)
    a = f.scalar(Fraction(355, 113))
    assert f.reduce(a * f.scalar(113)) == f.scalar(355)


def test_random_source_reproducible():
    f = GF(1000003)
    a = RandomSource(42).scalars(f, 20)
    b = RandomSource(42).scalars(f, 20)
    assert np.array_equal(a, b)
    assert not np.array_equal(RandomSource(43).scalars(f, 20), a)
    assert all(0 <= x < f.p for x in a)


def test_random_source_rational_range():
    vals = RandomSource(0).scalars(QQ, 200)
    assert all(Fraction(-99) <= v <= Fraction(99) for v in vals)
    assert all(v.denominator == 1 for v in vals)


@pytest.mark.parametrize("n", [1_000_003, 999_983, 2**31 - 1, 10**9 + 7, 199, 2, 1])
def test_bulk_draws_match_the_per_scalar_loop(n):
    for seed in (0, 9):
        bulk, loop = RandomSource(seed), random.Random(seed)
        assert bulk.below(n, 500) + bulk.below(n, 7) + bulk.below(n, 0) == [loop.randrange(n) for _ in range(507)]
        # the stream is left where the loop leaves it
        assert bulk._rng.getrandbits(64) == loop.getrandbits(64)
    with pytest.raises(ValueError):
        RandomSource(0).below(2**32, 1)


def test_field_draws_match_the_per_scalar_loop():
    f = GF(1_000_003)
    loop = random.Random(4)
    assert RandomSource(4).scalars(f, 300).tolist() == [loop.randrange(f.p) for _ in range(300)]
    loop = random.Random(4)
    assert RandomSource(4).scalars(QQ, 300).tolist() == [Fraction(loop.randint(-99, 99)) for _ in range(300)]


def test_child_streams():
    base = RandomSource(5)
    assert np.array_equal(base.child(3).scalars(QQ, 4), RandomSource(8).scalars(QQ, 4))
    with pytest.raises(ValueError):
        RandomSource(-1)  # its children 0 and 2 would draw the same stream


# -- array methods -------------------------------------------------------------

ARRAY_FIELDS = [GF(1_000_003), GF(2_147_483_647), QQ]
ARRAY_IDS = ["GF(1000003)", "GF(2147483647)", "QQ"]


def assert_field_array(field, arr):
    """Right dtype, and every entry is a residue in [0, p) or a Fraction."""
    if field is QQ:
        assert arr.dtype == object
        assert all(type(x) is Fraction for x in arr.ravel())
    else:
        assert arr.dtype == np.int64
        assert ((arr >= 0) & (arr < field.p)).all()


def random_entries(field, shape, rng):
    if field is QQ:
        flat = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(int(np.prod(shape)))]
    else:
        # mostly near p - 1, where an inexact product would show first
        flat = [field.p - 1 - rng.randrange(3) if rng.random() < 0.5 else rng.randrange(field.p) for _ in range(int(np.prod(shape)))]
    return field.array(np.array(flat, dtype=object).reshape(shape))


@pytest.mark.parametrize("field", ARRAY_FIELDS, ids=ARRAY_IDS)
def test_array_constructors(field):
    zeros = field.zeros((2, 3))
    eye = field.eye(3)
    ints = field.array([[1, -2], [3, 4]])
    from_int64 = field.array(np.arange(-3, 3, dtype=np.int64).reshape(2, 3))
    mixed = field.array([Fraction(1, 2), 5])
    for arr in (zeros, eye, ints, from_int64, mixed):
        assert_field_array(field, arr)
    assert zeros.shape == (2, 3) and zeros.tolist() == [[0] * 3] * 2
    assert eye.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert ints.tolist() == [[field.scalar(1), field.scalar(-2)], [field.scalar(3), field.scalar(4)]]
    assert from_int64.ravel().tolist() == [field.scalar(x) for x in range(-3, 3)]
    assert mixed.tolist() == [field.scalar(Fraction(1, 2)), field.scalar(5)]
    assert field.array([]).shape == (0,)


@pytest.mark.parametrize("field", ARRAY_FIELDS, ids=ARRAY_IDS)
@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((3, 4), (4, 2)), ((2, 1, 3, 4), (5, 4, 2)), ((3, 0), (0, 2)), ((2, 3, 0), (0, 4)), ((50, 5, 5), (50, 5, 4))],
    ids=["plain", "batched", "inner0", "batched-inner0", "sln-stack"],
)
def test_matmul_against_python_oracle(field, a_shape, b_shape):
    rng = random.Random(17)
    a = random_entries(field, a_shape, rng)
    b = random_entries(field, b_shape, rng)
    got = field.matmul(a, b)
    out_shape = np.broadcast_shapes(a_shape[:-2], b_shape[:-2]) + (a_shape[-2], b_shape[-1])
    assert got.shape == out_shape
    assert_field_array(field, got)
    # Python ints or Fractions, summed without any modular shortcut
    big_a = np.broadcast_to(a.astype(object), out_shape[:-2] + a_shape[-2:])
    big_b = np.broadcast_to(b.astype(object), out_shape[:-2] + b_shape[-2:])
    for idx in np.ndindex(out_shape):
        *batch, i, j = idx
        exact = sum((big_a[(*batch, i, k)] * big_b[(*batch, k, j)] for k in range(a_shape[-1])), 0)
        assert got[idx] == field.scalar(exact)


def test_qq_matmul_integral_and_fractional_operands():
    # the integer kernel clears each operand's denominators on its own
    ints = QQ.array(np.arange(-6, 6).reshape(2, 2, 3))
    fracs = QQ.array([[Fraction(1, 3)], [Fraction(-2, 7)], [5]])
    for b in (fracs, QQ.array(np.ones((3, 1), dtype=np.int64))):
        got = QQ.matmul(ints, b)
        assert_field_array(QQ, got)
        assert got.tolist() == [[[sum(ints[t, i, k] * b[k, 0] for k in range(3))] for i in range(2)] for t in range(2)]


@pytest.mark.parametrize("field", ARRAY_FIELDS, ids=ARRAY_IDS)
def test_reduce_is_idempotent(field):
    rng = random.Random(3)
    x = random_entries(field, (4, 5), rng)
    y = random_entries(field, (4, 5), rng)
    c = field.scalar(rng.randrange(1, 10**6))
    raw = x * c - y
    once = field.reduce(raw)
    assert_field_array(field, once)
    assert np.array_equal(field.reduce(once), once)
    assert once.ravel().tolist() == [field.reduce(u * c - v) for u, v in zip(x.ravel().tolist(), y.ravel().tolist())]


@pytest.mark.parametrize("field", ARRAY_FIELDS, ids=ARRAY_IDS)
def test_cleared_is_integers_over_one_denominator(field):
    arr = field.array([[Fraction(1, 2), -3], [Fraction(5, 12), 0]])
    ints, den = field.cleared(arr)
    assert all(isinstance(x, int) for x in ints.ravel().tolist()) and den >= 1
    assert field.reduce(field.array(ints) * field.inv(den)).tolist() == arr.tolist()
    assert field.cleared(field.array([[1, 2]]))[1] == 1


@pytest.mark.parametrize("field", ARRAY_FIELDS, ids=ARRAY_IDS)
def test_draws_are_field_arrays(field):
    for count in (0, 1, 9):
        draws = RandomSource(1).scalars(field, count)
        assert draws.shape == (count,)
        assert_field_array(field, draws)


# -- one array path ------------------------------------------------------------

# (module, function) of the only code outside fields.py that may branch on the field
FIELD_BRANCHES = {("linalg", "rref"), ("linalg", "det"), ("orbits", "invariant_quartic_dim")}


class _CallSites(ast.NodeVisitor):
    """(module, innermost enclosing function) of every call that ``matches``."""

    def __init__(self, module, matches):
        self.module, self.matches, self.scope, self.found = module, matches, ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if self.matches(node):
            self.found.add((self.module, self.scope[-1]))
        self.generic_visit(node)


def _call_sites_outside_fields(matches):
    found = set()
    for path in sorted(Path(spincert.__file__).parent.glob("*.py")):
        if path.name != "fields.py":
            visitor = _CallSites(path.stem, matches)
            visitor.visit(ast.parse(path.read_text()))
            found |= visitor.found
    return found


def _is_field_branch(node):
    # isinstance(..., PrimeField | RationalField), under any spelling of the class
    if isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
        names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
        return bool(names & {"PrimeField", "RationalField"})
    return False


def test_field_branches_only_where_allowed():
    assert _call_sites_outside_fields(_is_field_branch) == FIELD_BRANCHES


# (module, function) of the only code outside fields.py that may open a random stream:
# the genericity protocol, and the sln_quotient streams pinned by test_sln_quotient_draw_sequence
STREAM_OPENERS = {("orbits", "min_trial_stabilizer"), ("suites", "_sln_quotient")}


def _is_stream_opener(node):
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "RandomSource"


def test_random_streams_open_only_where_allowed():
    assert _call_sites_outside_fields(_is_stream_opener) == STREAM_OPENERS
