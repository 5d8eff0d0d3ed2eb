"""Split octonions as Zorn vector matrices, and their derivation algebra.

An element is [[a, v], [w, b]] with scalars a, b and 3-vectors v, w; the
product couples scalar parts, dot products and cross products.  The norm
N = ab - v.w is multiplicative and the algebra is alternative; both facts
are exercised by the tests rather than assumed.

The derivation algebra (the Lie algebra of the automorphism group) is
recovered as the kernel of the Leibniz system over all 64 basis products.
Its dimension must be 14; anything else is a construction failure, not a
soft error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import RandomSource
from .linalg import Matrix, SpanBuilder, random_vector

__all__ = [
    "Octonion",
    "oct_multiply",
    "octonion_basis",
    "multiplication_tensor",
    "ConstructionFailure",
    "DerivationAlgebra",
    "derivation_algebra",
    "subalgebra_generated",
    "split_generating_triple",
    "g2_stabilizer_checks",
    "TRACE_ZERO_DIM",
]

TRACE_ZERO_DIM = 7


class ConstructionFailure(RuntimeError):
    """The derivation system produced an unexpected dimension."""


@dataclass(frozen=True)
class Octonion:
    """Zorn vector matrix [[a, v], [w, b]] over an exact field.

    Coordinates are ordered (a, v1, v2, v3, w1, w2, w3, b).
    """

    field: object
    a: object
    v: tuple
    w: tuple
    b: object

    @classmethod
    def from_coords(cls, field, coords):
        c = [field.scalar(x) for x in coords]
        return cls(field, c[0], tuple(c[1:4]), tuple(c[4:7]), c[7])

    def coords(self) -> list:
        return [self.a, *self.v, *self.w, self.b]

    @classmethod
    def one(cls, field):
        return cls.from_coords(field, [1, 0, 0, 0, 0, 0, 0, 1])

    @classmethod
    def zero(cls, field):
        return cls.from_coords(field, [0] * 8)

    def __add__(self, other):
        f = self.field
        return Octonion(
            f,
            f.add(self.a, other.a),
            tuple(f.add(x, y) for x, y in zip(self.v, other.v)),
            tuple(f.add(x, y) for x, y in zip(self.w, other.w)),
            f.add(self.b, other.b),
        )

    def __sub__(self, other):
        f = self.field
        return Octonion(
            f,
            f.sub(self.a, other.a),
            tuple(f.sub(x, y) for x, y in zip(self.v, other.v)),
            tuple(f.sub(x, y) for x, y in zip(self.w, other.w)),
            f.sub(self.b, other.b),
        )

    def __neg__(self):
        f = self.field
        return Octonion(f, f.neg(self.a), tuple(f.neg(x) for x in self.v), tuple(f.neg(x) for x in self.w), f.neg(self.b))

    def scale(self, c):
        f = self.field
        c = f.scalar(c)
        return Octonion(f, f.mul(self.a, c), tuple(f.mul(x, c) for x in self.v), tuple(f.mul(x, c) for x in self.w), f.mul(self.b, c))

    def __mul__(self, other):
        return oct_multiply(self, other)

    def trace(self):
        return self.field.add(self.a, self.b)

    def norm(self):
        f = self.field
        return f.sub(f.mul(self.a, self.b), _dot(f, self.v, self.w))

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(x) for x in self.coords())


def _dot(f, x, y):
    acc = f.zero
    for a, b in zip(x, y):
        acc = f.add(acc, f.mul(a, b))
    return acc


def _cross(f, x, y):
    return (
        f.sub(f.mul(x[1], y[2]), f.mul(x[2], y[1])),
        f.sub(f.mul(x[2], y[0]), f.mul(x[0], y[2])),
        f.sub(f.mul(x[0], y[1]), f.mul(x[1], y[0])),
    )


def oct_multiply(x: Octonion, y: Octonion) -> Octonion:
    """Zorn product; bilinear, non-associative, norm-multiplicative."""
    if x.field != y.field:
        raise ValueError("field mismatch")
    f = x.field
    a = f.add(f.mul(x.a, y.a), _dot(f, x.v, y.w))
    b = f.add(f.mul(x.b, y.b), _dot(f, x.w, y.v))
    cross_w = _cross(f, x.w, y.w)
    v = tuple(
        f.sub(f.add(f.mul(x.a, y.v[i]), f.mul(y.b, x.v[i])), cross_w[i]) for i in range(3)
    )
    cross_v = _cross(f, x.v, y.v)
    w = tuple(
        f.add(f.add(f.mul(y.a, x.w[i]), f.mul(x.b, y.w[i])), cross_v[i]) for i in range(3)
    )
    return Octonion(f, a, v, w, b)


def octonion_basis(field) -> list[Octonion]:
    """The 8 coordinate octonions, in coordinate order."""
    out = []
    for i in range(8):
        coords = [0] * 8
        coords[i] = 1
        out.append(Octonion.from_coords(field, coords))
    return out


def multiplication_tensor(field) -> np.ndarray:
    """T[i, j] = coords of basis_i * basis_j; shape (8, 8, 8)."""
    basis = octonion_basis(field)
    t = field.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            t[i, j] = (basis[i] * basis[j]).coords()
    return t


# trace-zero basis: h = E1 - E2, then the v and w coordinate lines
_TZ_EMBED = np.zeros((8, 7), dtype=np.int64)
_TZ_EMBED[0, 0] = 1
_TZ_EMBED[7, 0] = -1
for _i in range(6):
    _TZ_EMBED[1 + _i, 1 + _i] = 1
_TZ_PROJECT = np.zeros((7, 8), dtype=np.int64)
_TZ_PROJECT[0, 0] = 1
for _i in range(6):
    _TZ_PROJECT[1 + _i, 1 + _i] = 1


@dataclass
class DerivationAlgebra:
    """Basis of the 14-dimensional derivation algebra, as 8x8 matrices."""

    field: object
    matrices: list[Matrix]  # on the full 8-dim algebra
    trace_zero_matrices: list[Matrix]  # restricted to the 7-dim trace-zero space

    @property
    def dimension(self) -> int:
        return len(self.matrices)

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.to_json(),
            "dimension": self.dimension,
            "matrices": [self.field.json_entries(m.data) for m in self.matrices],
        }


def derivation_algebra(field) -> DerivationAlgebra:
    """Solve D(x y) = D(x) y + x D(y) over all basis pairs; kernel dim 14."""
    tensor = multiplication_tensor(field)
    rows = []
    # unknown D[r, c] at flat index r*8 + c
    for i in range(8):
        for j in range(8):
            for b in range(8):
                row = field.zeros(64)
                for l in range(8):
                    t = tensor[i, j, l]
                    if not field.is_zero(t):
                        row[b * 8 + l] = field.add(row[b * 8 + l], t)
                for r in range(8):
                    t = tensor[r, j, b]
                    if not field.is_zero(t):
                        row[r * 8 + i] = field.sub(row[r * 8 + i], t)
                    t2 = tensor[i, r, b]
                    if not field.is_zero(t2):
                        row[r * 8 + j] = field.sub(row[r * 8 + j], t2)
                rows.append(row)
    system = Matrix(field, np.stack(rows))
    kernel = system.kernel_basis()
    if len(kernel) != 14:
        raise ConstructionFailure(f"derivation algebra dimension {len(kernel)}, expected 14")
    mats = [Matrix(field, z.reshape(8, 8)) for z in kernel]

    embed = Matrix(field, _TZ_EMBED)
    project = Matrix(field, _TZ_PROJECT)
    restricted = []
    for m in mats:
        full = m @ embed
        # derivations preserve the trace-zero subspace: row a + row b must cancel
        if np.count_nonzero(field.reduce(full.data[0] + full.data[7])):
            raise ConstructionFailure("derivation does not preserve trace zero")
        restricted.append(project @ full)
    return DerivationAlgebra(field, mats, restricted)


def subalgebra_generated(x: Octonion, y: Octonion, z: Octonion) -> int:
    """Dimension of the unital subalgebra generated by the triple (max 8)."""
    field = x.field
    sb = SpanBuilder(field, 8)
    basis: list[Octonion] = []
    from collections import deque

    queue: deque = deque()

    def push(o: Octonion):
        if sb.add(field.array(o.coords())):
            i = len(basis)
            basis.append(o)
            for j in range(len(basis)):
                queue.append((i, j))
                if j != i:
                    queue.append((j, i))

    push(Octonion.one(field))
    for o in (x, y, z):
        push(o)
    while queue:
        i, j = queue.popleft()
        push(basis[i] * basis[j])
    return sb.dim


def split_generating_triple(field) -> tuple[Octonion, Octonion, Octonion]:
    """An explicit trace-zero triple that generates all 8 dimensions."""
    h = Octonion.from_coords(field, [1, 0, 0, 0, 0, 0, 0, -1])
    x1 = Octonion.from_coords(field, [0, 1, 0, 0, 1, 0, 0, 0])
    x2 = Octonion.from_coords(field, [0, 0, 1, 0, 0, 1, 0, 0])
    return h, x1, x2


def _random_trace_zero(field, rng: RandomSource) -> np.ndarray:
    return random_vector(field, TRACE_ZERO_DIM, rng)


def _tz_norm(field, coords) -> object:
    # on trace-zero coordinates (d, v, w): N = -d^2 - v.w
    d = coords[0]
    acc = field.neg(field.mul(d, d))
    for i in range(3):
        acc = field.sub(acc, field.mul(coords[1 + i], coords[4 + i]))
    return acc


def g2_stabilizer_checks(derivations: DerivationAlgebra, trials: int, seed: int) -> tuple[int, int, int]:
    """Generic kernels of the derivation action on trace-zero octonions.

    ``derivations`` is the algebra from :func:`derivation_algebra`; its field
    is the field of the sample points.

    Returns the minimum over the trials of each kernel dimension: on three
    trace-zero copies (expect 0), on one copy (expect 8), and on one copy with
    the scaling generator appended (expect 8).  Anisotropic sample points are
    used for the single-copy checks (isotropic vectors form a proper closed
    subset, but there is no reason to leave the draw to luck when the norm is
    one evaluation away).
    """
    field = derivations.field
    derivs = derivations.trace_zero_matrices
    dims = []
    for t in range(trials):
        rng = RandomSource(seed).child(t)
        triple = [_random_trace_zero(field, rng) for _ in range(3)]
        cols = [np.concatenate([m.apply(v) for v in triple]) for m in derivs]
        k1 = len(Matrix(field, np.stack(cols, axis=1)).kernel_basis())

        v = _random_trace_zero(field, rng)
        while field.is_zero(_tz_norm(field, v)):
            v = _random_trace_zero(field, rng)
        cols = [m.apply(v) for m in derivs]
        k2 = len(Matrix(field, np.stack(cols, axis=1)).kernel_basis())
        cols.append(v.copy())
        k3 = len(Matrix(field, np.stack(cols, axis=1)).kernel_basis())
        dims.append((k1, k2, k3))
    return tuple(min(d[i] for d in dims) for i in range(3))
