"""Split octonions as coordinate rows, and their derivation algebra.

An element is the Zorn vector matrix [[a, v], [w, b]] with scalars a, b and
3-vectors v, w, stored as the field row (a, v1, v2, v3, w1, w2, w3, b).  The
product couples scalar parts, dot products and cross products; it is built
once as an (8, 8, 8) integer table T with x y = sum_ij x_i y_j T[i, j], so a
batch of products is two ``field.matmul`` contractions.  The norm
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
from .linalg import SpanBuilder, kernel, rank

__all__ = [
    "multiplication_tensor",
    "ConstructionFailure",
    "DerivationAlgebra",
    "derivation_algebra",
    "subalgebra_generated",
    "split_generating_triple",
    "g2_stabilizer_checks",
]


class ConstructionFailure(RuntimeError):
    """The derivation system produced an unexpected dimension."""


def _zorn(x, y):
    """Zorn product of integer coordinate rows, broadcast over leading axes."""
    a, v, w, b = x[..., :1], x[..., 1:4], x[..., 4:7], x[..., 7:]
    c, s, t, d = y[..., :1], y[..., 1:4], y[..., 4:7], y[..., 7:]
    return np.concatenate(
        [
            a * c + (v * t).sum(-1, keepdims=True),
            a * s + d * v - np.cross(w, t),
            c * w + b * t + np.cross(v, s),
            b * d + (w * s).sum(-1, keepdims=True),
        ],
        axis=-1,
    )


# int8 keeps the (8,)*5 temporaries of the Leibniz system at 32 KB each; int64
# ones (256 KB) raised a default run's peak RSS by up to 5 MB in some launches
_EYE8 = np.eye(8, dtype=np.int8)
# _ZORN[i, j] = coordinates of basis_i * basis_j
_ZORN = _zorn(_EYE8[:, None], _EYE8[None, :]).astype(np.int8)
_UNIT = (1, 0, 0, 0, 0, 0, 0, 1)

# Leibniz rows (i, j, b): D(e_i e_j)_b - (D e_i . e_j)_b - (e_i . D e_j)_b,
# unknown D[x, y] at column 8x + y
_LEIBNIZ = (
    np.einsum("bx,ijy->ijbxy", _EYE8, _ZORN)
    - np.einsum("xjb,yi->ijbxy", _ZORN, _EYE8)
    - np.einsum("ixb,yj->ijbxy", _ZORN, _EYE8)
).reshape(512, 64)


def multiplication_tensor(field) -> np.ndarray:
    """T[i, j] = coords of basis_i * basis_j; shape (8, 8, 8)."""
    return field.array(_ZORN)


def _products(field, xs, ys) -> np.ndarray:
    """Every product xs[i] * ys[j] of coordinate rows, as rows in (i, j) order."""
    left = field.matmul(xs, multiplication_tensor(field).reshape(8, 64)).reshape(-1, 8, 8)
    return field.matmul(ys, left).reshape(-1, 8)


@dataclass
class DerivationAlgebra:
    """Basis of the 14-dimensional derivation algebra, as stacks of matrices."""

    field: object
    matrices: np.ndarray  # (14, 8, 8), on the full 8-dim algebra
    trace_zero_matrices: np.ndarray  # (14, 7, 7), restricted to the 7-dim trace-zero space

    @property
    def dimension(self) -> int:
        return len(self.matrices)

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.to_json(),
            "dimension": self.dimension,
            "matrices": self.field.json_entries(self.matrices),
        }


def derivation_algebra(field) -> DerivationAlgebra:
    """Solve D(x y) = D(x) y + x D(y) over all basis pairs; kernel dim 14."""
    (null,) = kernel(field, field.array(_LEIBNIZ)[None])
    if len(null) != 14:
        raise ConstructionFailure(f"derivation algebra dimension {len(null)}, expected 14")
    mats = null.reshape(14, 8, 8)
    # trace-zero basis: h = E1 - E2, then the v and w coordinate lines
    full = np.concatenate([field.reduce(mats[:, :, :1] - mats[:, :, 7:]), mats[:, :, 1:7]], axis=2)
    # derivations preserve the trace-zero subspace: row a + row b must cancel
    if np.count_nonzero(field.reduce(full[:, 0] + full[:, 7])):
        raise ConstructionFailure("derivation does not preserve trace zero")
    return DerivationAlgebra(field, mats, np.ascontiguousarray(full[:, :7]))


def subalgebra_generated(field, rows) -> int:
    """Dimension of the unital subalgebra generated by coordinate rows (max 8).

    Each round forms every product of two spanning rows of which at least
    one grew the span in the last round, until no product grows it.
    """
    sb = SpanBuilder(field, 8)
    old = field.zeros((0, 8))
    new = [r for r in field.array(np.vstack([_UNIT, rows])) if sb.add(r)]
    while new:
        fresh = np.stack(new)
        span = np.vstack([old, fresh])
        products = np.vstack([_products(field, fresh, span), _products(field, old, fresh)])
        old = span
        new = [r for r in products if sb.add(r)]
    return sb.dim


def split_generating_triple(field) -> np.ndarray:
    """An explicit trace-zero triple that generates all 8 dimensions, as 3 rows."""
    return field.array([[1, 0, 0, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 0, 1, 0, 0]])


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

    def nullity(system):
        return system.shape[1] - rank(field, system[None])[0]

    dims = []
    for t in range(trials):
        rng = RandomSource(seed).child(t)
        triple = rng.scalars(field, 21).reshape(3, 7)
        # column m holds D_m v for v in the triple, stacked: row 7c + r
        k1 = nullity(field.matmul(derivs, triple.T).transpose(2, 1, 0).reshape(21, -1))

        # on trace-zero coordinates (d, v, w): N = -(d^2 + v.w)
        v = rng.scalars(field, 7)
        while not np.count_nonzero(field.matmul(v[None, :4], v[[0, 4, 5, 6], None])):
            v = rng.scalars(field, 7)
        cols = field.matmul(derivs, v[:, None])[:, :, 0].T
        k2 = nullity(cols)
        k3 = nullity(np.column_stack([cols, v]))
        dims.append((k1, k2, k3))
    return tuple(min(d[i] for d in dims) for i in range(3))
