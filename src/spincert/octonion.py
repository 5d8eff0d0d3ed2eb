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
Its dimension must be 14, and every derivation must preserve the trace-zero
octonions; anything else is a construction failure, not a soft error.
``derivation_algebra`` returns g2 acting on the 7-dim trace-zero octonions,
a ``LieRepresentation`` cached per field like any other: restriction to
that subspace is an injective Lie map, so its structure constants and
Killing form are those of the 8-dim derivations.  Its stabilizer claims go
through ``orbits.min_trial_stabilizer``, the single-copy ones with the
witness ``anisotropic``.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .linalg import SpanBuilder, kernel
from .spinreps import LieRepresentation

__all__ = [
    "multiplication_tensor",
    "ConstructionFailure",
    "derivation_algebra",
    "subalgebra_generated",
    "split_generating_triple",
    "anisotropic",
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


@cache
def derivation_algebra(field) -> LieRepresentation:
    """g2 on the 7-dim trace-zero octonions: the 14 solutions of D(x y) = D(x) y + x D(y), restricted."""
    (null,) = kernel(field, field.array(_LEIBNIZ)[None])
    if len(null) != 14:
        raise ConstructionFailure(f"derivation algebra dimension {len(null)}, expected 14")
    mats = null.reshape(14, 8, 8)
    # trace-zero basis: h = E1 - E2, then the v and w coordinate lines
    full = np.concatenate([field.reduce(mats[:, :, :1] - mats[:, :, 7:]), mats[:, :, 1:7]], axis=2)
    # derivations preserve the trace-zero subspace: row a + row b must cancel
    if np.count_nonzero(field.reduce(full[:, 0] + full[:, 7])):
        raise ConstructionFailure("derivation does not preserve trace zero")
    basis = tuple(("g2", k) for k in range(14))
    return LieRepresentation.from_tensor(7, field, "g2 on trace-zero octonions", basis, full[:, :7])


def subalgebra_generated(field, rows) -> int:
    """Dimension of the unital subalgebra generated by coordinate rows (max 8).

    Each round forms every product of two spanning rows of which at least
    one grew the span in the last round, until no product grows it.
    """
    sb = SpanBuilder(field)
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


def anisotropic(field, x) -> bool:
    """Whether the trace-zero point x = (d, v, w) has norm -(d^2 + v.w) != 0: g2's genericity witness.

    An isotropic point has the generic stabilizer dimension, 8, but a scaled stabilizer of 9.
    """
    return bool(np.count_nonzero(field.matmul(x[None, :4], x[[0, 4, 5, 6], None])))
