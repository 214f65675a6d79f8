"""Forward-mode differentiation scalars for evaluating problem functions.

Problem functions are written against ordinary arithmetic.  Evaluating them
on :class:`Dual` arguments propagates first (and optionally second)
derivatives with respect to a chosen set of seed directions.  Values may be
numpy arrays, in which case derivatives are carried for every entry at once,
so one call differentiates a whole batch of evaluation points.

Derivatives are tracked per support: a Dual stores its gradient and Hessian
only over the sorted seed directions it depends on, so a residual that
reads two of twelve arguments costs two gradient rows and four Hessian
planes, not twelve and 144.  A binary operation zero-pads both operands to
the union of their supports and then applies the dense formula, so every
stored entry is produced by the same floating-point operations, in the same
order, as with dense derivatives.  Bit-for-bit agreement with the dense
propagation is a contract (up to the sign of zero, and except where a
derivative is non-finite: entries outside the support are exact zeros,
where the dense product ``0 * inf`` would give NaN).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["Dual", "seed", "value", "sin", "cos", "tan", "exp", "log", "sqrt", "tanh"]


def _outer(a, b):
    # (s, ...) x (s, ...) -> (s, s, ...), batched over trailing axes
    return a[:, None] * b[None]


@lru_cache(maxsize=4096)
def _union(sa, sb):
    """Sorted union of two supports and, for each, the index tuples that
    place its gradient and its Hessian in it."""
    sup = tuple(sorted(set(sa) | set(sb)))
    pos = {s: i for i, s in enumerate(sup)}

    def places(s):
        idx = np.array([pos[i] for i in s])
        idx.flags.writeable = False  # shared by every caller of the cache
        return (idx,), np.ix_(idx, idx)

    return sup, places(sa), places(sb)


def _pad(x, places, n, order):
    """Zero-pad ``x`` (``order`` leading support axes) to ``n`` support
    entries placed by ``places[order - 1]``."""
    if x is None or x.shape[0] == n:
        return x
    out = np.zeros((n,) * order + x.shape[order:], dtype=x.dtype)
    out[places[order - 1]] = x
    return out


def _aligned(a, b):
    """Common support of two Duals and their derivatives padded to it."""
    if a.sup == b.sup:
        return a.sup, a.g, b.g, a.h, b.h
    sup, pa, pb = _union(a.sup, b.sup)
    n = len(sup)
    return (sup, _pad(a.g, pa, n, 1), _pad(b.g, pb, n, 1),
            _pad(a.h, pa, n, 2), _pad(b.h, pb, n, 2))


class Dual:
    """Truncated Taylor scalar: value, gradient, optional Hessian.

    ``grad`` has shape ``(m,) + shape(val)`` for ``m`` seed directions;
    ``hess``, when present, has shape ``(m, m) + shape(val)``.  Both are
    dense views built from the stored support-restricted arrays ``g`` of
    shape ``(len(sup),) + shape(val)`` and ``h`` of shape
    ``(len(sup), len(sup)) + shape(val)``.  Mixing a second-order Dual with
    a first-order Dual is not supported; constants (plain floats/arrays)
    mix freely with either.
    """

    __slots__ = ("val", "sup", "g", "h", "m")

    def __init__(self, val, grad, hess=None):
        grad = np.asarray(grad)
        self.val = val
        self.m = grad.shape[0]
        self.sup = tuple(range(self.m))
        self.g = grad
        self.h = hess

    @classmethod
    def _new(cls, val, sup, g, h, m):
        out = cls.__new__(cls)
        out.val, out.sup, out.g, out.h, out.m = val, sup, g, h, m
        return out

    @property
    def grad(self):
        if len(self.sup) == self.m:
            return self.g
        out = np.zeros((self.m,) + self.g.shape[1:], dtype=self.g.dtype)
        out[list(self.sup)] = self.g
        return out

    @property
    def hess(self):
        if self.h is None or len(self.sup) == self.m:
            return self.h
        out = np.zeros((self.m, self.m) + self.h.shape[2:], dtype=self.h.dtype)
        out[np.ix_(self.sup, self.sup)] = self.h
        return out

    def __repr__(self):
        return f"Dual(val={self.val!r})"

    # -- addition / subtraction ------------------------------------------
    def __add__(self, other):
        if isinstance(other, Dual):
            sup, sg, og, sh, oh = _aligned(self, other)
            h = None
            if sh is not None:
                h = sh + oh
            return Dual._new(self.val + other.val, sup, sg + og, h, self.m)
        return Dual._new(self.val + other, self.sup, self.g, self.h, self.m)

    __radd__ = __add__

    def __neg__(self):
        h = None if self.h is None else -self.h
        return Dual._new(-self.val, self.sup, -self.g, h, self.m)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Dual) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    # -- multiplication / division ---------------------------------------
    def __mul__(self, other):
        if isinstance(other, Dual):
            sup, sg, og, sh, oh = _aligned(self, other)
            h = None
            if sh is not None:
                h = (
                    sh * other.val
                    + oh * self.val
                    + _outer(sg, og)
                    + _outer(og, sg)
                )
            return Dual._new(self.val * other.val, sup,
                             sg * other.val + og * self.val, h, self.m)
        h = None if self.h is None else self.h * other
        return Dual._new(self.val * other, self.sup, self.g * other, h, self.m)

    __rmul__ = __mul__

    def _reciprocal(self):
        inv = 1.0 / self.val
        return _unary(self, inv, -(inv**2), 2.0 * inv**3)

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return self * other._reciprocal()
        return self * (1.0 / np.asarray(other))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, k):
        if isinstance(k, Dual):
            raise TypeError("Dual exponents are not supported")
        if k == 2:  # common case, avoids 0**negative issues at val = 0
            return self * self
        v = self.val
        return _unary(self, v**k, k * v ** (k - 1), k * (k - 1) * v ** (k - 2))


def _unary(x: Dual, f0, f1, f2):
    """Chain rule for a scalar function with precomputed f(v), f'(v), f''(v)."""
    hess = None
    if x.h is not None:
        hess = f2 * _outer(x.g, x.g) + f1 * x.h
    return Dual._new(f0, x.sup, f1 * x.g, hess, x.m)


def seed(values, m: int, second_order: bool = False):
    """Seed ``k`` components as Duals with unit directions ``0..k-1``.

    ``values`` is array-like of shape ``(k,)`` or ``(k, n)``; returns a list
    of ``k`` Duals sharing the total seed dimension ``m``, each supported on
    its own direction.
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        values = values.astype(float)
    g, h = _seed_derivatives(values.shape[1:], values.dtype, second_order)
    return [Dual._new(values[i], (i,), g, h, m) for i in range(values.shape[0])]


@lru_cache(maxsize=64)
def _seed_derivatives(tail, dtype, second_order):
    """The gradient (ones) and Hessian (zeros) of a seeded component, made
    read-only and shared by every seed of that shape: Dual arithmetic
    never writes into its operands."""
    g = np.ones((1,) + tail, dtype=dtype)
    h = np.zeros((1, 1) + tail, dtype=dtype) if second_order else None
    for a in (g, h):
        if a is not None:
            a.flags.writeable = False
    return g, h


def value(x):
    """Plain value of a Dual or passthrough for ordinary numbers."""
    return x.val if isinstance(x, Dual) else x


def sin(x):
    if isinstance(x, Dual):
        return _unary(x, np.sin(x.val), np.cos(x.val), -np.sin(x.val))
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return _unary(x, np.cos(x.val), -np.sin(x.val), -np.cos(x.val))
    return np.cos(x)


def tan(x):
    return sin(x) / cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = np.exp(x.val)
        return _unary(x, e, e, e)
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        inv = 1.0 / x.val
        return _unary(x, np.log(x.val), inv, -(inv**2))
    return np.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = np.sqrt(x.val)
        return _unary(x, r, 0.5 / r, -0.25 / (r * x.val))
    return np.sqrt(x)


def tanh(x):
    if isinstance(x, Dual):
        t = np.tanh(x.val)
        return _unary(x, t, 1.0 - t**2, -2.0 * t * (1.0 - t**2))
    return np.tanh(x)
