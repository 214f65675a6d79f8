"""Dense forward-mode differentiation: the reference for bit-parity tests.

This is the propagation ``pbfem.ad`` performed before it tracked supports:
gradients and Hessians over all ``m`` seed directions.  It is kept only as
a reference; ``pbfem.ad`` must reproduce every entry it computes.
"""

import numpy as np


def _outer(a, b):
    return np.einsum("i...,j...->ij...", a, b)


class DenseDual:
    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess=None):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __add__(self, other):
        if isinstance(other, DenseDual):
            h = None
            if self.hess is not None:
                h = self.hess + other.hess
            return DenseDual(self.val + other.val, self.grad + other.grad, h)
        return DenseDual(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        h = None if self.hess is None else -self.hess
        return DenseDual(-self.val, -self.grad, h)

    def __sub__(self, other):
        return self + (-other if isinstance(other, DenseDual) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, DenseDual):
            h = None
            if self.hess is not None:
                h = (
                    self.hess * other.val
                    + other.hess * self.val
                    + _outer(self.grad, other.grad)
                    + _outer(other.grad, self.grad)
                )
            return DenseDual(
                self.val * other.val,
                self.grad * other.val + other.grad * self.val,
                h,
            )
        h = None if self.hess is None else self.hess * other
        return DenseDual(self.val * other, self.grad * other, h)

    __rmul__ = __mul__

    def _reciprocal(self):
        inv = 1.0 / self.val
        return _unary(self, inv, -(inv**2), 2.0 * inv**3)

    def __truediv__(self, other):
        if isinstance(other, DenseDual):
            return self * other._reciprocal()
        return self * (1.0 / np.asarray(other))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, k):
        if k == 2:
            return self * self
        v = self.val
        return _unary(self, v**k, k * v ** (k - 1), k * (k - 1) * v ** (k - 2))


def _unary(x, f0, f1, f2):
    hess = None
    if x.hess is not None:
        hess = f2 * _outer(x.grad, x.grad) + f1 * x.hess
    return DenseDual(f0, f1 * x.grad, hess)


def seed(values, m, second_order=False):
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        values = values.astype(float)
    tail = values.shape[1:]
    out = []
    for i in range(values.shape[0]):
        g = np.zeros((m,) + tail, dtype=values.dtype)
        g[i] = 1.0
        h = np.zeros((m, m) + tail, dtype=values.dtype) if second_order else None
        out.append(DenseDual(values[i], g, h))
    return out


def value(x):
    return x.val if isinstance(x, DenseDual) else x


def sin(x):
    return _unary(x, np.sin(x.val), np.cos(x.val), -np.sin(x.val))


def cos(x):
    return _unary(x, np.cos(x.val), -np.sin(x.val), -np.cos(x.val))


def tan(x):
    return sin(x) / cos(x)


def exp(x):
    e = np.exp(x.val)
    return _unary(x, e, e, e)


def log(x):
    inv = 1.0 / x.val
    return _unary(x, np.log(x.val), inv, -(inv**2))


def sqrt(x):
    r = np.sqrt(x.val)
    return _unary(x, r, 0.5 / r, -0.25 / (r * x.val))


def tanh(x):
    t = np.tanh(x.val)
    return _unary(x, t, 1.0 - t**2, -2.0 * t * (1.0 - t**2))
