"""Truncated Taylor jets in three variables, batched over numpy axes.

A Jet holds a function's Taylor coefficients around a base point up to a
fixed total order, in one array: coeffs[k] belongs to dx^a dy^b dz^c for the
k-th key (a, b, c) in graded order, lowest degree first, so a lower order is
a prefix.  Trailing axes batch independent jets (sample points, spinor
components) and broadcast as numpy arrays do.  Products truncate; exp and
fractional powers compose through the nilpotent part, so every coefficient
is exact for polynomials, Gaussians and powers of |r|.  The mixed partial of
order alpha at the base point is alpha! times the stored coefficient, which
is how the numeric side differentiates without finite differencing.
"""

from math import comb, factorial

import numpy as np

__all__ = ["MAX_ORDER", "Jet", "alpha_factorial"]


def alpha_factorial(alpha):
    ax, ay, az = alpha
    return factorial(ax) * factorial(ay) * factorial(az)


def _size(order):
    return (order + 1) * (order + 2) * (order + 3) // 6


def _index(keys):
    """Graded position of each key (a, b, c) on the last axis."""
    a, b, c = np.moveaxis(np.asarray(keys), -1, 0)
    d, e = a + b + c, b + c
    return d * (d + 1) * (d + 2) // 6 + e * (e + 1) // 2 + c


def _layout(order):
    """Graded keys to order; per axis, the position of each key plus and
    minus that unit (-1 where there is none); the key pairs ordered by the
    position of their sum; and where the pairs of each position start.
    Every lower order's tables are prefixes."""
    keys = np.array([(a, b, d - a - b) for d in range(order + 1)
                     for a in range(d, -1, -1) for b in range(d - a, -1, -1)])
    sums = keys[:, None] + keys[None, :]
    left, right = np.nonzero(sums.sum(axis=-1) <= order)
    target = _index(sums[left, right])
    perm = np.argsort(target, kind="stable")
    units = np.eye(3, dtype=int)
    return (keys, [_index(keys + unit) for unit in units],
            [np.where(keys[:, u] > 0, _index(keys - units[u]), -1) for u in range(3)],
            left[perm], right[perm], np.searchsorted(target[perm], np.arange(_size(order) + 1)))


MAX_ORDER = 8
_KEYS, _UP, _DOWN, _LEFT, _RIGHT, _STARTS = _layout(MAX_ORDER)
_STEPS = [_KEYS[:, u] + 1.0 for u in range(3)]    # a_u + 1, the factor d/du brings down


def _cross_grad_tables(u):
    """Where each key reads f, and with what weight, in ((base + dx) x grad f)_u
    = base_j d_k f - base_k d_j f + (dx_j d_k - dx_k d_j) f, (j, k) = (u+1, u+2)
    mod 3.  The last two terms keep the degree; a key without a source reads
    row -1 with weight 0."""
    j, k = (u + 1) % 3, (u + 2) % 3
    turn = np.eye(3, dtype=int)[k] - np.eye(3, dtype=int)[j]
    has_j, has_k = _KEYS[:, j] > 0, _KEYS[:, k] > 0
    index = np.stack([_UP[k], _UP[j], np.where(has_j, _index(_KEYS + turn), -1),
                      np.where(has_k, _index(_KEYS - turn), -1)])
    return index, np.stack([_STEPS[k], -_STEPS[j], has_j * _STEPS[k], -(has_k * _STEPS[j])])


_CROSS_GRAD = [_cross_grad_tables(u) for u in range(3)]


class Jet:
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if not 0 <= order <= MAX_ORDER or len(self.coeffs) != _size(order):
            raise ValueError("jets run to order %d; order %d takes %d coefficients"
                             % (MAX_ORDER, order, _size(order)))

    @classmethod
    def constant(cls, order, value):
        value = np.asarray(value, dtype=complex)
        coeffs = np.zeros((_size(order),) + value.shape, dtype=complex)
        coeffs[0] = value
        return cls(order, coeffs)

    @classmethod
    def variable(cls, order, axis, base):
        """base + dx_axis as a jet; an array of bases gives a batch."""
        jet = cls.constant(order, base)
        if order:
            jet.coeffs[1 + axis] = 1.0
        return jet

    @classmethod
    def from_poly(cls, order, coeffs, point):
        """A polynomial sum c_ijk x^i y^j z^k expanded around point."""
        exps = np.array(list(coeffs), dtype=int).reshape(-1, 3)
        keys = _KEYS[:_size(order)]
        basis = np.ones((len(exps), len(keys)))
        for u in range(3):   # x^i = sum_a C(i, a) x0^(i - a) dx^a
            table = [[comb(i, a) * point[u] ** (i - a) if a <= i else 0.0
                      for a in range(order + 1)] for i in range(exps.max(initial=0) + 1)]
            basis = basis * np.array(table)[exps[:, u][:, None], keys[:, u]]
        return cls(order, np.array(list(coeffs.values()), dtype=complex) @ basis)

    def value(self):
        return self.coeffs[0]

    def partial(self, alpha):
        """Mixed partial of order alpha evaluated at the base point."""
        if sum(alpha) > self.order:
            return 0.0 * self.coeffs[0]
        return self.coeffs[_index(alpha)] * alpha_factorial(alpha)

    def truncate(self, order):
        """The same expansion to a lower order: a prefix of the coefficients."""
        return self if order == self.order else Jet(order, self.coeffs[:_size(order)])

    def diff(self, axis):
        """The jet of the derivative along axis, one order lower."""
        size = _size(self.order - 1)
        factor = _STEPS[axis][:size].reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        return Jet(self.order - 1, self.coeffs[_UP[axis][:size]] * factor)

    def times_variable(self, axis, base):
        """The jet times variable(order, axis, base), without a full product."""
        padded = np.concatenate([self.coeffs, 0.0 * self.coeffs[:1]])
        return Jet(self.order, self.coeffs * base + padded[_DOWN[axis][:_size(self.order)]])

    def cross_grad(self, axis, base):
        """((base + dx) x grad f)_axis as a jet one order lower; base[u] is the
        u-th coordinate of the base point, broadcast over the batch."""
        size = _size(self.order - 1)
        index, weight = _CROSS_GRAD[axis]
        terms = self.coeffs[index[:, :size]] \
            * weight[:, :size].reshape((4, size) + (1,) * (self.coeffs.ndim - 1))
        return Jet(self.order - 1, terms[0] * base[(axis + 1) % 3]
                   + terms[1] * base[(axis + 2) % 3] + terms[2] + terms[3])

    def scale(self, factor):
        return Jet(self.order, self.coeffs * factor)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        order = min(self.order, other.order)
        return Jet(order, self.truncate(order).coeffs + other.truncate(order).coeffs)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        order = min(self.order, other.order)
        return Jet(order, self.truncate(order).coeffs - other.truncate(order).coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        order = min(self.order, other.order)
        size = _size(order)
        end = _STARTS[size]
        left, right = self.coeffs[_LEFT[:end]], other.coeffs[_RIGHT[:end]]
        # multiply in place into the larger gathered copy: a third array of
        # this size costs several times the arithmetic at 100 sample points
        pairs, factor = (left, right) if left.size >= right.size else (right, left)
        pairs *= factor
        return Jet(order, np.add.reduceat(pairs, _STARTS[:size], axis=0))

    def _series(self, weights, factor):
        """factor * sum_k weights[k] delta^k, delta = the jet minus its value."""
        delta = Jet(self.order, self.coeffs.copy())
        delta.coeffs[0] = 0.0
        out, power = Jet.constant(self.order, factor), None
        for weight in weights[1:]:
            power = delta.scale(factor) if power is None else power * delta
            out = out + power.scale(weight)
        return out

    def exp(self):
        weights = [1.0 / factorial(k) for k in range(self.order + 1)]
        return self._series(weights, np.exp(self.coeffs[0]))

    def fractional_power(self, exponent):
        """(c0 + delta)^exponent via the binomial series; c0 must not vanish."""
        exponent, c0 = float(exponent), self.coeffs[0]
        if np.any(c0 == 0):
            raise ValueError("fractional power needs a nonzero base value")
        weights = [1.0]
        for k in range(1, self.order + 1):
            weights.append(weights[-1] * (exponent - k + 1) / k)
        return self.scale(1.0 / c0)._series(weights, c0 ** exponent)
