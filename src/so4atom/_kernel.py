"""Hot kernel for the operator engine.

Everything here works on *raw* data, not on the engine's classes:

* Gaussian rationals are triples ``(a, b, d)`` meaning ``(a + b*i)/d``
  with ``d > 0`` and ``gcd(a, b, d) == 1``.
* Scalar coefficients are dicts mapping sparse exponent keys (sorted
  tuples of ``(symbol_index, exponent)`` with nonzero exponents) to
  Gaussian rational triples.
* Operator expressions are dicts mapping monomial signatures
  ``(px, py, pz, rad, mx, my, mz, sx, sy, sz)`` to scalar coefficients.
  The signature encodes the canonical word
  ``r_x^px r_y^py r_z^pz r^rad p_x^mx p_y^my p_z^mz S_x^sx S_y^sy S_z^sz``.

The module is self-contained on purpose; it must not import anything
from the rest of the package.
"""

from math import gcd

KERNEL_NAME = "pure"

_ZERO3 = (0, 0, 0)
_ONE4 = (1, 0, 1, 0)


# ---------------------------------------------------------------------------
# Gaussian rationals


def g_norm(a, b, d):
    if a == 0 and b == 0:
        return (0, 0, 1)
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(gcd(a, b), d)
    if g > 1:
        a //= g
        b //= g
        d //= g
    return (a, b, d)


def g_add(x, y):
    xa, xb, xd = x
    ya, yb, yd = y
    return g_norm(xa * yd + ya * xd, xb * yd + yb * xd, xd * yd)


def g_mul(x, y):
    xa, xb, xd = x
    ya, yb, yd = y
    return g_norm(xa * ya - xb * yb, xa * yb + xb * ya, xd * yd)


def g_neg(x):
    return (-x[0], -x[1], x[2])


def g_inv(x):
    a, b, d = x
    n = a * a + b * b
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    return g_norm(a * d, -b * d, n)


def _g_mul4(x, y):
    # 4-tuples (a, b, d, hbar_power)
    a, b, d = g_mul(x[:3], y[:3])
    return (a, b, d, x[3] + y[3])


# ---------------------------------------------------------------------------
# Sparse exponent keys


def k_mul(ka, kb):
    if not ka:
        return kb
    if not kb:
        return ka
    out = []
    i = j = 0
    na, nb = len(ka), len(kb)
    while i < na and j < nb:
        sa, ea = ka[i]
        sb, eb = kb[j]
        if sa == sb:
            e = ea + eb
            if e:
                out.append((sa, e))
            i += 1
            j += 1
        elif sa < sb:
            out.append(ka[i])
            i += 1
        else:
            out.append(kb[j])
            j += 1
    out.extend(ka[i:])
    out.extend(kb[j:])
    return tuple(out)


def k_bump(key, idx, delta):
    if not delta:
        return key
    out = []
    done = False
    for s, e in key:
        if s == idx:
            e += delta
            done = True
            if e:
                out.append((s, e))
        elif s > idx and not done:
            out.append((idx, delta))
            done = True
            out.append((s, e))
        else:
            out.append((s, e))
    if not done:
        out.append((idx, delta))
    return tuple(out)


# ---------------------------------------------------------------------------
# Raw scalar coefficients


def sc_add_raw(x, y):
    if not x:
        return dict(y)
    out = dict(x)
    for k, g in y.items():
        cur = out.get(k)
        if cur is None:
            out[k] = g
        else:
            s = g_add(cur, g)
            if s[0] == 0 and s[1] == 0:
                del out[k]
            else:
                out[k] = s
    return out


def sc_neg_raw(x):
    return {k: (-g[0], -g[1], g[2]) for k, g in x.items()}


def sc_mul_raw(x, y):
    out = {}
    for kx, gx in x.items():
        for ky, gy in y.items():
            g = g_mul(gx, gy)
            if g[0] == 0 and g[1] == 0:
                continue
            k = k_mul(kx, ky)
            cur = out.get(k)
            if cur is None:
                out[k] = g
            else:
                s = g_add(cur, g)
                if s[0] == 0 and s[1] == 0:
                    del out[k]
                else:
                    out[k] = s
    return out


def sc_iadd_scaled(out, x, g, hbar_idx, hpow):
    """In place: out += x * g * hbar**hpow."""
    for k, gx in x.items():
        gv = g_mul(gx, g)
        if gv[0] == 0 and gv[1] == 0:
            continue
        if hpow:
            k = k_bump(k, hbar_idx, hpow)
        cur = out.get(k)
        if cur is None:
            out[k] = gv
        else:
            s = g_add(cur, gv)
            if s[0] == 0 and s[1] == 0:
                del out[k]
            else:
                out[k] = s


# ---------------------------------------------------------------------------
# Spin words.  Abstract mode: free PBW words S_x^a S_y^b S_z^c with
# [S_u, S_v] = i hbar eps_uvw S_w.  Spin-1/2 mode: words of degree <= 1
# with S_u S_v = (hbar^2/4) delta_uv + (i hbar / 2) eps_uvw S_w.

_EPS = {
    (0, 1): (2, 1),
    (1, 0): (2, -1),
    (1, 2): (0, 1),
    (2, 1): (0, -1),
    (2, 0): (1, 1),
    (0, 2): (1, -1),
}

_APPEND = {}
_SPINMUL = {}


def _acc(res, w, v):
    cur = res.get(w)
    if cur is None:
        res[w] = v
    else:
        a, b, d = g_add(cur[:3], v[:3])
        if a == 0 and b == 0:
            del res[w]
        else:
            res[w] = (a, b, d, v[3])


def _append_one(word, axis):
    """Normal-ordered expansion of word * S_axis (abstract mode)."""
    key = (word, axis)
    hit = _APPEND.get(key)
    if hit is not None:
        return hit
    a, b, c = word
    if axis == 2:
        res = {(a, b, c + 1): _ONE4}
    elif axis == 1:
        if c == 0:
            res = {(a, b + 1, 0): _ONE4}
        else:
            # S_z^c S_y = (S_z^{c-1} S_y) S_z - i hbar S_z^{c-1} S_x
            res = {}
            for w, v in _append_one((a, b, c - 1), 1).items():
                _acc(res, (w[0], w[1], w[2] + 1), v)
            for w, v in _append_one((a, b, c - 1), 0).items():
                _acc(res, w, _g_mul4(v, (0, -1, 1, 1)))
    else:
        if c > 0:
            # S_z^c S_x = (S_z^{c-1} S_x) S_z + i hbar S_z^{c-1} S_y
            res = {}
            for w, v in _append_one((a, b, c - 1), 0).items():
                _acc(res, (w[0], w[1], w[2] + 1), v)
            for w, v in _append_one((a, b, c - 1), 1).items():
                _acc(res, w, _g_mul4(v, (0, 1, 1, 1)))
        elif b > 0:
            # S_y^b S_x = (S_y^{b-1} S_x) S_y - i hbar S_y^{b-1} S_z
            res = {}
            for w, v in _append_one((a, b - 1, 0), 0).items():
                for w2, v2 in _append_one(w, 1).items():
                    _acc(res, w2, _g_mul4(v, v2))
            _acc(res, (a, b - 1, 1), (0, -1, 1, 1))
        else:
            res = {(a + 1, 0, 0): _ONE4}
    _APPEND[key] = res
    return res


def _half_append(word, axis):
    """word * S_axis in the spin-1/2 quotient (word degree <= 1)."""
    if word == _ZERO3:
        w = [0, 0, 0]
        w[axis] = 1
        return {tuple(w): _ONE4}
    u = 0 if word[0] else (1 if word[1] else 2)
    if u == axis:
        return {_ZERO3: (1, 0, 4, 2)}
    w_axis, sign = _EPS[(u, axis)]
    w = [0, 0, 0]
    w[w_axis] = 1
    return {tuple(w): (0, sign, 2, 1)}


def spin_mul(sa, sb, half):
    """Product of two spin words, flattened to
    ``(w0, w1, w2, a, b, d, hbar_power)`` tuples."""
    key = (sa, sb, half)
    hit = _SPINMUL.get(key)
    if hit is not None:
        return hit
    cur = {sa: _ONE4}
    append = _half_append if half else _append_one
    for axis in (0, 1, 2):
        for _ in range(sb[axis]):
            nxt = {}
            for w, v in cur.items():
                for w2, v2 in append(w, axis).items():
                    _acc(nxt, w2, _g_mul4(v, v2))
            cur = nxt
    out = tuple(
        (w[0], w[1], w[2], v[0], v[1], v[2], v[3]) for w, v in sorted(cur.items())
    )
    _SPINMUL[key] = out
    return out


def spin_word_half(word):
    """Expand an abstract spin word in the spin-1/2 quotient."""
    return spin_mul(_ZERO3, word, True)


# ---------------------------------------------------------------------------
# Momentum past position / radial factors:
# p_u (pos, rad) = (pos, rad) p_u - i hbar pos_u (pos - e_u, rad)
#                - i hbar rad (pos + e_u, rad - 2)

_PPAST = {}


def _p_past(mom, pos, rad):
    key = (mom, pos, rad)
    hit = _PPAST.get(key)
    if hit is not None:
        return hit
    cur = {(pos, rad, _ZERO3): _ONE4}
    for axis in (2, 1, 0):
        for _ in range(mom[axis]):
            nxt = {}
            for (p, r, m), v in cur.items():
                macc = list(m)
                macc[axis] += 1
                _acc3(nxt, (p, r, tuple(macc)), v)
                bu = p[axis]
                if bu:
                    p2 = list(p)
                    p2[axis] -= 1
                    _acc3(nxt, (tuple(p2), r, m), _g_mul4(v, (0, -bu, 1, 1)))
                if r:
                    p3 = list(p)
                    p3[axis] += 1
                    _acc3(nxt, (tuple(p3), r - 2, m), _g_mul4(v, (0, -r, 1, 1)))
            cur = nxt
    out = tuple(
        (p[0], p[1], p[2], r, m[0], m[1], m[2], v[0], v[1], v[2], v[3])
        for (p, r, m), v in sorted(cur.items())
    )
    _PPAST[key] = out
    return out


def _acc3(res, k, v):
    cur = res.get(k)
    if cur is None:
        res[k] = v
    else:
        a, b, d = g_add(cur[:3], v[:3])
        if a == 0 and b == 0:
            del res[k]
        else:
            res[k] = (a, b, d, v[3])


# ---------------------------------------------------------------------------
# Full product on term dicts


def expr_mul(ta, tb, half, hbar_idx):
    out = {}
    for sig_a, ca in ta.items():
        pa0 = sig_a[0]
        pa1 = sig_a[1]
        pa2 = sig_a[2]
        rada = sig_a[3]
        ma = sig_a[4:7]
        sa = sig_a[7:10]
        for sig_b, cb in tb.items():
            cab = sc_mul_raw(ca, cb)
            if not cab:
                continue
            spins = spin_mul(sa, sig_b[7:10], half)
            mb0 = sig_b[4]
            mb1 = sig_b[5]
            mb2 = sig_b[6]
            for q in _p_past(ma, sig_b[0:3], sig_b[3]):
                base = (
                    pa0 + q[0],
                    pa1 + q[1],
                    pa2 + q[2],
                    rada + q[3],
                    q[4] + mb0,
                    q[5] + mb1,
                    q[6] + mb2,
                )
                gq = (q[7], q[8], q[9])
                hq = q[10]
                for w in spins:
                    sig = base + (w[0], w[1], w[2])
                    g = g_mul(gq, (w[3], w[4], w[5]))
                    if g[0] == 0 and g[1] == 0:
                        continue
                    tgt = out.get(sig)
                    if tgt is None:
                        tgt = out[sig] = {}
                    sc_iadd_scaled(tgt, cab, g, hbar_idx, hq + w[6])
    return {s: c for s, c in out.items() if c}
