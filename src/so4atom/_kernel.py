"""Hot kernel for the operator engine.

Everything here works on *raw* data, not on the engine's classes:

* Gaussian rationals are triples ``(a, b, d)`` meaning ``(a + b*i)/d``
  with ``d > 0`` and ``gcd(a, b, d) == 1``; zero is ``(0, 0, 1)``.
* Scalar coefficients are dicts mapping sparse exponent keys (sorted
  tuples of ``(symbol_index, exponent)`` with nonzero exponents) to
  nonzero Gaussian rational triples.  hbar is symbol ``HBAR_INDEX``, the
  smallest index, so a power of hbar is always the first entry of a key.
* Operator expressions are dicts mapping monomial signatures
  ``(px, py, pz, rad, mx, my, mz, sx, sy, sz)`` to scalar coefficients.
  The signature encodes the canonical word
  ``r_x^px r_y^py r_z^pz r^rad p_x^mx p_y^my p_z^mz S_x^sx S_y^sy S_z^sz``.

Products.  Multiplying two monomials
``(pos_a, rad_a, ma, sa) * (pos_b, rad_b, mb, sb)`` only reorders the
middle: ``p^ma`` moves past ``r^pos_b r^rad_b`` (``_p_past``) and
``S^sa S^sb`` is normal-ordered (``spin_mul``).  The words this yields,
with their Gaussian coefficients and powers of hbar, depend only on
``(ma, pos_b, rad_b, sa, sb)`` and the spin mode; ``pos_a``, ``rad_a``
and ``mb`` merely shift each word.  ``_step`` fuses the two expansions
into one structure-table entry per such shape, built on first use and
kept for the process, so ``expr_mul`` and ``expr_comm`` loop over term
pairs times table entries and never expand a shape twice.

Normal form.  Positions and radial powers satisfy
``r^2 = r_x^2 + r_y^2 + r_z^2``.  The canonical form of the quotient keeps
every r_x exponent at most 1; the relation is monic of degree 2 in r_x, so
two operators are equal exactly when their term dicts are.  From operands in
that form only a product can raise an r_x exponent past 1, so ``expr_mul``
and ``expr_comm`` end in ``_quotient``, which rewrites

    r_x^2 r^m  ->  r^(m+2) - r_y^2 r^m - r_z^2 r^m     (any integer m)

and drops empty coefficients: both return the normal form.  Every other
operation only merges, rescales or re-keys spin and scalar parts, and
keeps it.  A stored coefficient dict is never mutated; ``acc_raw`` adds by
replacing it.

Q(i) is a field and the scalar ring Q(i)[s, 1/s, ...] is a domain, so a
product of nonzero coefficients is never zero: the kernel tests for zero
only after an addition.

The module is self-contained on purpose; it must not import anything
from the rest of the package.
"""

from math import gcd

KERNEL_NAME = "pure"

# hbar's symbol index; equal to scalars.HBAR_INDEX, which this module may
# not import.  It is the smallest index, so bumping hbar edits a key's head.
HBAR_INDEX = 0

_ZERO3 = (0, 0, 0)
_ONE4 = (1, 0, 1, 0)


# ---------------------------------------------------------------------------
# Gaussian rationals


def g_norm(a, b, d):
    if d == 1:
        return (a, b, 1)
    if a == 0 and b == 0:
        return (0, 0, 1)
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(a, b, d)
    if g > 1:
        a //= g
        b //= g
        d //= g
    return (a, b, d)


def g_add(x, y):
    xa, xb, xd = x
    ya, yb, yd = y
    if xd == 1 and yd == 1:
        return (xa + ya, xb + yb, 1)
    return g_norm(xa * yd + ya * xd, xb * yd + yb * xd, xd * yd)


def g_mul(x, y):
    xa, xb, xd = x
    ya, yb, yd = y
    return g_norm(xa * ya - xb * yb, xa * yb + xb * ya, xd * yd)


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


def k_bump_hbar(key, delta):
    """``key * hbar**delta`` for ``delta != 0``: an edit of the key's head."""
    if key and key[0][0] == HBAR_INDEX:
        e = key[0][1] + delta
        if e:
            return ((HBAR_INDEX, e),) + key[1:]
        return key[1:]
    return ((HBAR_INDEX, delta),) + key


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


def acc_raw(out, sig, raw):
    """``out[sig] += raw`` on a term dict, dropping a sum that is zero.
    The coefficient stored under ``sig`` is replaced, never mutated."""
    cur = out.get(sig)
    if cur is None:
        out[sig] = dict(raw)
    else:
        merged = sc_add_raw(cur, raw)
        if merged:
            out[sig] = merged
        else:
            del out[sig]


def sc_neg_raw(x):
    return {k: (-g[0], -g[1], g[2]) for k, g in x.items()}


def sc_mul_raw(x, y):
    if len(x) == 1 and len(y) == 1:
        (kx, (xa, xb, xd)), = x.items()
        (ky, (ya, yb, yd)), = y.items()
        a = xa * ya - xb * yb
        b = xa * yb + xb * ya
        d = xd * yd
        return {k_mul(kx, ky): (a, b, 1) if d == 1 else g_norm(a, b, d)}
    out = {}
    for kx, gx in x.items():
        for ky, gy in y.items():
            g = g_mul(gx, gy)
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


def sc_iadd_scaled(out, x, ga, gb, gd, hpow):
    """In place: out += x * (ga + gb*i)/gd * hbar**hpow."""
    for k, (xa, xb, xd) in x.items():
        if xd == 1 and gd == 1:
            v = (xa * ga - xb * gb, xa * gb + xb * ga, 1)
        else:
            v = g_norm(xa * ga - xb * gb, xa * gb + xb * ga, xd * gd)
        if hpow:
            k = k_bump_hbar(k, hpow)
        cur = out.get(k)
        if cur is None:
            out[k] = v
            continue
        if cur[2] == 1 and v[2] == 1:
            s = (cur[0] + v[0], cur[1] + v[1], 1)
        else:
            s = g_add(cur, v)
        if s[0] or s[1]:
            out[k] = s
        else:
            del out[k]


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


def _p_past(mom, pos, rad):
    """Normal-ordered expansion of ``p^mom r^pos r^rad``, sorted, as
    ``((pos, rad, mom), (a, b, d, hbar_power))`` pairs."""
    cur = {(pos, rad, _ZERO3): _ONE4}
    for axis in (2, 1, 0):
        for _ in range(mom[axis]):
            nxt = {}
            for (p, r, m), v in cur.items():
                macc = list(m)
                macc[axis] += 1
                _acc(nxt, (p, r, tuple(macc)), v)
                bu = p[axis]
                if bu:
                    p2 = list(p)
                    p2[axis] -= 1
                    _acc(nxt, (tuple(p2), r, m), _g_mul4(v, (0, -bu, 1, 1)))
                if r:
                    p3 = list(p)
                    p3[axis] += 1
                    _acc(nxt, (tuple(p3), r - 2, m), _g_mul4(v, (0, -r, 1, 1)))
            cur = nxt
    return sorted(cur.items())


# ---------------------------------------------------------------------------
# The structure table and the products on term dicts

# Per spin mode (index ``half``): (ma, sa) -> (pos_b, rad_b, sb) -> entries.
_STEPS = ({}, {})


def _step(ma, pos_b, rad_b, sa, sb, half):
    """Structure-table entry for ``p^ma S^sa * r^pos_b r^rad_b S^sb``.

    One flat tuple ``(q0, ..., q6, w0, w1, w2, a, b, d, h)`` per word
    ``r^(q0, q1, q2) r^q3 p^(q4, q5, q6) S^(w0, w1, w2)`` of the expansion,
    whose coefficient is ``(a + b*i)/d * hbar**h``.  The product of the
    full monomials adds ``pos_a``, ``rad_a`` and ``mb`` to the signature
    offset ``q``.  Words come in the order of the sorted momentum and spin
    expansions; no entry is zero, since Q(i) has no zero divisors.
    """
    spins = spin_mul(sa, sb, half)
    out = []
    for (p, r, m), (qa, qb, qd, qh) in _p_past(ma, pos_b, rad_b):
        for w0, w1, w2, wa, wb, wd, wh in spins:
            a, b, d = g_mul((qa, qb, qd), (wa, wb, wd))
            out.append((p[0], p[1], p[2], r, m[0], m[1], m[2], w0, w1, w2, a, b, d, qh + wh))
    return tuple(out)


def _row(sig_a, half):
    """The table row of the left monomial's ``(ma, sa)``."""
    key = sig_a[4:10]
    rows = _STEPS[half]
    row = rows.get(key)
    if row is None:
        row = rows[key] = {}
    return row


def _fill(row, sig_a, sig_b, half):
    """Build and keep the entry for the monomial pair; a row keys it by
    the right monomial's ``(pos_b, rad_b, sb)``."""
    steps = row[sig_b[0:4] + sig_b[7:10]] = _step(
        sig_a[4:7], sig_b[0:3], sig_b[3], sig_a[7:10], sig_b[7:10], half
    )
    return steps


def _quotient(out):
    """The normal form of a raw product: drop empty coefficients and apply
    the r_x^2 rewrite to the keys with ``px >= 2`` until none is left."""
    res = {s: c for s, c in out.items() if c and s[0] < 2}
    work = [(s, c) for s, c in out.items() if c and s[0] >= 2]
    while work:
        sig, c = work.pop()
        px, py, pz, m = sig[0], sig[1], sig[2], sig[3]
        if px < 2:
            acc_raw(res, sig, c)
            continue
        rest = sig[4:]
        neg = sc_neg_raw(c)
        work.append(((px - 2, py, pz, m + 2) + rest, c))
        work.append(((px - 2, py + 2, pz, m) + rest, neg))
        work.append(((px - 2, py, pz + 2, m) + rest, neg))
    return res


def expr_mul(ta, tb, half):
    """Terms of ``A*B`` in the quotient normal form."""
    out = {}
    # the innermost body is sc_iadd_scaled, inlined: it runs once per term
    # pair, scalar term and word, the engine's hottest loop
    bs = [(sig_b[0:4] + sig_b[7:10], sig_b[4], sig_b[5], sig_b[6], sig_b, cb)
          for sig_b, cb in tb.items()]
    for sig_a, ca in ta.items():
        pa0, pa1, pa2, rada = sig_a[0], sig_a[1], sig_a[2], sig_a[3]
        row = _row(sig_a, half)
        for kb, mb0, mb1, mb2, sig_b, cb in bs:
            steps = row.get(kb) or _fill(row, sig_a, sig_b, half)
            for ck, (xa, xb, xd) in sc_mul_raw(ca, cb).items():
                for q0, q1, q2, q3, q4, q5, q6, w0, w1, w2, ga, gb, gd, h in steps:
                    sig = (pa0 + q0, pa1 + q1, pa2 + q2, rada + q3,
                           q4 + mb0, q5 + mb1, q6 + mb2, w0, w1, w2)
                    if xd == 1 and gd == 1:
                        v = (xa * ga - xb * gb, xa * gb + xb * ga, 1)
                    else:
                        v = g_norm(xa * ga - xb * gb, xa * gb + xb * ga, xd * gd)
                    k = k_bump_hbar(ck, h) if h else ck
                    tgt = out.get(sig)
                    if tgt is None:
                        out[sig] = {k: v}
                        continue
                    cur = tgt.get(k)
                    if cur is None:
                        tgt[k] = v
                        continue
                    if cur[2] == 1 and v[2] == 1:
                        s = (cur[0] + v[0], cur[1] + v[1], 1)
                    else:
                        s = g_add(cur, v)
                    if s[0] or s[1]:
                        tgt[k] = s
                    else:
                        del tgt[k]
    return _quotient(out)


def _pair_into(acc, sig_a, sig_b, half, sign):
    """``acc[(sig, h)] += sign * g`` over the words ``g * hbar**h * sig``
    of the unit monomial product ``sig_a * sig_b``."""
    pa0, pa1, pa2, rada = sig_a[0], sig_a[1], sig_a[2], sig_a[3]
    mb0, mb1, mb2 = sig_b[4], sig_b[5], sig_b[6]
    row = _row(sig_a, half)
    steps = row.get(sig_b[0:4] + sig_b[7:10]) or _fill(row, sig_a, sig_b, half)
    for q0, q1, q2, q3, q4, q5, q6, w0, w1, w2, ga, gb, gd, h in steps:
        key = ((pa0 + q0, pa1 + q1, pa2 + q2, rada + q3,
                q4 + mb0, q5 + mb1, q6 + mb2, w0, w1, w2), h)
        g = (ga, gb, gd) if sign > 0 else (-ga, -gb, gd)
        cur = acc.get(key)
        if cur is None:
            acc[key] = g
            continue
        s = g_add(cur, g)
        if s[0] or s[1]:
            acc[key] = s
        else:
            del acc[key]


def expr_comm(ta, tb, half):
    """Terms of ``[A, B] = A*B - B*A`` in the quotient normal form.

    For each monomial pair the words of both orders merge first, as unit
    products; the leading word always cancels, often everything does, and
    only the surviving words are scaled by the pair's coefficient.
    """
    out = {}
    for sig_a, ca in ta.items():
        for sig_b, cb in tb.items():
            acc = {}
            _pair_into(acc, sig_a, sig_b, half, 1)
            _pair_into(acc, sig_b, sig_a, half, -1)
            if not acc:
                continue
            cab = sc_mul_raw(ca, cb)
            for (sig, h), (ga, gb, gd) in acc.items():
                tgt = out.get(sig)
                if tgt is None:
                    tgt = out[sig] = {}
                sc_iadd_scaled(tgt, cab, ga, gb, gd, h)
    return _quotient(out)
