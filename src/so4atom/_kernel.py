"""Hot kernel for the operator engine.

Everything here works on *raw* data, not on the engine's classes:

* Gaussian rationals are triples ``(a, b, d)`` meaning ``(a + b*i)/d``
  with ``d > 0`` and ``gcd(a, b, d) == 1``; zero is ``(0, 0, 1)``.
* A term is one Python int key, the packed exponents of an operator word
  times a scalar monomial, mapped to a nonzero Gaussian rational.  An
  operator expression is one flat dict of terms; so is a scalar
  coefficient, whose keys all carry the identity word (``ID_WORD``).

Key layout.  Every exponent has a field of ``FIELD_BITS`` bits and may
range over ``EXP_MIN..EXP_MAX``; the two top bits of a field are guards.
The low ``SIG_BITS`` hold the word: field i (i = 0..9) is entry i of the
signature ``(px, py, pz, rad, mx, my, mz, sx, sy, sz)`` of the canonical
word ``r_x^px r_y^py r_z^pz r^rad p_x^mx p_y^my p_z^mz S_x^sx S_y^sy
S_z^sz``, stored biased (exponent plus ``2**(FIELD_BITS - 3)``), so
``key & SIG_MASK`` is the word whatever the scalar part.  Above them sit
the scalar exponents as signed fields, symbol i in field i, so a registry
that grows only adds high fields and a key with no scalar factor stops at
the word.  hbar is symbol ``HBAR_INDEX``.  ``pack`` and ``unpack`` convert
to and from ``(signature, sparse scalar key)``, the sparse key being the
sorted ``(symbol, exponent)`` pairs with nonzero exponents; every printed
or scanned order is the order of those decoded tuples, never of the ints.

The layout is linear: the key of a product of two scalar monomials is the
sum of their keys minus ``ID_WORD`` (one bias too many), and multiplying by
``hbar**h`` adds ``h * HBAR_UNIT``.  An exponent that leaves its field does
not wrap: each operation that makes new keys checks them (``_check``) and
raises OverflowError, which the engine reports as a DomainError.  With two
guard bits a sum of two in-range keys plus a small offset stays decodable,
so the check can wait until a product is complete.

Products.  Multiplying two monomials
``(pos_a, rad_a, ma, sa) * (pos_b, rad_b, mb, sb)`` only reorders the
middle: ``p^ma`` moves past ``r^pos_b r^rad_b`` (``_p_past``) and
``S^sa S^sb`` is normal-ordered (``spin_mul``).  The words this yields,
with their Gaussian coefficients and powers of hbar, depend only on
``(ma, pos_b, rad_b, sa, sb)`` and the spin mode; ``pos_a``, ``rad_a``
and ``mb`` merely shift each word.  Each expansion is kept on its own,
packed as ``(offset, a, b, d)`` per word: the momentum one by
``(ma, pos_b, rad_b)`` (``_momenta``), the spin one by ``(sa, sb)`` and
the mode (``_spins``).  ``_steps`` fuses the two into one structure-table
entry per shape, built on first use and kept for the process: the
product of terms ``ka`` and ``kb`` has the key ``ka + kb + offset``,
hbar included, where each word's offset is the sum of its two parts'.
So ``expr_mul`` and ``expr_comm`` loop over term pairs times table
entries, each an integer addition, and never expand a shape twice.

Normal form.  Positions and radial powers satisfy
``r^2 = r_x^2 + r_y^2 + r_z^2``.  The canonical form of the quotient keeps
every r_x exponent at most 1; the relation is monic of degree 2 in r_x, so
two operators are equal exactly when their term dicts are.  From operands in
that form only a product can raise an r_x exponent past 1, so ``expr_mul``
and ``expr_comm`` end in ``_quotient``, which rewrites

    r_x^2 r^m  ->  r^(m+2) - r_y^2 r^m - r_z^2 r^m     (any integer m)

until no key has ``px >= 2``: both return the normal form.  Every other
operation only merges, rescales or re-keys spin and scalar parts, and
keeps it.  A term dict handed in is never mutated.

Q(i) is a field and the scalar ring Q(i)[s, 1/s, ...] is a domain, so a
product of nonzero coefficients is never zero: the kernel tests for zero
only after an addition.

Zero tests.  ``expr_zero_at`` decides whether a term dict vanishes with
one symbol set to 0 or 1 by reading the keys, without building the
substituted terms; the engine's mu lenses use it.

The module is self-contained on purpose; it must not import anything
from the rest of the package.
"""

from functools import cache
from math import gcd
from operator import add, mul

KERNEL_NAME = "pure"

# hbar's symbol index; equal to scalars.HBAR_INDEX, which this module may
# not import.
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
# Packed keys

FIELD_BITS = 12
_FIELD = (1 << FIELD_BITS) - 1
_HALF_FIELD = 1 << (FIELD_BITS - 1)
_BIAS = 1 << (FIELD_BITS - 3)
EXP_MIN = -_BIAS
EXP_MAX = _BIAS - 1
# both guard bits of one field; an in-range field never sets them
_GUARDS = 3 << (FIELD_BITS - 2)

SIG_FIELDS = 10
SIG_BITS = SIG_FIELDS * FIELD_BITS
SIG_MASK = (1 << SIG_BITS) - 1


def _unit(field):
    return 1 << (FIELD_BITS * field)


def _repunit(n):
    """One in each of the lowest n fields."""
    return ((1 << (FIELD_BITS * n)) - 1) // _FIELD


ID_WORD = _BIAS * _repunit(SIG_FIELDS)
HBAR_UNIT = _unit(SIG_FIELDS + HBAR_INDEX)

# the r_x, r_y, r_z and r fields, which the quotient rewrite moves
_PX, _PY, _PZ, _RAD = _unit(0), _unit(1), _unit(2), _unit(3)
# the (pos, rad), mom and spin fields of a word
_POS_MASK = _FIELD * (_unit(0) + _unit(1) + _unit(2) + _unit(3))
_MOM_MASK = _FIELD * (_unit(4) + _unit(5) + _unit(6))
_SPIN_MASK = _FIELD * (_unit(7) + _unit(8) + _unit(9))
# a structure-table row is keyed by the left word's (mom, spin) fields and
# an entry in it by the right word's (pos, rad, spin) fields
_ROW_MASK = _MOM_MASK | _SPIN_MASK
_COL_MASK = _POS_MASK | _SPIN_MASK
_SPIN_ZERO = ID_WORD & _SPIN_MASK


def _in_range(e):
    if not EXP_MIN <= e <= EXP_MAX:
        raise OverflowError("exponent %d is outside the packed range %d..%d"
                            % (e, EXP_MIN, EXP_MAX))
    return e


def pack(sig, key=()):
    """The key of the word with signature ``sig`` times the scalar monomial
    ``key`` (sorted ``(symbol, exponent)`` pairs)."""
    k = 0
    for i, e in enumerate(sig):
        k += (_in_range(e) + _BIAS) << (FIELD_BITS * i)
    for s, e in key:
        k += _in_range(e) << (SIG_BITS + FIELD_BITS * s)
    return k


_WORD_UNITS = tuple(_unit(i) for i in range(SIG_FIELDS))


def _shift(deltas):
    """What adding ``deltas[i]`` to word field i adds to a key."""
    return sum(map(mul, deltas, _WORD_UNITS))


def word_fields(k):
    """The signature of a key's word."""
    return _word_fields(k & SIG_MASK)


def scalar_key(k):
    """A key's scalar monomial as sorted ``(symbol, exponent)`` pairs."""
    return _scalar_key(k >> SIG_BITS)


# the decoders are memoised on the word and on the scalar part: printing
# and scans decode the same few thousand of each again and again
@cache
def _word_fields(w):
    return tuple(((w >> (FIELD_BITS * i)) & _FIELD) - _BIAS for i in range(SIG_FIELDS))


@cache
def _scalar_key(s):
    out = []
    idx = 0
    while s:
        e = s & _FIELD
        if e >= _HALF_FIELD:
            e -= 1 << FIELD_BITS
        if e:
            out.append((idx, e))
        s = (s - e) >> FIELD_BITS
        idx += 1
    return tuple(out)


def unpack(k):
    """``(signature, scalar key)`` of a packed key; ``pack`` inverts it."""
    return word_fields(k), scalar_key(k)


@cache
def _lift(n):
    """Adds the bias to each of the lowest n scalar fields, so that none of
    them borrows from the field above."""
    return _BIAS * _repunit(n)


@cache
def _guards(n):
    """The guard bits of the word and of the lowest n scalar fields."""
    return _GUARDS * _repunit(SIG_FIELDS + n)


def exponent(k, idx):
    """The exponent of symbol ``idx`` in key ``k``."""
    return ((((k >> SIG_BITS) + _lift(idx + 1)) >> (FIELD_BITS * idx)) & _FIELD) - _BIAS


def symbol_unit(idx):
    """What adding one to symbol ``idx``'s exponent adds to a key."""
    return _unit(SIG_FIELDS + idx)


def _check(terms):
    """Raise OverflowError if some key of ``terms`` has an exponent outside
    EXP_MIN..EXP_MAX.

    Sound for keys whose exponents lie within four times that range, as
    every key does that one operation makes from in-range keys: once the
    scalar fields are lifted like the word's, a field's guard bits are
    clear exactly when it is in range, the lowest field out of range
    takes no carry from below, and no two such exponent vectors share a
    key, so none merged with another before the check."""
    if not terms:
        return
    top = max(max(terms), -min(terms)).bit_length()
    n = max(top - SIG_BITS, 0) // FIELD_BITS + 2
    lift = _lift(n) << SIG_BITS
    if any(map(_guards(n).__and__, map(lift.__add__, terms))):
        raise OverflowError("an exponent left the packed range %d..%d"
                            % (EXP_MIN, EXP_MAX))


def by_word(terms):
    """``{word: {key with the identity word: coefficient}}``: each word's
    scalar coefficient, in the layout of a scalar's terms."""
    out = {}
    for k, g in terms.items():
        w = k & SIG_MASK
        grp = out.get(w)
        if grp is None:
            grp = out[w] = {}
        grp[k - w + ID_WORD] = g
    return out


def word_count(terms):
    return len({k & SIG_MASK for k in terms})


def invert_raw(terms):
    """The inverse of a single term whose word is at most a radial power;
    the caller checks that shape."""
    (k, g), = terms.items()
    out = {2 * ID_WORD - k: g_inv(g)}
    _check(out)
    return out


# ---------------------------------------------------------------------------
# Raw term dicts


def acc_raw(out, k, g):
    """``out[k] += g``, dropping a sum that is zero."""
    cur = out.get(k)
    if cur is None:
        out[k] = g
        return
    s = g_add(cur, g)
    if s[0] or s[1]:
        out[k] = s
    else:
        del out[k]


def sc_add_raw(x, y):
    """``x + y`` as a new dict."""
    out = dict(x)
    for k, g in y.items():
        acc_raw(out, k, g)
    return out


def sc_sub_raw(x, y):
    """``x - y`` as a new dict, negating ``y``'s coefficients as they merge."""
    out = dict(x)
    for k, (a, b, d) in y.items():
        cur = out.get(k)
        if cur is None:
            out[k] = (-a, -b, d)
            continue
        s = g_add(cur, (-a, -b, d))
        if s[0] or s[1]:
            out[k] = s
        else:
            del out[k]
    return out


def sc_neg_raw(x):
    return {k: (-g[0], -g[1], g[2]) for k, g in x.items()}


def sc_mul_raw(x, y):
    """The product of two term dicts of which at most one has words other
    than the identity: a scalar times a scalar or an operator."""
    if len(y) == 1:
        (ky, gy), = y.items()
        shift = ky - ID_WORD
        out = {kx + shift: g_mul(gx, gy) for kx, gx in x.items()}
    elif len(x) == 1:
        (kx, gx), = x.items()
        shift = kx - ID_WORD
        out = {ky + shift: g_mul(gx, gy) for ky, gy in y.items()}
    else:
        out = {}
        for kx, gx in x.items():
            kx -= ID_WORD
            for ky, gy in y.items():
                acc_raw(out, kx + ky, g_mul(gx, gy))
        _check(out)
        return out
    if shift:
        _check(out)
    return out


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

# Per spin mode (index ``half``): left word's (mom, spin) fields -> right
# word's (pos, rad, spin) fields -> entries.
_STEPS = ({}, {})
# the two expansions an entry fuses, each as ``(offset, a, b, d)`` per
# word: momentum past position, keyed by the left word's momentum fields
# and the right word's position and radial fields, which never overlap;
# and per spin mode, the spin product, keyed by both words' spin fields
_MOMENTA = {}
_SPINS = ({}, {})


def _momenta(ka, kb):
    """``p^ma`` of key ``ka`` moved past ``r^pos_b r^rad_b`` of key ``kb``
    (``_p_past``): per word of the expansion, what its position, radial,
    momentum and hbar fields add to ``pos_b``, ``rad_b``, ``ma``, with its
    coefficient."""
    key = (ka & _MOM_MASK) | (kb & _POS_MASK)
    hit = _MOMENTA.get(key)
    if hit is None:
        pb0, pb1, pb2, rb, ma0, ma1, ma2 = word_fields(key)[:7]
        hit = _MOMENTA[key] = tuple(
            (_shift((p[0] - pb0, p[1] - pb1, p[2] - pb2, r - rb, m[0] - ma0, m[1] - ma1,
                     m[2] - ma2)) + h * HBAR_UNIT, a, b, d)
            for (p, r, m), (a, b, d, h) in _p_past((ma0, ma1, ma2), (pb0, pb1, pb2), rb))
    return hit


def _spins(ka, kb, half):
    """``S^sa * S^sb`` of keys ``ka`` and ``kb`` (``spin_mul``): per word of
    the product, what its spin and hbar fields add to ``sa + sb``, with its
    coefficient."""
    key = (ka & _SPIN_MASK, kb & _SPIN_MASK)
    hit = _SPINS[half].get(key)
    if hit is None:
        sa, sb = word_fields(ka)[7:], word_fields(kb)[7:]
        s0, s1, s2 = map(add, sa, sb)
        hit = _SPINS[half][key] = tuple(
            (_shift((0,) * 7 + (w0 - s0, w1 - s1, w2 - s2)) + h * HBAR_UNIT, a, b, d)
            for w0, w1, w2, a, b, d, h in spin_mul(sa, sb, half))
    return hit


def _steps(rows, ka, kb, half):
    """The packed table entry of the word pair of keys ``ka`` and ``kb``:
    ``(offset, a, b, d)`` per word, where the word's term in ``ka * kb``
    has the key ``ka + kb + offset`` and the coefficient
    ``(a + b*i)/d`` times the product of theirs.

    Each word is a word of the momentum expansion times one of the spin
    product, in that order; its offset is the sum of theirs less
    ``ID_WORD``, since ``ka + kb`` carries each word field's bias twice.
    No entry is zero, since Q(i) has no zero divisors.
    """
    row = rows.get(ka & _ROW_MASK)
    if row is None:
        row = rows[ka & _ROW_MASK] = {}
    steps = row.get(kb & _COL_MASK)
    if steps is None:
        spins = _spins(ka, kb, half)
        out = []
        for off, qa, qb, qd in _momenta(ka, kb):
            off -= ID_WORD
            for soff, wa, wb, wd in spins:
                if wa == wd == 1 and not wb:
                    out.append((off + soff, qa, qb, qd))
                else:
                    out.append((off + soff, *g_mul((qa, qb, qd), (wa, wb, wd))))
        steps = row[kb & _COL_MASK] = tuple(out)
    return steps


def _quotient(out):
    """The normal form of a raw product, after checking its exponents:
    apply the r_x^2 rewrite to the keys with ``px >= 2`` until none is
    left."""
    _check(out)
    px2 = _BIAS + 2
    work = [(k, c) for k, c in out.items() if k & _FIELD >= px2]
    if not work:
        return out
    res = {k: c for k, c in out.items() if k & _FIELD < px2}
    while work:
        k, c = work.pop()
        if k & _FIELD < px2:
            acc_raw(res, k, c)
            continue
        k -= 2 * _PX
        neg = (-c[0], -c[1], c[2])
        work.append((k + 2 * _RAD, c))
        work.append((k + 2 * _PY, neg))
        work.append((k + 2 * _PZ, neg))
    _check(res)
    return res


def expr_mul(ta, tb, half):
    """Terms of ``A*B`` in the quotient normal form."""
    out = {}
    rows = _STEPS[half]
    bs = [(kb, kb & _COL_MASK, g) for kb, g in tb.items()]
    # the innermost body runs once per term pair and table word, the
    # engine's hottest loop
    for ka, (xa, xb, xd) in ta.items():
        row = rows.get(ka & _ROW_MASK)
        if row is None:
            row = rows[ka & _ROW_MASK] = {}
        for kb, col, (ya, yb, yd) in bs:
            steps = row.get(col) or _steps(rows, ka, kb, half)
            base = ka + kb
            pa = xa * ya - xb * yb
            pb = xa * yb + xb * ya
            pd = xd * yd
            for off, ga, gb, gd in steps:
                k = base + off
                if pd == 1 and gd == 1:
                    v = (pa * ga - pb * gb, pa * gb + pb * ga, 1)
                else:
                    v = g_norm(pa * ga - pb * gb, pa * gb + pb * ga, pd * gd)
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
    return _quotient(out)


def expr_comm(ta, tb, half):
    """Terms of ``[A, B] = A*B - B*A`` in the quotient normal form.

    For each pair of words the table entries of both orders merge first,
    as unit products keyed by their offsets; the leading word always
    cancels, often everything does, and only the surviving words are
    scaled by each pair of terms on those words.
    """
    out = {}
    rows = _STEPS[half]
    words_b = [(wb, tuple(c.items())) for wb, c in by_word(tb).items()]
    for wa, ca in by_word(ta).items():
        terms_a = tuple(ca.items())
        for wb, terms_b in words_b:
            # the words of one table entry are distinct, so only the second
            # order's can meet
            acc = {off: (ga, gb, gd) for off, ga, gb, gd in _steps(rows, wa, wb, half)}
            for off, ga, gb, gd in _steps(rows, wb, wa, half):
                cur = acc.get(off)
                if cur is None:
                    acc[off] = (-ga, -gb, gd)
                    continue
                s = g_add(cur, (-ga, -gb, gd))
                if s[0] or s[1]:
                    acc[off] = s
                else:
                    del acc[off]
            if not acc:
                continue
            # the coefficient keys carry the identity word in place of wa and wb
            shift = wa + wb - 2 * ID_WORD
            units = [(off + shift, g[0], g[1], g[2]) for off, g in acc.items()]
            for ka, (xa, xb, xd) in terms_a:
                for kb, (ya, yb, yd) in terms_b:
                    base = ka + kb
                    pa = xa * ya - xb * yb
                    pb = xa * yb + xb * ya
                    pd = xd * yd
                    for off, ga, gb, gd in units:
                        k = base + off
                        if pd == 1 and gd == 1:
                            v = (pa * ga - pb * gb, pa * gb + pb * ga, 1)
                        else:
                            v = g_norm(pa * ga - pb * gb, pa * gb + pb * ga, pd * gd)
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
    return _quotient(out)


# ---------------------------------------------------------------------------
# The spin-1/2 quotient map

# spin fields of a key -> ((offset, a, b, d), ...) of its image words
_HALF_WORDS = {}


def reduce_half(terms):
    """The terms of the spin-1/2 quotient image of an abstract term dict."""
    out = {}
    grew = False
    for k, g in terms.items():
        spin = k & _SPIN_MASK
        if spin == _SPIN_ZERO:
            acc_raw(out, k, g)
            continue
        image = _HALF_WORDS.get(spin)
        if image is None:
            word = word_fields(k)[7:]
            image = _HALF_WORDS[spin] = tuple(
                (_shift((0,) * 7 + (w0 - word[0], w1 - word[1], w2 - word[2])) + h * HBAR_UNIT,
                 a, b, d)
                for w0, w1, w2, a, b, d, h in spin_word_half(word))
        xa, xb, xd = g
        for off, ga, gb, gd in image:
            grew = True
            acc_raw(out, k + off, g_norm(xa * ga - xb * gb, xa * gb + xb * ga, xd * gd))
    if grew:
        _check(out)
    return out


# ---------------------------------------------------------------------------
# Zero tests at a value of one symbol


def expr_zero_at(terms, idx, v):
    """Whether the term dict vanishes once symbol ``idx`` is set to ``v``,
    for ``v`` in {0, 1}, without building the substituted terms.

    At 0 a term survives unless its key holds a positive power of the
    symbol; every key is scanned first, and a negative power raises
    ZeroDivisionError, since 0 has no inverse.  At 1 the symbol drops out
    of each key, so the terms vanish exactly when their coefficients sum
    to zero over the keys that then coincide.
    """
    if v not in (0, 1):
        raise ValueError("expr_zero_at takes 0 or 1, not %r" % (v,))
    # exponent(k, idx) for every key
    lift = _lift(idx + 1)
    at = FIELD_BITS * idx
    exps = [(((k >> SIG_BITS) + lift) >> at & _FIELD) - _BIAS for k in terms]
    if v == 0:
        if min(exps, default=0) < 0:
            raise ZeroDivisionError("a negative power of symbol %d at 0" % idx)
        return all(exps)
    if not any(exps):
        return not terms
    unit = symbol_unit(idx)
    sums = {}
    for (k, g), e in zip(terms.items(), exps):
        k -= e * unit
        cur = sums.get(k)
        if cur is None:
            sums[k] = g
            continue
        cur = g_add(cur, g)
        if cur[0] or cur[1]:
            sums[k] = cur
        else:
            del sums[k]
    return not sums
