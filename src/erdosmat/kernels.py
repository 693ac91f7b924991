"""The enumeration walk: one exact, orderly depth-first search over Python ints.

The walk visits the linearly independent supports that contain the
identity, extending by permutations of increasing rank.  Each node of
the tree carries, in its recursion frame, three integer objects for the
Gram matrix G of its support: ``d = det G``, ``adj G`` and
``z = adj G 1``.  Bordering G by one permutation is a Schur-complement
update (``_extend``): the new determinant is zero exactly when the
extension is linearly dependent, and the new z is the candidate's
integer weights.  The new adjugate (``_bordered_adjugate``) is built
only for a node the walk descends from, and returning from a subtree
undoes nothing.  Each candidate is then checked for nonnegativity and
for the Erdos property in integers.

The walk is orderly (Read, Ann. Discrete Math. 2, 1978) under every map
``S -> t s^-1 S t^-1``, with s in S and t in S_n.  These maps take S onto
exactly the supports containing the identity among the ``P S Q``, and
they keep every agreement count, so every image has the Gram matrix,
weights and verdicts of S, and a candidate equivalent to S's.  A support
is walked only if its sorted ranks are lexicographically least among its
images.  Being least is inherited by a support minus its largest
element, so a support that is not least is dropped with its whole
subtree.  The same comparison counts the maps that fix the support, and
each visited support stands for its orbit of ``n! |S| / fixers``
supports in every source count and in every counter but the dependent
one.

The walk reads ``_Tables``, per-dimension tables indexed by permutation
rank, which are all read off one table of the products ``a^-1 b``.  It
compares a support with its images n! masks at a time, each mask a field
of one packed Python int, with one add and one AND.

All arithmetic is on Python ints, which cannot overflow.  Every division
by d is exact in theory (the entries of ``adj G'`` and ``adj G' 1`` are
integers); each goes through ``linalg._exact_div``, which checks it and
raises ``ArithmeticError`` on a remainder instead of rounding it away.
A budgeted walk reads the clock before every try; a read costs a small
part of one.
"""

from __future__ import annotations

import time
from math import gcd
from operator import itemgetter, mul

from .linalg import _exact_div
from .perms import all_permutations


class _Tables:
    """Per-dimension lookup tables of the walk, indexed by permutation rank.

    ``perms`` lists S_n in rank order.  ``pos[g]`` lists the row-major
    positions of the ones of permutation matrix g, one per column, and
    ``on_perms`` maps a row-major matrix to its entries on every
    permutation, n consecutive values per rank, as one ``itemgetter``
    built once here rather than once per walk.

    ``left[a][b]`` is the rank of ``a^-1 b``, the one table built from
    the group itself; the others are read off it.  ``fix[r]`` counts the
    fixed points of rank r, so ``fix[left[a][b]]`` is the agreement count
    of a and b, the Frobenius inner product of their matrices: a and b
    agree at i exactly when i is a fixed point of ``a^-1 b``.

    The walk codes a support as an n!-bit mask, rank r at bit
    ``n! - 1 - r``, and keeps n! such masks side by side in one int of
    n! fields, each ``width = 8 (n! // 8 + 1)`` bits wide, field k
    counted from the low end: the n! mask bits leave at least one bit
    above them, the field's carry bit.  ``ones`` has bit 0 of every
    field set and ``carry`` every carry bit.  ``packed[r]`` holds, in
    field k, the bit of the image of r under the conjugation
    ``p -> s p s^-1`` by the permutation s of rank k, the identity's
    first.  With ``inv[r] = left[r][0]``, the rank of the inverse of
    rank r, the row ``L = left[inv[k]]`` maps p to ``s p``, and that
    conjugation is ``inv . L . inv . L``, since ``p s^-1`` is the inverse
    of ``s p^-1``: three ``itemgetter`` passes per s, the last of which
    reads each image's field bytes.  Each entry is then one
    ``int.from_bytes`` of its n! fields' bytes.  The table holds n!^3
    bits, about 47 MB at n = 6 and 230 KB at n = 5.
    """

    def __init__(self, n: int):
        self.n = n
        self.perms = tuple(all_permutations(n))
        images = [p.images for p in self.perms]
        self.pos = tuple(tuple(i * n + j for j, i in enumerate(p)) for p in images)
        self.on_perms = itemgetter(*[j for p in self.pos for j in p])
        self.left = _left_tables(images)
        self.fix = tuple(sum(p[i] == i for i in range(n)) for p in images)
        nperms = len(images)
        size = nperms // 8 + 1  # bytes per field
        self.width = 8 * size
        self.ones = int.from_bytes((b"\1" + bytes(size - 1)) * nperms, "little")
        self.carry = self.ones << nperms
        inv = tuple(row[0] for row in self.left)
        # field_inv[r]: the bytes of a field holding the bit of rank inv[r],
        # which the last inv pass of each conjugation reads in its place
        field = [(1 << (nperms - 1 - r)).to_bytes(size, "little") for r in range(nperms)]
        field_inv = itemgetter(*inv)(field)
        conj = []
        for r in inv:
            times = self.left[r]
            conj.append(itemgetter(*itemgetter(*itemgetter(*times)(inv))(times))(field_inv))
        self.packed = tuple(int.from_bytes(b"".join(col), "little") for col in zip(*conj))


def _left_tables(images) -> tuple:
    """``left[a][b]``, the rank of ``a^-1 b``, for the permutations ``images`` in rank order.

    For an adjacent transposition t, ``(s t)^-1 b = t s^-1 b``, so the
    row of ``s t`` is the row of s mapped through the ranks of the ``t p``,
    one ``itemgetter`` call.  The rows are reached breadth first from the
    identity's, ``range(n!)``.
    """
    n = len(images[0])
    rank = {p: r for r, p in enumerate(images)}
    steps = []
    for k in range(n - 1):
        t = {k: k + 1, k + 1: k}
        steps.append(tuple(rank[tuple(t.get(i, i) for i in p)] for p in images))
    rows = {images[0]: tuple(range(len(images)))}
    queue = [images[0]]
    for s in queue:  # grows as it is read
        for k, step in enumerate(steps):
            st = s[:k] + (s[k + 1], s[k]) + s[k + 2:]
            if st not in rows:
                rows[st] = itemgetter(*rows[s])(step)
                queue.append(st)
    return tuple(rows[s] for s in images)


class _Deadline(Exception):
    """Raised inside the walk when the deadline has passed."""


def _extend(d: int, adj, z, b, n: int):
    """Border the Gram matrix of a support by one permutation: (d', y, z').

    ``d = det G``, ``adj = adj G`` and ``z = adj G 1`` describe the
    support; ``b`` lists the new permutation's agreement counts with it,
    and n its agreement with itself.  ``y = adj b``, and by the Schur
    complement ``d' = n d - b.y`` is the determinant of the bordered
    matrix G', zero exactly when the permutation is linearly dependent on
    the support.  ``z' = adj G' 1``, the integer weights of the
    extension's candidate, is ``((d' z + (t - d) y) / d, d - t)`` with t
    the sum of y; z' is None when d' is zero.
    """
    y = [sum(map(mul, row, b)) for row in adj]
    d2 = n * d - sum(map(mul, b, y))
    if d2 <= 0:
        if d2 < 0:
            raise ArithmeticError("Gram matrix is not positive definite")
        return 0, y, None
    t = sum(y)
    z2 = _exact_div([d2 * zk + (t - d) * yk for zk, yk in zip(z, y)], d)
    z2.append(d - t)
    return d2, y, z2


def _bordered_adjugate(d: int, adj, y, d2: int) -> list:
    """``adj G'`` from ``_extend``'s y and d': ``[[(d' adj + y y^T) / d, -y], [-y^T, d]]``."""
    m = len(y)
    flat = _exact_div([d2 * a + yj * yk for row, yj in zip(adj, y) for a, yk in zip(row, y)], d)
    out = [flat[i * m:i * m + m] + [-yj] for i, yj in enumerate(y)]
    out.append([-yk for yk in y] + [d])
    return out


# erdosbench/spans.py times the walk under this name, from when it ran
# one shard of the tree per call
def run_shard(tables, max_support: int, deadline: float | None = None, progress=None):
    """Walk every support containing the identity; return (stats, accepted, truncated).

    ``tables`` is the dimension's ``_Tables``.  The walk visits {I} first,
    then every least pair {I, g} in increasing rank order, and then each
    pair's subtree in turn: depth first, every independent extension with
    larger ranks and at most ``max_support`` elements that is least in
    its orbit, in increasing rank order.  Visiting the pairs before any
    subtree keeps a budgeted run useful: it has every class of
    two-element support before the first, possibly long, subtree.
    ``progress(done, total)`` is called after each pair's subtree, total
    being the number of least pairs.

    Masks put rank r at bit ``n! - 1 - r``, so of two supports of one size
    the lexicographically smaller sorted tuple has the larger mask.  The
    walk carries one packed int per element s of the support, whose
    field k is the mask of ``t s^-1 S t^-1`` for the conjugation t of
    rank k (see ``_Tables``).  Extending S by g ORs the packed images of
    ``s^-1 g`` into each, and builds the one for s = g from the
    ``g^-1 x``, x in S and x = g.  The extension is least exactly when no
    field exceeds its mask c.  The walk carries ``comp``, the complement
    ``2^n! - 1 - c`` of the node's mask in every field, down the tree; a
    field p then exceeds c exactly when ``p + comp`` sets the field's
    carry bit, so one add and one AND test every field.  Each support in
    the orbit is the image under as many maps as fix the support, the
    fields equal to its mask, where ``p + comp + ones`` carries exactly,
    so the orbit holds ``n! |S| / fixers`` supports.

    ``stats`` is (visited, dependent, negative, maxtr).  visited counts
    the supports in the orbits of the visited nodes, and negative and
    maxtr those among them rejected for a negative weight or for a maximal
    trace above the common value: exactly what a walk over every support
    would count.  dependent counts the dependent extensions tried from
    visited nodes, each least in its orbit; it is not weighted by orbits.
    ``accepted`` lists (support, u, s, anum, weight), the candidate's
    weights being u/s in lowest terms, anum the row-major entries of
    sum u_k P_k, the candidate matrix times s, and weight the size of the
    support's orbit, ``n! |S| / fixers``.  Given a ``deadline`` on the
    ``time.perf_counter`` clock, that clock is read before every tried
    extension, visited or not, {I} counting as the first; once the
    deadline has passed the walk stops with ``truncated`` set, leaving
    the pending extension uncounted.
    """
    n = tables.n
    pos = tables.pos
    left = tables.left
    fix = tables.fix
    packed = tables.packed
    ones = tables.ones
    carry = tables.carry
    on_perms = tables.on_perms
    nperms = len(pos)
    fixed = packed[0]  # the identity's bit, under every conjugation

    support = [0]
    stats = [0, 0, 0, 0]
    accepted = []
    pairs = []

    def tick() -> None:
        if deadline is not None and time.perf_counter() >= deadline:
            raise _Deadline

    def visit(weight: int, u) -> None:
        stats[0] += weight
        if min(u) < 0:
            stats[2] += weight
            return
        g = gcd(*u)
        u = [v // g for v in u]
        s = sum(u)
        anum = [0] * (n * n)
        for uk, r in zip(u, support):
            for j in pos[r]:
                anum[j] += uk
        frob = sum(a * a for a in anum)
        entries = iter(on_perms(anum))
        best = max(map(sum, zip(*[entries] * n)))
        if frob == s * best:
            accepted.append((tuple(support), tuple(u), s, anum, weight))
        else:
            stats[3] += weight

    def least(g: int, comp: int, images):
        """The packed images of the support extended by g, or None if one
        of them exceeds it; ``comp`` is the extension's complement."""
        grown = []
        for s, p in zip(support, images):
            p |= packed[left[s][g]]
            if (p + comp) & carry:
                return None
            grown.append(p)
        left_g = left[g]
        p = fixed
        for x in support:
            p |= packed[left_g[x]]
        if (p + comp) & carry:
            return None
        grown.append(p)
        return grown

    def descend(start: int, comp: int, images, d: int, adj, z, found=None) -> None:
        """Visit the extensions by ranks from ``start`` on; list them in
        ``found`` if given, else walk their subtrees too."""
        for g in range(start, nperms):
            tick()
            comp2 = comp ^ (ones << (nperms - 1 - g))  # the extension's complement
            grown = least(g, comp2, images)
            if grown is None:
                continue
            left_g = left[g]
            d2, y, z2 = _extend(d, adj, z, [fix[left_g[x]] for x in support], n)
            if not d2:
                stats[1] += 1
                continue
            support.append(g)
            exact = comp2 + ones
            fixers = sum(((p + exact) & carry).bit_count() for p in grown)
            visit(nperms * len(support) // fixers, z2)
            if found is not None or len(support) < max_support:
                node = (comp2, grown, d2, _bordered_adjugate(d, adj, y, d2), z2)
                if found is not None:
                    found.append((g, node))
                else:
                    descend(g + 1, *node)
            support.pop()

    try:
        tick()
        visit(1, [1])  # every map fixes {I}
        if max_support > 1:
            # {I}: G = [[n]], so d = n, adj G = [[1]] and z = [1]; its
            # complement is every mask bit but the identity's
            comp = carry - ones - (ones << (nperms - 1))
            descend(1, comp, [fixed], n, [[1]], [1], pairs)
        for done, (g, node) in enumerate(pairs, 1):
            if max_support > 2:
                support.append(g)
                descend(g + 1, *node)
                support.pop()
            if progress is not None:
                progress(done, len(pairs))
        truncated = False
    except _Deadline:
        truncated = True
    finally:
        descend = None  # it calls itself through this name: free the cycle
    return tuple(stats), accepted, truncated
