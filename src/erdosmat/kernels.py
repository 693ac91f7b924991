"""The enumeration walk: one exact, orderly depth-first search over Python ints.

The walk visits the linearly independent supports that contain the
identity, extending by permutations of increasing rank.  One fraction-free
(Bareiss) elimination of the Gram system ``[G | 1]``, grown by one row
and column per added permutation, does all the linear algebra: its new
pivot is the Gram determinant of the extended support, which is zero
exactly when the extension is linearly dependent, and its back
substitution gives the candidate weights.  Each candidate is then checked
for nonnegativity and for the Erdos property in integers.

The walk is orderly under conjugation (Read, Ann. Discrete Math. 2,
1978).  Conjugation ``P -> s P s^-1`` fixes the identity and maps the
candidate A of a support to the equivalent ``s A s^-1``, so a support is
walked only if its sorted ranks are lexicographically least among its
conjugates.  Being least is inherited by a support minus its largest
element, so a support that is not least is dropped with its whole
subtree.  The same comparison counts the conjugations that fix the
support, and each visited support stands for its orbit of
``n! / |stabiliser|`` supports in every source count and in every counter
but the dependent one.

All arithmetic is on Python ints, which cannot overflow.  The exact
division and the back substitution are those of ``linalg``'s solves
(``_exact_div``, ``_back_substitute``); only the symmetric push and pop
that grow and shrink the elimination are the walk's own.  Bareiss
divisions are exact in theory; each one is checked, and a remainder
raises ``ArithmeticError`` instead of being rounded away.  A budgeted
walk reads the clock before every try; a read costs a small part of one.
"""

from __future__ import annotations

import time
from math import gcd
from operator import or_

from .linalg import _back_substitute, _exact_div


class _Deadline(Exception):
    """Raised inside the walk when the deadline has passed."""


class _GramElimination:
    """Bareiss elimination of ``[G | 1]``, grown by one support element at a time.

    G is the Gram matrix of the flattened permutation matrices of the
    support: ``G[i][j]`` is the agreement count of elements i and j.  Row k
    of the elimination holds ``a_kj``, the minor of G on rows 0..k and
    columns 0..k-1, j (Sylvester's identity).  That minor involves no later
    row, so appending an element leaves rows 0..k-1 unchanged apart from
    their entry in the new column; G being symmetric, that entry
    ``a_k,new`` equals ``a_new,k``, the value the new row holds in column k
    just before step k eliminates it.  A push therefore costs O(m^2), not
    the O(m^3) of a fresh elimination.

    The pivots ``a_kk`` are the leading principal minors of G.  A Gram
    matrix is positive semidefinite, and its determinant vanishes exactly
    when the vectors are linearly dependent, so a new pivot of zero marks
    a dependent extension.
    """

    def __init__(self):
        self.piv = []  # a_kk
        self.upper = []  # a_kj for the later columns j, then the right-hand side

    def push(self, gram_row) -> bool:
        """Append an element, given its agreements with the support and itself.

        Returns False, and leaves the elimination as it was, when the
        element is linearly dependent on the support.
        """
        row = list(gram_row)
        row.append(1)
        prev = 1
        for k, (pk, uk) in enumerate(zip(self.piv, self.upper)):
            c = row[k]
            uk.insert(-1, c)
            row[k + 1:] = _exact_div([pk * x - c * y for x, y in zip(row[k + 1:], uk)], prev)
            prev = pk
        m = len(self.piv)
        if row[m] <= 0:
            for uk in self.upper:
                del uk[-2]
            if row[m] < 0:
                raise ArithmeticError("Gram matrix is not positive semidefinite")
            return False
        self.piv.append(row[m])
        self.upper.append([row[m + 1]])
        return True

    def pop(self) -> None:
        """Remove the last element pushed."""
        self.piv.pop()
        self.upper.pop()
        for uk in self.upper:
            del uk[-2]

    def weights(self) -> tuple:
        """(det(G), u) with ``u = det(G) G^-1 1``, by ``linalg._back_substitute``.

        u is integral by Cramer's rule; each division is checked to be exact.
        """
        return _back_substitute(self.piv, self.upper)


# erdosbench/spans.py times the walk under this name, from when it ran
# one shard of the tree per call
def run_shard(tables, max_support: int, deadline: float | None = None, progress=None):
    """Walk every support containing the identity; return (stats, accepted, truncated).

    ``tables`` supplies, indexed by permutation rank, ``pos`` (the flat
    positions of each permutation matrix's ones), ``agree`` (pairwise
    agreement counts), ``bit`` and ``conj_bits`` (a rank's bit in a
    support's mask, and the bits of its images under the n! - 1
    nontrivial conjugations), and ``on_perms``, which reads a flat
    matrix's entries on every permutation in turn.  The walk visits {I}
    first, then every least pair {I, g} in increasing rank order, and
    then each pair's subtree in turn: depth first, every independent
    extension with larger ranks and at most ``max_support`` elements that
    is least in its orbit, in increasing rank order.  Visiting the pairs
    before any subtree keeps a budgeted run useful: it has every class of
    two-element support before the first, possibly long, subtree.
    ``progress(done, total)`` is called after each pair's subtree, total
    being the number of least pairs.

    Masks put rank r at bit ``n! - 1 - r``, so of two supports of one size
    the lexicographically smaller sorted tuple has the larger mask.  The
    walk carries one image mask per conjugation; an extension by x ORs the
    bit of x's image into each and is least exactly when no image mask
    exceeds its own, and the image masks equal to its own count its
    stabiliser.

    ``stats`` is (visited, dependent, negative, maxtr).  visited counts
    the supports in the orbits of the visited nodes, and negative and
    maxtr those among them rejected for a negative weight or for a maximal
    trace above the common value: exactly what a walk over every support
    would count.  dependent counts the dependent extensions tried from
    visited nodes, each least in its orbit; it is not weighted by orbits.
    ``accepted`` lists (support, u, s, anum, weight), the candidate's
    weights being u/s in lowest terms, anum the row-major entries of
    sum u_k P_k, the candidate matrix times s, and weight the size of the
    support's orbit.  Given a ``deadline``, the clock (``time.time``) is
    read before every tried extension, visited or not, {I} counting as
    the first; once the deadline has passed the walk stops with
    ``truncated`` set, leaving the pending extension uncounted.
    """
    pos = tables.pos
    agree = tables.agree
    bit = tables.bit
    conj_bits = tables.conj_bits
    nperms = len(pos)
    n = len(pos[0])
    on_perms = tables.on_perms

    elim = _GramElimination()
    elim.push([n])
    support = [0]
    stats = [0, 0, 0, 0]
    accepted = []
    pairs = []

    def tick() -> None:
        if deadline is not None and time.time() >= deadline:
            raise _Deadline

    def visit(weight: int) -> None:
        stats[0] += weight
        _, u = elim.weights()
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

    def descend(start: int, mask: int, images, found=None) -> None:
        """Visit the extensions by ranks from ``start`` on; list them in
        ``found`` if given, else walk their subtrees too."""
        for g in range(start, nperms):
            tick()
            child = mask | bit[g]
            grown = list(map(or_, images, conj_bits[g]))
            if max(grown) > child:
                continue
            row_g = agree[g]
            if not elim.push([row_g[b] for b in support] + [n]):
                stats[1] += 1
                continue
            support.append(g)
            visit(nperms // (1 + grown.count(child)))
            if found is not None:
                found.append((g, child, grown))
            elif len(support) < max_support:
                descend(g + 1, child, grown)
            support.pop()
            elim.pop()

    try:
        tick()
        visit(1)  # every conjugation fixes {I}
        if max_support > 1:
            descend(1, bit[0], conj_bits[0], pairs)
        for done, (g, mask, images) in enumerate(pairs, 1):
            if max_support > 2:
                elim.push([agree[g][0], n])
                support.append(g)
                descend(g + 1, mask, images)
                support.pop()
                elim.pop()
            if progress is not None:
                progress(done, len(pairs))
        truncated = False
    except _Deadline:
        truncated = True
    finally:
        descend = None  # it calls itself through this name: free the cycle
    return tuple(stats), accepted, truncated
