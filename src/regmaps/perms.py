"""Dense permutation algebra, group closure and Schreier orders.

Everything works on explicit image arrays.  A group whose elements are
needed, as for a coset graph, is realized as the full set of them: the
map groups this package deals in have order a few thousand at most, so
plain breadth-first closure with a hash set keeps membership, subgroup
index and element orders exact, cheap and deterministic.  A group whose
order is all that is wanted is decided by Schreier's lemma, in one walk,
``schreier_walk``, which tests Schreier generators on a base only.  With
the whole domain as the base it is ``orbit_stabilizer``, which lists
only the stabilizer and settles the validation, invariants and
orientability (the index of the rotation subgroup <R, L>) of a parsed or
constructed map; with the base vertex's neighbours as the base it
decides the census's candidates and records (``wreath``).

The closure kernel keeps its elements as rows of one growing int64
matrix; each breadth-first level multiplies the previous level's rows
by a generator in one block, and copies in only the rows it has not
seen.

Composition convention: ``p * q`` applies ``p`` first and ``q`` second,
so exponent notation composes the usual way, x^(pq) = (x^p)^q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CapExceeded",
    "GroupClosure",
    "Perm",
    "closure",
    "compose",
    "contains",
    "element_order",
    "evaluate_word",
    "identity",
    "inverse",
    "is_involution",
    "orbit_stabilizer",
    "perm_from_text",
    "perm_to_text",
    "power",
    "schreier_walk",
    "subgroup_index",
]

MAX_DEGREE = 1 << 16


class CapExceeded(Exception):
    """A closure grew past its element cap.

    This is normal control flow, not a failure: the census search uses a
    cap equal to the target group order and discards any candidate whose
    closure would overflow it.
    """

    def __init__(self, cap: int):
        super().__init__(f"group closure exceeded cap {cap}")
        self.cap = cap


class Perm:
    """A permutation of {0, ..., degree-1} stored as a dense image array."""

    __slots__ = ("images", "key")

    def __init__(self, images):
        arr = np.asarray(images)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("images must be a nonempty flat sequence")
        # a cast would truncate floats and turn bools and digit strings into ints
        if arr.dtype.kind not in "iu":
            raise ValueError(f"images must be integers, got {arr.dtype} values")
        arr = arr.astype(np.int64)
        n = int(arr.size)
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} exceeds the supported bound {MAX_DEGREE}")
        if arr.min() < 0 or arr.max() >= n or np.bincount(arr, minlength=n).max() != 1:
            raise ValueError("images is not a permutation of 0..degree-1")
        arr.setflags(write=False)
        self.images = arr
        self.key = arr.tobytes()

    @property
    def degree(self) -> int:
        return int(self.images.size)

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def __mul__(self, other: "Perm") -> "Perm":
        return compose(self, other)

    def __pow__(self, k: int) -> "Perm":
        return power(self, k)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __lt__(self, other: "Perm") -> bool:
        # lexicographic on image sequences; the canonical element order
        if self.degree != other.degree:
            return self.degree < other.degree
        return self.images.tolist() < other.images.tolist()

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(self.degree)))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its least point."""
        imgs = self.images
        seen = np.zeros(self.degree, dtype=bool)
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = int(imgs[start])
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = int(imgs[nxt])
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Perm(id, degree={self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Perm({body}, degree={self.degree})"


def _trusted(images: np.ndarray) -> Perm:
    """A Perm over an int64 image array that is a permutation by
    construction (a product, inverse or closure row of checked Perms),
    skipping the constructor's checks.  The array is frozen, not copied."""
    p = Perm.__new__(Perm)
    images.setflags(write=False)
    p.images = images
    p.key = images.tobytes()
    return p


def identity(degree: int) -> Perm:
    return Perm(np.arange(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """Product p*q under the apply-p-first convention: images[i] = q[p[i]]."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return _trusted(q.images[p.images])


def inverse(p: Perm) -> Perm:
    inv = np.empty(p.degree, dtype=np.int64)
    inv[p.images] = np.arange(p.degree)
    return _trusted(inv)


def power(p: Perm, k: int) -> Perm:
    if k < 0:
        return power(inverse(p), -k)
    acc = np.arange(p.degree, dtype=np.int64)
    base = p.images
    while k:
        if k & 1:
            acc = base[acc]
        base = base[base]
        k >>= 1
    return _trusted(acc)


def element_order(p: Perm) -> int:
    """Least k >= 1 with p^k = id; the lcm of the cycle lengths."""
    imgs = p.images
    seen = np.zeros(p.degree, dtype=bool)
    order = 1
    for start in range(p.degree):
        if seen[start]:
            continue
        length = 1
        seen[start] = True
        nxt = int(imgs[start])
        while nxt != start:
            seen[nxt] = True
            length += 1
            nxt = int(imgs[nxt])
        order = math.lcm(order, length)
    return order


def is_involution(p: Perm) -> bool:
    """True iff p != id and p^2 = id."""
    imgs = p.images
    idx = np.arange(p.degree)
    return bool(np.array_equal(imgs[imgs], idx) and not np.array_equal(imgs, idx))


@dataclass(frozen=True, eq=False)
class GroupClosure:
    """The full element set of a finitely generated permutation group.

    ``elements`` is sorted lexicographically by image sequence, so the
    ordering (and anything serialized from it) is reproducible; the
    identity always sits at index 0.
    """

    elements: tuple[Perm, ...]
    order: int
    generators: tuple[Perm, ...]
    _keys: frozenset = field(repr=False)

    @property
    def degree(self) -> int:
        return self.elements[0].degree

    def __contains__(self, p: Perm) -> bool:
        return isinstance(p, Perm) and p.key in self._keys

    def __iter__(self):
        return iter(self.elements)


def _closure_raw(gen_arrays: Sequence[np.ndarray], degree: int, cap: int):
    """Breadth-first closure over right multiplication by the generators.

    Returns (matrix, keyset) with one element per matrix row, in discovery
    order.  Raises CapExceeded as soon as the element count would pass
    ``cap``.  The rows live in one growing matrix, each level's products
    are one block whose keys are slices of a single byte string, and only
    the rows not seen before are copied into the matrix.
    """
    # rows[:count] holds every element found so far, and rows[lo:hi] the
    # previous BFS level; capacity grows by doubling, never past cap
    rows = np.empty((min(cap, 64), degree), dtype=np.int64)
    rows[0] = np.arange(degree)
    seen = {rows[0].tobytes()}
    width = 8 * degree
    lo, hi = 0, 1
    count = 1
    while lo < hi:
        for g in gen_arrays:
            block = g[rows[lo:hi]]
            buf = block.tobytes()
            fresh = []
            for i in range(0, len(buf), width):
                key = buf[i : i + width]
                if key in seen:
                    continue
                if len(seen) >= cap:
                    raise CapExceeded(cap)
                seen.add(key)
                fresh.append(i // width)
            if not fresh:
                continue
            end = count + len(fresh)
            if end > rows.shape[0]:
                grown = np.empty((min(cap, max(end, 2 * rows.shape[0])), degree), dtype=np.int64)
                grown[:count] = rows[:count]
                rows = grown
            rows[count:end] = block[fresh]
            count = end
        lo, hi = hi, count
    return rows[:count], seen


def _lex_sorted(matrix: np.ndarray) -> np.ndarray:
    # np.lexsort's last key is primary, so feed the columns reversed
    return matrix[np.lexsort(matrix[:, ::-1].T)]


def _checked_generators(generators: Iterable[Perm], cap: int) -> tuple[Perm, ...]:
    gens = tuple(generators)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not gens:
        raise ValueError("at least one generator is required")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators must share a degree")
    return gens


def closure(generators: Iterable[Perm], cap: int) -> GroupClosure:
    """Group generated by ``generators``, failing fast past ``cap`` elements."""
    gens = _checked_generators(generators, cap)
    degree = gens[0].degree
    matrix, seen = _closure_raw([g.images for g in gens], degree, cap)
    elements = tuple(_trusted(row) for row in _lex_sorted(matrix))
    return GroupClosure(elements, len(elements), gens, frozenset(seen))


def schreier_walk(
    images: Sequence[Sequence[int]], point: int, base: Sequence[int], members
) -> int | tuple[int, ...]:
    """Schreier's lemma on a base: the orbit length of ``point`` under the
    group generated by the given image lists, or the first Schreier
    generator of its stabilizer outside ``members``.

    ``base`` is a point set that the stabilizer of ``point`` maps onto
    itself and acts on faithfully, such as the whole domain.  A
    stabilizer element is known by its position tuple over ``base``, whose
    j-th entry is the position of the image of base[j]; ``members`` and a
    returned generator are such tuples.  Each visited point v keeps only
    its frame F_v = t_v[base], where t_v takes ``point`` to v: a tree edge
    v -> w = v^g sets F_w = g[F_v], and on any other edge the Schreier
    generator t_v * g * t_w^-1 sends base[j] to the position of g[F_v][j]
    in F_w.  When ``members`` is a subgroup of the stabilizer, the walk
    completes exactly when it is the whole of it.
    """
    k = len(base)
    frames = {point: tuple(base)}
    places: dict[int, dict[int, int]] = {}
    orbit = [point]
    for v in orbit:
        frame = frames[v]
        # itemgetter of one index returns a bare value, not a 1-tuple
        pick = itemgetter(*frame) if k > 1 else (lambda g, x=frame[0]: (g[x],))
        for g in images:
            moved = pick(g)
            w = g[v]
            if w not in frames:
                frames[w] = moved
                orbit.append(w)
                continue
            place = places.get(w)
            if place is None:
                place = places[w] = dict(zip(frames[w], range(k)))
            schreier = tuple(map(place.__getitem__, moved))
            if schreier not in members:
                return schreier
    return len(orbit)


def orbit_stabilizer(
    generators: Iterable[Perm], point: int, cap: int
) -> tuple[int, int]:
    """(orbit length of ``point``, order of its stabilizer) in the group
    generated by ``generators``, whose order is their product.

    The stabilizer starts as the closure of the generators that fix
    ``point``; ``schreier_walk`` over the whole domain either completes,
    or returns a Schreier generator outside it, which is added before the
    stabilizer is closed and walked again.  Only the stabilizer is ever
    listed.  Raises CapExceeded as soon as the group order must pass
    ``cap``, exactly when ``closure(generators, cap)`` would: the
    stabilizer may hold at most cap // |orbit| elements, and a proper
    overgroup of the one found so far has at least twice its order.
    """
    gens = _checked_generators(generators, cap)
    degree = gens[0].degree
    if not 0 <= point < degree:
        raise ValueError(f"point {point} is outside 0..{degree - 1}")

    lists = [g.images.tolist() for g in gens]
    # the orbit first: its length bounds the stabilizer by cap // |orbit|
    seen = {point}
    orbit = [point]
    for v in orbit:
        for g in lists:
            if g[v] not in seen:
                if len(orbit) == cap:
                    raise CapExceeded(cap)
                seen.add(g[v])
                orbit.append(g[v])
    stab_cap = cap // len(orbit)

    stab_gens = [g.images for g in gens if g(point) == point]
    while True:
        try:
            matrix = _closure_raw(stab_gens, degree, stab_cap)[0]
        except CapExceeded:
            raise CapExceeded(cap) from None
        members = set(map(tuple, matrix.tolist()))
        schreier = schreier_walk(lists, point, range(degree), members)
        if not isinstance(schreier, tuple):
            return len(orbit), len(members)
        if 2 * len(members) > stab_cap:
            raise CapExceeded(cap)
        stab_gens.append(np.array(schreier, dtype=np.int64))


def contains(group: GroupClosure, p: Perm) -> bool:
    if p.degree != group.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {group.degree}")
    return p in group


def subgroup_index(group: GroupClosure, h_generators: Iterable[Perm]) -> int:
    """Index |G| / |<h_generators>|; the generators must lie in G."""
    h_gens = tuple(h_generators)
    for g in h_gens:
        if not contains(group, g):
            raise ValueError(f"subgroup generator {g!r} is not a member of the group")
    sub = closure(h_gens, cap=group.order)
    quot, rem = divmod(group.order, sub.order)
    if rem:
        raise AssertionError("Lagrange violated; closure is inconsistent")
    return quot


def evaluate_word(l: Perm, r: Perm, exponents: Sequence[int]) -> Perm:
    """The product l * r^m1 * l * r^m2 * ... * l * r^mk."""
    if l.degree != r.degree:
        raise ValueError(f"degree mismatch: {l.degree} != {r.degree}")
    acc = identity(l.degree)
    pow_cache: dict[int, Perm] = {}
    for m in exponents:
        if m not in pow_cache:
            pow_cache[m] = power(r, m)
        acc = acc * l * pow_cache[m]
    return acc


def perm_to_text(p: Perm) -> str:
    """Space-separated 0-based image list, e.g. ``1 0 2 3`` for (0 1)."""
    return " ".join(str(int(i)) for i in p.images)


def perm_from_text(text: str) -> Perm:
    return Perm([int(tok) for tok in text.split()])
