"""Subshift of finite type: alphabet, allowed length-2 transitions, finite
windows of bi-infinite sequences, periodic points and the shift.

Letters are plain integers in 1..alphabet_size.  Bi-infinite sequences are
never materialized: every consumer works on a finite :class:`Word` window,
or on the cyclic extension of a :class:`PeriodicPoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptySubshift, NotTransitive


@dataclass(frozen=True)
class SubshiftSpec:
    """Alphabet size and the boolean matrix of allowed length-2 words.

    ``allowed[i][j]`` is True iff the word (i+1, j+1) may occur.  Instances
    are built through :func:`validate_spec`, whose one transitive closure
    checks that the transition graph has a cycle (the shift is non-empty)
    and is strongly connected (the shift is transitive).
    """

    alphabet_size: int
    allowed: tuple[tuple[bool, ...], ...]

    @property
    def letters(self) -> range:
        return range(1, self.alphabet_size + 1)


@dataclass(frozen=True)
class Word:
    """A finite window of a sequence: letters placed at consecutive indices
    starting at ``base_index``."""

    letters: tuple[int, ...]
    base_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(map(int, self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def first_index(self) -> int:
        return self.base_index

    @property
    def last_index(self) -> int:
        return self.base_index + len(self.letters) - 1

    def covers(self, index: int) -> bool:
        return self.first_index <= index <= self.last_index

    def letter(self, index: int) -> int:
        """Letter at an absolute sequence index."""
        if not self.covers(index):
            raise IndexError(f"index {index} outside window [{self.first_index}, {self.last_index}]")
        return self.letters[index - self.base_index]

    def window(self, first: int, last: int) -> "Word":
        """Sub-window covering [first, last]."""
        if first > last:
            raise ValueError("empty window requested")
        if not (self.covers(first) and self.covers(last)):
            raise IndexError(f"[{first}, {last}] outside [{self.first_index}, {self.last_index}]")
        lo = first - self.base_index
        return Word(self.letters[lo : lo + (last - first + 1)], first)


@dataclass(frozen=True)
class PeriodicPoint:
    """A primitive admissible cycle in canonical (lexicographically minimal)
    rotation; stands for the bi-infinite periodic sequence repeating it.
    The primitivity check runs before the rotation check, so each rejection
    names its own reason."""

    cycle: Word
    period: int

    def __post_init__(self):
        if self.cycle.base_index != 0:
            object.__setattr__(self, "cycle", Word(self.cycle.letters, 0))
        letters = self.cycle.letters
        n = len(letters)
        if n == 0:
            raise ValueError("empty cycle")
        if min(letters) < 1:
            raise ValueError(f"cycle {letters}: letters must be >= 1")
        if self.period != n:
            raise ValueError(f"period {self.period} != cycle length {n}")
        if not _is_primitive(letters):
            raise ValueError(f"cycle {letters} is a repetition of a shorter cycle")
        if letters != _canonical_rotation(letters):
            raise ValueError(f"cycle {letters} is not in canonical rotation")

    @classmethod
    def _certified(cls, letters: tuple[int, ...]) -> "PeriodicPoint":
        """The point of a tuple of built-in ints already known to be a Lyndon
        word, as :func:`_lyndon_words` yields them: equal and hash-equal to
        ``PeriodicPoint(Word(letters, 0), len(letters))``, but built without
        the int normalization, the base-index check or the primitivity and
        rotation checks."""
        cycle = object.__new__(Word)
        object.__setattr__(cycle, "letters", letters)
        object.__setattr__(cycle, "base_index", 0)
        point = object.__new__(cls)
        object.__setattr__(point, "cycle", cycle)
        object.__setattr__(point, "period", len(letters))
        return point

    @classmethod
    def from_letters(cls, letters: Sequence[int]) -> "PeriodicPoint":
        letters = tuple(map(int, letters))
        return cls(Word(_canonical_rotation(letters), 0), len(letters))

    def letter(self, index: int) -> int:
        return self.cycle.letters[index % self.period]

    def window(self, first: int, last: int) -> Word:
        """Finite window of the bi-infinite periodic extension."""
        if first > last:
            raise ValueError("empty window requested")
        return Word(tuple(self.letter(i) for i in range(first, last + 1)), first)


def _is_primitive(letters: tuple[int, ...]) -> bool:
    n = len(letters)
    for d in range(1, n):
        if n % d == 0 and letters == letters[d:] + letters[:d]:
            return False
    return True


def _canonical_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    return min((letters[r:] + letters[:r] for r in range(len(letters))), default=letters)


def validate_spec(alphabet_size: int, forbidden_pairs: Iterable[tuple[int, int]]) -> SubshiftSpec:
    """Build a spec from the complement of the forbidden length-2 words.

    One Warshall transitive closure on per-letter successor bitsets gives
    every letter's reach in >= 1 steps.  Raises EmptySubshift when no letter
    reaches itself (no directed cycle, so no bi-infinite sequence exists)
    and otherwise NotTransitive when some letter does not reach the whole
    alphabet, which for alphabet_size >= 2 is exactly a transition graph
    that is not strongly connected.
    """
    if alphabet_size < 2:
        raise ValueError("alphabet_size must be at least 2")
    allowed = [[True] * alphabet_size for _ in range(alphabet_size)]
    for pair in forbidden_pairs:
        i, j = pair
        if not (1 <= i <= alphabet_size and 1 <= j <= alphabet_size):
            raise ValueError(f"forbidden pair {pair!r} outside alphabet 1..{alphabet_size}")
        allowed[i - 1][j - 1] = False

    # Warshall: after pass u, reach[v] has bit w iff letter w+1 is reachable
    # from v+1 in >= 1 steps whose intermediate letters all lie in 1..u+1
    reach = [sum(1 << w for w, ok in enumerate(row) if ok) for row in allowed]
    for u in range(alphabet_size):
        for v, r in enumerate(reach):
            if r >> u & 1:
                reach[v] = r | reach[u]
    if not any(r >> v & 1 for v, r in enumerate(reach)):
        raise EmptySubshift("no directed cycle in the transition graph: the subshift is empty")
    if any(r != (1 << alphabet_size) - 1 for r in reach):
        raise NotTransitive("transition graph on the alphabet is not strongly connected")
    return SubshiftSpec(alphabet_size, tuple(tuple(row) for row in allowed))


def _lyndon_words(spec: SubshiftSpec, max_length: int) -> list[tuple[int, ...]]:
    """Every Lyndon word of length <= max_length whose consecutive pairs are
    all allowed, in order of length and lexicographically within a length.
    The wrap-around pair (w[-1], w[0]) is left to the caller.

    An iterative depth-first walk of the prenecklace tree of Fredricksen,
    Kessler and Maiorana (Ruskey, Savage & Wang 1992).  A node is a
    prenecklace w of length t whose longest Lyndon prefix has length p; its
    children append a letter b >= w[t - p], keeping p when b == w[t - p] and
    setting p = t + 1 otherwise, and w is a Lyndon word iff p == t.  Every
    prefix of a prenecklace is one, and every extension of a word with a
    forbidden pair keeps it, so children are appended only along allowed
    pairs: the walk visits just the admissible prenecklaces, whose number
    follows the subshift's entropy rather than alphabet_size ** max_length.
    Children come in increasing order, so nodes are visited in
    lexicographic order and each per-length list fills up already sorted.
    """
    allowed, n = spec.allowed, spec.alphabet_size
    # after[a][m]: the letters b >= m with (a, b) allowed, in increasing order
    after = [None] + [
        [()] + [tuple(b for b in range(m, n + 1) if row[b - 1]) for m in spec.letters] for row in allowed
    ]
    by_length: list[list[tuple[int, ...]]] = [[] for _ in range(max_length + 1)]
    word: list[int] = []
    # frames[t] = (letters still to try at position t, p of word[:t]); there
    # are always len(word) + 1 frames, so the walk needs no recursion
    frames = [(iter(spec.letters), 0)]
    while frames:
        letters, p = frames[-1]
        b = next(letters, 0)
        if not b:
            frames.pop()
            if word:
                word.pop()
            continue
        t = len(word)
        if not t or b != word[t - p]:
            p = t + 1
        word.append(b)
        if p == t + 1:
            by_length[t + 1].append(tuple(word))
        if t + 1 < max_length:
            frames.append((iter(after[b][word[t + 1 - p]]), p))
        else:
            word.pop()
    return [w for words in by_length for w in words]


def enumerate_periodic_points(spec: SubshiftSpec, max_period: int) -> list[PeriodicPoint]:
    """All primitive admissible cycles of length <= max_period, one canonical
    rotation each, sorted by (period, cycle).  The canonical rotation of a
    primitive cycle is its Lyndon word; :func:`_lyndon_words` generates the
    admissible ones in this order along allowed pairs only, so just the
    wrap-around pair is filtered here.  The walk has proved each word
    Lyndon, so its point is built without re-checking
    (:meth:`PeriodicPoint._certified`)."""
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    allowed = spec.allowed
    return [
        PeriodicPoint._certified(w)
        for w in _lyndon_words(spec, max_period)
        if allowed[w[-1] - 1][w[0] - 1]
    ]


def shift(w: Word, steps: int) -> Word:
    """Relabel coordinates so that new index n reads old index n + steps."""
    return Word(w.letters, w.base_index - steps)
