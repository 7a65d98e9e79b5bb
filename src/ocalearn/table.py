"""Observation tables for one-counter active learning.

A table holds a prefix-closed set P of row labels, a suffix-closed set S
of column labels, and read-through caches of membership bits and
counter-values: the first read of a word asks the teacher.  Rows are
labelled by P and its one-letter extensions; the cell at (p, s) carries
the membership of ps together with the action vector of ps, and every
row additionally carries the counter-value of its label.  Closedness and
consistency are checked per counter level d, restricting attention to
rows whose counter-value is at most d.  Repair closes the table in one
sweep over P per column set, promoting unclosed rows as it meets them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import doubled, sgn
from .errors import InvalidInput


@dataclass(frozen=True)
class ActionsVector:
    """Sign of the counter after a word, plus per-letter counter deltas.

    ``deltas[i]`` is the counter change caused by appending the i-th
    alphabet letter.  At sign 0 no delta can be -1 (the counter cannot
    go negative).  Two vectors are *similar* unless they share a sign
    and differ; dissimilar vectors must end up in different states.
    """

    sign: int
    deltas: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (0, 1):
            raise InvalidInput(f"sign must be 0 or 1, got {self.sign!r}")
        if any(d not in (-1, 0, 1) for d in self.deltas):
            raise InvalidInput(f"deltas must be in -1..1, got {self.deltas!r}")
        if self.sign == 0 and any(d < 0 for d in self.deltas):
            raise InvalidInput("decrement delta at counter sign 0")

    def similar(self, other: "ActionsVector") -> bool:
        if len(self.deltas) != len(other.deltas):
            raise InvalidInput("action vectors over different alphabets")
        return self.sign != other.sign or self == other

    def __str__(self):
        body = ",".join(f"{d:+d}" if d else "0" for d in self.deltas)
        return f"({self.sign},{body})"


class ObservationTable:
    """The learner's entire knowledge about the hidden machine.

    ``memb`` and ``cv`` cache the teacher's answers: a word is queried
    at its first read and never again.  All scan orders (P insertion,
    then alphabet, then S insertion) are fixed, which makes a learning
    session deterministic for a given teacher.
    """

    def __init__(self, teacher):
        self.teacher = teacher
        self.alphabet = tuple(teacher.alphabet)
        self.prefixes: dict[str, None] = {"": None}
        self.suffixes: dict[str, None] = {"": None}
        self.memb: dict[str, int] = {}
        self.cv: dict[str, int] = {}
        self._actions_cache: dict[str, ActionsVector] = {}

    # -- structure ---------------------------------------------------

    def boundary(self) -> list[str]:
        """Row labels: P followed by its new one-letter extensions."""
        rows = dict(self.prefixes)
        for p in self.prefixes:
            for a in self.alphabet:
                rows.setdefault(p + a)
        return list(rows)

    def words(self) -> list[str]:
        """All table words (row label + suffix), deduplicated in scan order."""
        out = {}
        for label in self.boundary():
            for s in self.suffixes:
                out[label + s] = None
        return list(out)

    def add_prefix(self, word: str) -> None:
        """Add a word and all its prefixes to P (keeps P prefix-closed)."""
        for i in range(len(word) + 1):
            self.prefixes.setdefault(word[:i])

    def add_suffix(self, word: str) -> None:
        """Add a word and all its suffixes to S (keeps S suffix-closed)."""
        for i in range(len(word), -1, -1):
            self.suffixes.setdefault(word[i:])

    # -- cells (a miss asks the teacher) and derived views -----------

    def membership(self, word: str) -> int:
        try:
            return self.memb[word]
        except KeyError:
            bit = self.memb[word] = int(self.teacher.mq(word))
            return bit

    def counter_value(self, word: str) -> int:
        try:
            return self.cv[word]
        except KeyError:
            value = self.cv[word] = self.teacher.cv(word)
            return value

    def actions(self, word: str) -> ActionsVector:
        cached = self._actions_cache.get(word)
        if cached is None:
            base = self.counter_value(word)
            deltas = tuple(self.counter_value(word + a) - base for a in self.alphabet)
            cached = ActionsVector(sgn(base), deltas)
            self._actions_cache[word] = cached
        return cached

    def enc(self, word: str) -> tuple[str, ...]:
        """Encoded form of a table word, from its prefixes' counter-values."""
        return tuple(doubled(word[i], sgn(self.counter_value(word[:i])))
                     for i in range(len(word)))

    def row(self, label: str):
        return (self.counter_value(label),
                tuple((self.membership(label + s), self.actions(label + s))
                      for s in self.suffixes))

    def distinct_rows_at(self, level: int) -> int:
        """Number of distinct row values with counter-value <= level."""
        return len({self.row(r) for r in self.boundary()
                    if self.counter_value(r) <= level})

    # -- closedness and consistency ------------------------------------

    def find_inconsistent(self, d: int):
        """First witness (p, q, a, s) with cv(p) = cv(q) <= d,
        row(p) = row(q) but row(pa) != row(qa); None when d-consistent.

        The returned suffix s satisfies Memb(pas) != Memb(qas) or
        Actions(pas) != Actions(qas).  Because the empty suffix is always
        a column, equal rows force equal counter-values on extensions, so
        such an s always exists.  Prefixes are grouped by row in P order
        and each is compared with its group's first member only: two
        members that both agree with it agree with each other.
        """
        groups: dict[tuple, list[str]] = {}
        for p in self.prefixes:
            if self.counter_value(p) <= d:
                groups.setdefault(self.row(p), []).append(p)
        for p, *others in groups.values():
            for q in others:
                for a in self.alphabet:
                    for s in self.suffixes:
                        if (self.membership(p + a + s) != self.membership(q + a + s)
                                or self.actions(p + a + s) != self.actions(q + a + s)):
                            return p, q, a, s
        return None

    def repair(self, d: int) -> "ObservationTable":
        """Grow the table until it is d-closed and d-consistent.

        One sweep over P, the prefixes it promotes included, promotes
        every extension pa with cv(pa) <= d whose row matches no row of
        P.  Rows depend only on S and the set of P rows only grows, so
        every pair passed stays closed, and a promoted prefix's
        extensions come last: the sweep promotes what a rescan from the
        start after each promotion would.  An inconsistency witness then
        extends S, which changes every row, and the sweep runs again.
        New cells are queried as the checks read them.  Returns self.
        """
        while True:
            rows = {self.row(p) for p in self.prefixes}
            labels = list(self.prefixes)
            for p in labels:    # grows as rows are promoted
                for a in self.alphabet:
                    w = p + a
                    if self.counter_value(w) <= d and (r := self.row(w)) not in rows:
                        rows.add(r)
                        self.add_prefix(w)
                        labels.append(w)
            witness = self.find_inconsistent(d)
            if witness is None:
                return self
            self.add_suffix(witness[2] + witness[3])
