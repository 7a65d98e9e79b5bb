"""Observation tables for one-counter active learning.

A table holds a prefix-closed set P of row labels, a suffix-closed set S
of column labels, and read-through caches of membership bits and
counter-values: the first read of a word asks the teacher, or, for a
counter-value given a visibly one-counter action map, derives it.  Rows are
labelled by P and its one-letter extensions; the cell at (p, s) carries
the membership of ps together with the action vector of ps, and every
row additionally carries the counter-value of its label.  Closedness and
consistency are checked per counter level d, restricting attention to
rows whose counter-value is at most d.  Repair closes the table in one
sweep over P per column set, promoting unclosed rows as it meets them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .automata import doubled, extend_known, sgn
from .errors import InvalidInput


@dataclass(frozen=True)
class ActionsVector:
    """Sign of the counter after a word, plus per-letter counter deltas.

    ``deltas[i]`` is the counter change caused by appending the i-th
    alphabet letter, never -1 at sign 0.  Two differing vectors of one
    sign are *dissimilar*: they must end up in different states.
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

    def __str__(self):
        body = ",".join(f"{d:+d}" if d else "0" for d in self.deltas)
        return f"({self.sign},{body})"


class ObservationTable:
    """The learner's entire knowledge about the hidden machine.

    ``memb`` and ``cv`` cache the teacher's answers: a word is queried
    at its first read and never again.  Given the public (letter, sign)
    -> action map of a visibly one-counter target, the table asks no
    counter-values: it derives each, as it does each encoding, with
    :func:`extend_known`, from the longest cached prefix a letter at a
    time.  Every other per-word fact is worked out once too: a word's
    action vector, its cell (membership and vector, interned to a small
    int) and a label's row, extended by one cell per suffix as S grows.
    Each read looks in its cache first, and ``row`` and ``actions`` peek
    at the cell and counter-value caches before a call.  A letter
    outside the alphabet raises :class:`InvalidInput` in both modes.
    All scan orders (P insertion, then alphabet, then S insertion) are
    fixed, which makes a learning session deterministic for a given
    teacher.
    """

    def __init__(self, teacher, action_map: dict[tuple[str, int], int] | None = None):
        self.teacher = teacher
        self.action_map = action_map
        self.alphabet = tuple(teacher.alphabet)
        self.prefixes: dict[str, None] = {"": None}
        self.suffixes: dict[str, None] = {"": None}
        self.memb: dict[str, int] = {}
        self.cv: dict[str, int] = {} if action_map is None else {"": 0}
        self._vectors: dict[tuple, ActionsVector] = {}     # (sign, deltas) -> vector
        self._vector_of: dict[str, ActionsVector] = {}
        self._cell_ids: dict[tuple[int, ActionsVector], int] = {}
        self._cell_of: dict[str, int] = {}
        self._rows: dict[str, tuple[int, tuple[int, ...]]] = {}
        self._codes: dict[str, tuple[str, ...]] = {"": ()}
        self._symbols = {a: (doubled(a, 0), doubled(a, 1)) for a in self.alphabet}

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
        bit = self.memb.get(word)
        if bit is None:
            bit = self.memb[word] = int(self.teacher.mq(word))
        return bit

    def counter_value(self, word: str) -> int:
        value = self.cv.get(word)
        if value is None:
            if self.action_map is None:
                value = self.cv[word] = self.teacher.cv(word)
            else:
                value = extend_known(self.cv, word, self._derive_cv)
        return value

    def _derive_cv(self, value: int, word: str, j: int) -> int:
        try:
            return value + self.action_map[(word[j], sgn(value))]
        except KeyError:
            raise InvalidInput(f"letter {word[j]!r} not in alphabet") from None

    def actions(self, word: str) -> ActionsVector:
        vector = self._vector_of.get(word)
        if vector is None:
            cv, deltas = self.cv, []
            base = cv.get(word)
            if base is None:
                base = self.counter_value(word)
            for a in self.alphabet:
                value = cv.get(word + a)
                deltas.append((self.counter_value(word + a) if value is None else value) - base)
            key = (sgn(base), tuple(deltas))
            vector = self._vectors.get(key)
            if vector is None:
                vector = self._vectors[key] = ActionsVector(*key)
            self._vector_of[word] = vector
        return vector

    def _cell(self, word: str) -> int:
        """The id of the word's (membership, action vector) pair: two
        words have one id exactly when they agree on both."""
        cell = self._cell_of.get(word)
        if cell is None:
            key = (self.membership(word), self.actions(word))
            cell = self._cell_of[word] = self._cell_ids.setdefault(key, len(self._cell_ids))
        return cell

    def enc(self, word: str) -> tuple[str, ...]:
        """Encoded form of a table word, from its prefixes' counter-values:
        the encoding of its longest encoded prefix, extended a letter at
        a time."""
        return extend_known(self._codes, word, self._encode_step)

    def _encode_step(self, code: tuple[str, ...], word: str, j: int) -> tuple[str, ...]:
        try:
            return code + (self._symbols[word[j]][sgn(self.counter_value(word[:j]))],)
        except KeyError:
            raise InvalidInput(f"letter {word[j]!r} not in alphabet") from None

    def row(self, label: str) -> tuple[int, tuple[int, ...]]:
        """The label's counter-value and the cells of label + s, s in S."""
        row = self._rows.get(label)
        if row is None:
            value = self.cv.get(label)
            row = (self.counter_value(label) if value is None else value, ())
        value, cells = row
        if len(cells) < len(self.suffixes):     # S only grows, in insertion order
            cell_of, new = self._cell_of, []
            for s in islice(self.suffixes, len(cells), None):
                cell = cell_of.get(label + s)
                new.append(self._cell(label + s) if cell is None else cell)
            row = self._rows[label] = (value, cells + tuple(new))
        return row

    # -- closedness and consistency ------------------------------------

    def find_inconsistent(self, d: int):
        """First witness (p, q, a, s) with cv(p) = cv(q) <= d,
        row(p) = row(q) but row(pa) != row(qa); None when d-consistent.

        The returned suffix s satisfies Memb(pas) != Memb(qas) or
        Actions(pas) != Actions(qas): the first column whose cells
        differ.  Because the empty suffix is always a column, equal rows
        force equal counter-values on extensions, so such an s always
        exists.  Prefixes are grouped by row in P order and each is
        compared with its group's first member only: two members that
        both agree with it agree with each other.
        """
        groups: dict[tuple, list[str]] = {}
        for p in self.prefixes:
            if self.counter_value(p) <= d:
                groups.setdefault(self.row(p), []).append(p)
        for p, *others in groups.values():
            for q in others:
                for a in self.alphabet:
                    mine, theirs = self.row(p + a)[1], self.row(q + a)[1]
                    if mine != theirs:
                        s = next(s for s, x, y in zip(self.suffixes, mine, theirs) if x != y)
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
        extends S, which adds a column to every row, and the sweep runs
        again.  New cells are queried as the checks read them.  Returns
        self.
        """
        while True:
            seen = {self.row(p) for p in self.prefixes}
            labels = list(self.prefixes)
            for p in labels:    # grows as rows are promoted
                for a in self.alphabet:
                    w = p + a
                    if self.counter_value(w) <= d and (r := self.row(w)) not in seen:
                        seen.add(r)
                        self.add_prefix(w)
                        labels.append(w)
            witness = self.find_inconsistent(d)
            if witness is None:
                return self
            self.add_suffix(witness[2] + witness[3])
