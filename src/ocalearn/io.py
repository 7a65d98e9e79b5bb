"""JSON (de)serialization of automata.

Format::

    {"type": "droca" | "voca",
     "alphabet": ["a", "b"],
     "states": ["q0", ...],
     "initial": "q0",
     "finals": ["q2"],
     "delta0": {"q0,a": ["q0", 1], ...},
     "delta1": {"q0,b": ["q1", -1], ...}}

Keys of the delta maps are ``"state,letter"``; values are
``[target, action]``.  Both maps must be total; ``delta0`` actions are in
{0, 1} and ``delta1`` actions in {-1, 0, 1}.
"""

from __future__ import annotations

import json

from .automata import Droca, validate
from .errors import InvalidInput, ParseError

_FIELDS = ("type", "alphabet", "states", "initial", "finals", "delta0", "delta1")


def store(automaton: Droca) -> str:
    """Serialize in canonical form: fixed key order, transitions sorted
    by state order then letter order."""
    def delta_obj(delta):
        return {f"{q},{a}": list(delta[q, a]) for q in automaton.states for a in automaton.alphabet}

    obj = {
        "type": "voca" if automaton.is_voca() else "droca",
        "alphabet": list(automaton.alphabet),
        "states": list(automaton.states),
        "initial": automaton.initial,
        "finals": [q for q in automaton.states if q in automaton.finals],
        "delta0": delta_obj(automaton.delta0),
        "delta1": delta_obj(automaton.delta1),
    }
    return json.dumps(obj, indent=2) + "\n"


def load(text: str, complete_with_sink: bool = False) -> Droca:
    """Parse an automaton, rejecting anything that violates the schema.

    With ``complete_with_sink`` missing transitions are directed to a
    fresh non-final sink state instead of being rejected.
    """
    try:
        obj = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:     # syntax, nesting depth, int digits
        raise ParseError("json", f"not readable JSON: {exc}") from None
    if isinstance(obj, tuple):
        raise ParseError(obj[0], f"key {obj[1]!r} repeated" if obj[1:] else "repeated field")
    if not isinstance(obj, dict):
        raise ParseError("json", "top-level value must be an object")
    for field in _FIELDS:
        if field not in obj:
            raise ParseError(field, "missing")
    for extra in set(obj) - set(_FIELDS):
        raise ParseError(extra, "unknown field")
    if obj["type"] not in ("droca", "voca"):
        raise ParseError("type", f"expected 'droca' or 'voca', got {obj['type']!r}")
    for field in ("alphabet", "states", "finals"):
        if (not isinstance(obj[field], list)
                or not all(isinstance(x, str) for x in obj[field])):
            raise ParseError(field, "must be a list of strings")
    if not isinstance(obj["initial"], str):
        raise ParseError("initial", "must be a string")

    states = list(obj["states"])
    letters = list(obj["alphabet"])
    delta0 = _parse_delta("delta0", obj["delta0"])
    delta1 = _parse_delta("delta1", obj["delta1"])

    if complete_with_sink:
        missing = [(delta, (q, a)) for delta in (delta0, delta1)
                   for q in states for a in letters if (q, a) not in delta]
        if missing:
            sink = "sink"
            while sink in states:
                sink += "_"
            states.append(sink)
            for delta, pair in missing:
                delta[pair] = (sink, 0)
            for a in letters:
                delta0[(sink, a)] = delta1[(sink, a)] = (sink, 0)

    automaton = Droca(states=states, alphabet=letters, initial=obj["initial"],
                      delta0=delta0, delta1=delta1, finals=obj["finals"])
    try:
        automaton.indexed_tables()      # validates a clean machine once, for good
    except InvalidInput:
        raise ParseError("automaton", "; ".join(validate(automaton))) from None
    if obj["type"] == "voca" and not automaton.is_voca():
        raise ParseError("type", "declared 'voca' but counter-actions depend on the state")
    return automaton


def load_file(path, complete_with_sink: bool = False) -> Droca:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError("encoding", f"not UTF-8 text: {exc}") from None
    return load(text, complete_with_sink=complete_with_sink)


def store_file(automaton: Droca, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(store(automaton))


def _object(pairs):
    """The object hook of :func:`load`, marking a repeated key with a
    tuple, which JSON cannot write: an object that repeats ``key``
    becomes ``(key,)``, and one that holds a mark under ``field`` becomes
    ``(field, key)``, so ``load`` names the top-level field."""
    for field, value in pairs:
        if isinstance(value, tuple):
            return field, value[-1]
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    keys = [key for key, _ in pairs]
    return next(key for key in keys if keys.count(key) > 1),


def _parse_delta(name, raw):
    """The shape checks of one delta map; :func:`validate` checks the
    states, letters and actions it names."""
    if not isinstance(raw, dict):
        raise ParseError(name, "must be an object")
    delta = {}
    for key, value in raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ParseError(name, f"key {key!r} is not 'state,letter'")
        if (not isinstance(value, list) or len(value) != 2
                or not isinstance(value[0], str)
                or not isinstance(value[1], int) or isinstance(value[1], bool)):
            raise ParseError(name, f"value for {key!r} must be [target, action]")
        delta[tuple(parts)] = tuple(value)
    return delta
