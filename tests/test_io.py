import json

import pytest

from ocalearn import ParseError, check_sync_equiv, load, load_file, store, validate
from conftest import random_machine


def test_roundtrip_golden(anbna):
    assert load(store(anbna)) == anbna


def test_store_of_load_is_identity(anbna):
    text = store(anbna)
    assert store(load(text)) == text


def test_roundtrip_random_machines():
    for seed in range(100):
        machine = random_machine(seed, max_states=6, alphabet_size=3)
        again = load(store(machine))
        assert again == machine
        assert validate(again) == []


def test_store_declares_voca_type():
    from conftest import random_voca
    voca = random_voca(3)
    assert json.loads(store(voca))["type"] == "voca"
    assert load(store(voca)) == voca


def test_load_validates_a_clean_machine_once(anbna, monkeypatch):
    # a declared voca machine is validated once, by its table build, and
    # what follows reads its tables; a malformed machine still gets every
    # violation in its ParseError
    from conftest import random_voca
    counted = []

    def validate_counted(machine):
        counted.append(machine)
        return validate(machine)

    monkeypatch.setattr("ocalearn.automata.validate", validate_counted)
    monkeypatch.setattr("ocalearn.io.validate", validate_counted)
    for machine in (random_voca(3), anbna):
        text = store(machine)
        counted.clear()
        loaded = load(text)
        assert counted == [loaded]
        assert store(loaded) == text and check_sync_equiv(loaded, machine).equivalent
        assert counted == [loaded]
    obj = json.loads(store(anbna))
    obj["delta1"]["q0,a"] = ["q9", 2]
    obj["finals"] = ["q2", "zz"]
    with pytest.raises(ParseError) as err:
        load(json.dumps(obj))
    assert err.value.field == "automaton"
    for message in ("final state 'zz' is not a state", "delta1[q0,a] targets unknown state 'q9'",
                    "delta1[q0,a] has invalid action 2"):
        assert message in str(err.value)


def test_load_rejects_unknown_letter_in_delta_key(anbna):
    obj = json.loads(store(anbna))
    obj["delta0"]["q0,z"] = ["q0", 1]
    with pytest.raises(ParseError) as err:
        load(json.dumps(obj))
    assert "delta0" in str(err.value)


def test_load_rejects_incomplete_table(anbna):
    obj = json.loads(store(anbna))
    del obj["delta1"]["q1,b"]
    with pytest.raises(ParseError):
        load(json.dumps(obj))


def test_complete_with_sink(anbna):
    obj = json.loads(store(anbna))
    del obj["delta1"]["q1,b"]
    completed = load(json.dumps(obj), complete_with_sink=True)
    assert validate(completed) == []
    assert "sink" in completed.states
    assert completed.delta1[("q1", "b")] == ("sink", 0)
    assert "sink" not in completed.finals


def test_load_rejects_bad_action(anbna):
    obj = json.loads(store(anbna))
    obj["delta0"]["q0,a"] = ["q0", -1]
    with pytest.raises(ParseError) as err:
        load(json.dumps(obj))
    assert "delta0" in str(err.value)


def test_load_rejects_unknown_target_and_invalid_action(anbna):
    # the shape is right, so the semantic check of the whole machine
    # names them, under the field of the map they sit in
    for delta, value, message in (("delta1", ["q9", 1], "targets unknown state 'q9'"),
                                  ("delta1", ["q0", 2], "has invalid action 2"),
                                  ("delta0", ["q0", 2], "has invalid action 2")):
        obj = json.loads(store(anbna))
        obj[delta]["q0,a"] = value
        with pytest.raises(ParseError) as err:
            load(json.dumps(obj))
        assert err.value.field == "automaton"
        assert f"{delta}[q0,a]" in str(err.value) and message in str(err.value)


def test_load_rejects_malformed_fields(anbna):
    for field, value in (("colour", "red"), ("type", "dfa"), ("states", "q0"),
                         ("states", ["q0", 1]), ("initial", ["q0"]),
                         ("delta0", {"q0": ["q0", 0]}), ("delta0", {"q0,a": ["q0", True]}),
                         ("delta0", {"q0,a": [["q0"], 0]}), ("delta1", [])):
        obj = json.loads(store(anbna))
        obj[field] = value
        with pytest.raises(ParseError) as err:
            load(json.dumps(obj))
        assert err.value.field == field


def test_load_rejects_repeated_keys():
    # built from raw text, since json.dumps writes no key twice: a delta
    # map with two transitions for one (state, letter) is not taken as
    # deterministic by keeping the last one, nor is a field given twice
    delta = '{"q0,a": ["q1", 0], "q1,a": ["q1", 0]}'
    text = ('{"type": "droca", "alphabet": ["a"], "states": ["q0", "q1"], "initial": "q0", '
            '"finals": ["q1"], "delta0": %s, "delta1": %s%s}')
    assert load(text % (delta, delta, "")).delta0[("q0", "a")] == ("q1", 0)
    repeated = delta[:-1] + ', "q0,a": ["q0", 1]}'
    for args, field, key in (((repeated, delta, ""), "delta0", "q0,a"),
                             ((delta, repeated, ""), "delta1", "q0,a"),
                             ((delta, delta, ', "type": "voca"'), "type", None)):
        with pytest.raises(ParseError) as err:
            load(text % args)
        assert err.value.field == field
        assert (f"key {key!r} repeated" if key else "repeated field") in str(err.value)


def test_complete_with_sink_avoids_a_state_named_sink(anbna):
    obj = json.loads(store(anbna).replace("q3", "sink"))
    del obj["delta0"]["q0,b"]
    completed = load(json.dumps(obj), complete_with_sink=True)
    assert validate(completed) == []
    assert completed.states[-2:] == ("sink", "sink_")
    assert completed.delta0[("q0", "b")] == ("sink_", 0)
    assert "sink_" not in completed.finals


def test_load_rejects_mislabeled_voca(anbna):
    obj = json.loads(store(anbna))
    assert obj["type"] == "droca"
    obj["type"] = "voca"
    with pytest.raises(ParseError) as err:
        load(json.dumps(obj))
    assert "type" in str(err.value)


def test_load_rejects_garbage(anbna):
    with pytest.raises(ParseError):
        load("not json at all {")
    with pytest.raises(ParseError):
        load("[1, 2, 3]")
    with pytest.raises(ParseError):
        load("{}")
    # refused by Python's parser with other errors than JSONDecodeError:
    # nesting past the recursion limit, and an integer past the digit limit
    compact = json.dumps(json.loads(store(anbna)))
    huge_action = compact.replace(", 1]", ", " + "1" * 5000 + "]", 1)
    for text in ("[" * 100000, huge_action):
        with pytest.raises(ParseError) as err:
            load(text)
        assert err.value.field == "json"


def test_load_file_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"type": "dr\xf6ca"}'.encode("latin-1"))
    with pytest.raises(ParseError) as err:
        load_file(path)
    assert "encoding" in str(err.value)
