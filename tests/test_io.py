import json

import pytest

from ocalearn import ParseError, load, store, validate
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


def test_load_rejects_garbage():
    with pytest.raises(ParseError):
        load("not json at all {")
    with pytest.raises(ParseError):
        load("[1, 2, 3]")
    with pytest.raises(ParseError):
        load("{}")
