import json

import pytest

from conftest import system_to_json
from stratsys.io_json import (InputError, module_ref_to_json, quiver_from_json,
                              rep_from_json, rep_to_json, system_from_json)
from stratsys.modules import materialize, ref_dims
from stratsys.quiver import Quiver, canonical_apq, kronecker
from stratsys.reps import injective, projective
from stratsys.systems import check_ss


def test_quiver_symbolic_forms():
    assert quiver_from_json({"kronecker": {"m": 3}}) == kronecker(3)
    assert quiver_from_json({"apq": {"p": 2, "q": 3}}) == canonical_apq(2, 3)
    inline = quiver_from_json(kronecker(2).to_json())
    assert inline == kronecker(2)


def test_rep_round_trip_exact():
    rep = injective(canonical_apq(2, 3), 0)
    payload = rep_to_json(rep)
    back = rep_from_json(json.loads(json.dumps(payload)))
    assert back.dims == rep.dims
    assert all(a.entries == b.entries for a, b in zip(back.maps, rep.maps))


def test_system_descriptors_all_forms():
    data = {
        "quiver": {"apq": {"p": 2, "q": 3}},
        "modules": [
            {"tauI": {"i": 4, "k": 0}},
            {"E_inf": 1},
            {"E_zero": 2},
            {"E_zero": 1},
            {"tauP": {"i": 0, "k": 0}},
        ],
    }
    system = system_from_json(data)
    assert system.size == 5
    assert check_ss(system).passed
    # serialization round trip keeps descriptors symbolic
    back = system_from_json(json.loads(json.dumps(system_to_json(system))))
    assert [ref_dims(m) for m in back.modules] == [ref_dims(m) for m in system.modules]


def test_lambda_and_simple_and_inline_descriptors():
    q = canonical_apq(2, 3)
    data = {
        "quiver": {"apq": {"p": 2, "q": 3}},
        "modules": [
            {"E_lambda": "1/2"},
            {"S": 3},
            {"rep": rep_to_json(projective(q, 0), inline_quiver=False)},
            {"E_zero": 1, "level": 2},
        ],
    }
    system = system_from_json(data)
    assert ref_dims(system.modules[0]) == (1, 1, 1, 1, 1)
    assert ref_dims(system.modules[1]) == (0, 0, 0, 1, 0)
    assert ref_dims(system.modules[2]) == (1, 0, 0, 0, 0)
    assert ref_dims(system.modules[3]) == (0, 0, 1, 1, 0)  # two mouth simples glued
    assert materialize(system.modules[3]).dims == (0, 0, 1, 1, 0)


def test_tube_descriptor_requires_apq_quiver():
    with pytest.raises(InputError):
        system_from_json({"quiver": {"kronecker": {"m": 2}},
                          "modules": [{"E_inf": 1}]})


def test_malformed_inputs_carry_locations():
    with pytest.raises(InputError) as exc:
        system_from_json({"quiver": {"kronecker": {"m": 2}},
                          "modules": [{"tauX": 1}]})
    assert "modules[0]" in str(exc.value)
    with pytest.raises(InputError) as exc:
        rep_from_json({"quiver": {"kronecker": {"m": 2}}, "dims": [1, 1],
                       "maps": {"a1": [["nonsense"]]}})
    assert "maps.a1" in str(exc.value)


def test_module_ref_descriptor_round_trip():
    q = canonical_apq(2, 3)
    data = {"quiver": {"apq": {"p": 2, "q": 3}},
            "modules": [{"tauP": {"i": 4, "k": 3}}, {"E_lambda": "2", "level": 1}]}
    system = system_from_json(data)
    redump = [module_ref_to_json(m) for m in system.modules]
    assert redump[0] == {"tauP": {"i": 4, "k": 3}}
    assert redump[1] == {"E_lambda": "2", "index": 1}
