import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import wild_sample
from stratsys.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = REPO_ROOT / "src" / "stratsys" / "schema" / "report.schema.json"


def validate_schema(instance, schema) -> list[str]:
    """Small validator for the schema subset this repo publishes."""
    errors: list[str] = []

    def walk(node, spec, path):
        if "enum" in spec:
            if node not in spec["enum"]:
                errors.append(f"{path}: {node!r} not in enum")
            return
        stype = spec.get("type")
        types = stype if isinstance(stype, list) else [stype] if stype else []
        if types:
            ok = any(_type_ok(node, t) for t in types)
            if not ok:
                errors.append(f"{path}: expected {types}, got {type(node).__name__}")
                return
        if isinstance(node, dict) and "properties" in spec:
            for key in spec.get("required", []):
                if key not in node:
                    errors.append(f"{path}: missing required {key}")
            if not spec.get("additionalProperties", True):
                for key in node:
                    if key not in spec["properties"]:
                        errors.append(f"{path}: unexpected key {key}")
            for key, sub in spec["properties"].items():
                if key in node:
                    walk(node[key], sub, f"{path}.{key}")
        if isinstance(node, list) and "items" in spec:
            for k, item in enumerate(node):
                walk(item, spec["items"], f"{path}[{k}]")

    def _type_ok(node, t):
        return {"object": lambda: isinstance(node, dict),
                "array": lambda: isinstance(node, list),
                "string": lambda: isinstance(node, str),
                "integer": lambda: isinstance(node, int) and not isinstance(node, bool),
                "number": lambda: isinstance(node, (int, float)) and not isinstance(node, bool),
                "null": lambda: node is None}[t]()

    walk(instance, schema, "$")
    return errors


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = {}

    def dump(name, payload):
        path = root / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        out[name] = str(path)

    dump("k2.json", {"kronecker": {"m": 2}})
    dump("good_ss.json", {"quiver": {"kronecker": {"m": 2}},
                          "modules": [{"tauI": {"i": 2, "k": 0}},
                                      {"tauP": {"i": 1, "k": 0}}]})
    dump("bad_ss.json", {"quiver": {"kronecker": {"m": 2}},
                         "modules": [{"tauP": {"i": 1, "k": 0}},
                                     {"tauI": {"i": 2, "k": 0}}]})
    dump("fg23.json", {"quiver": {"apq": {"p": 2, "q": 3}},
                       "modules": [{"E_inf": 1}, {"E_zero": 2}, {"E_zero": 1}]})
    dump("broken.json", {"quiver": {"kronecker": {"m": 2}}})
    dump("wild3.json", {"vertices": [1, 2, 3],
                        "arrows": [{"src": 2, "tgt": 1, "label": "b1"},
                                   {"src": 2, "tgt": 1, "label": "b2"},
                                   {"src": 3, "tgt": 2, "label": "c1"},
                                   {"src": 3, "tgt": 2, "label": "c2"}]})
    return out


def run_cli(args, capsys) -> tuple[int, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_kron_list_example(files, capsys):
    code, out = run_cli(["kron", "list", "--m", "2", "--bound", "3"], capsys)
    assert code == 0
    assert out.count('"verdict": "pass"') == 16


def test_apq_families_cli(files, capsys):
    code, out = run_cli(["apq", "families", "--p", "2", "--q", "3", "--tbound", "4"],
                        capsys)
    assert code == 0


def test_ss_check_bad_file_names_violation(files, capsys):
    code, out = run_cli(["ss", "check", files["bad_ss.json"]], capsys)
    assert code == 1
    assert "Ext1(X_j,X_i)" in out and "(2, 1)" in out and "= 2" in out


def test_ss_css_good(files, capsys):
    code, out = run_cli(["ss", "css", files["good_ss.json"]], capsys)
    assert code == 0


def test_missing_file_exit_2(files, capsys):
    code = main(["ss", "check", files["good_ss.json"] + ".nope"])
    capsys.readouterr()
    assert code == 2


def test_malformed_system_exit_2(files, capsys):
    code = main(["ss", "check", files["broken.json"]])
    capsys.readouterr()
    assert code == 2


def test_bad_parameters_exit_2(capsys):
    assert main(["apq", "families", "--p", "3", "--q", "2"]) == 2
    capsys.readouterr()
    assert main(["kron", "list", "--m", "1"]) == 2
    capsys.readouterr()
    assert main(["kron", "enumerate", "--m", "1", "--cap", "3"]) == 2
    capsys.readouterr()
    # negative bounds and caps are usage errors, not failed or empty searches
    for argv in (["apq", "sincerity", "--p", "2", "--q", "3", "--kmax", "-1"],
                 ["wild", "regcss", str(REPO_ROOT / "samples" / "wild_double_path.quiver.json"),
                  "--cap", "-1"],
                 ["apq", "families", "--p", "2", "--q", "3", "--tbound", "-1"],
                 ["kron", "enumerate", "--m", "3", "--cap", "-1"]):
        assert main(argv) == 2, argv
        assert "must be >= 0" in capsys.readouterr().err


def test_quiver_validate_and_classify(files, capsys):
    code, out = run_cli(["quiver", "classify", files["k2.json"]], capsys)
    assert code == 0
    assert "Euclidean" in out


def test_json_reports_validate_against_schema(files, capsys):
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    for args in (["--json", "quiver", "validate", files["k2.json"]],
                 ["--json", "ss", "css", files["good_ss.json"]],
                 ["--json", "ss", "css", files["bad_ss.json"]],
                 ["--json", "kron", "list", "--m", "2", "--bound", "1"],
                 ["--json", "apq", "sincerity", "--p", "2", "--q", "3", "--kmax", "3"]):
        main(args)
        payload = json.loads(capsys.readouterr().out)
        errors = validate_schema(payload, schema)
        assert not errors, (args, errors)


def test_json_error_reports_validate_too(files, capsys):
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    code = main(["--json", "ss", "check", files["broken.json"]])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["verdict"] == "error"
    assert not validate_schema(payload, schema)


def test_reports_byte_identical(files):
    def run(args):
        # run from src/ so that `-m` finds this checkout's package without PYTHONPATH
        return subprocess.run([sys.executable, "-m", "stratsys"] + args, cwd=REPO_ROOT / "src",
                              capture_output=True, text=True, timeout=120)

    args = ["--json", "kron", "list", "--m", "2", "--bound", "2"]
    first = run(args)
    second = run(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()


@pytest.mark.parametrize("args, code", [
    (["--json", "kron", "list", "--m", "2", "--bound", "40"], 0),
    (["kron", "list", "--m", "2", "--bound", "40"], 0),
    (["--json", "ss", "check", "missing.json"], 2),
], ids=["json", "human", "json-error"])
def test_closed_stdout_pipe_keeps_the_exit_code(args, code):
    """A reader that has gone before the report is printed (``| head``)
    costs no traceback and leaves the verdict's exit code."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "stratsys"] + args, cwd=REPO_ROOT / "src",
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr
    assert done.returncode == code


@pytest.mark.parametrize("flag", ["--seed", "--jobs"])
def test_seed_and_jobs_flags_rejected(flag, capsys):
    code = main([flag, "2", "apq", "ysearch-post", "--p", "2", "--q", "3", "--tbound", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err


TWO_CYCLE = {"vertices": [1, 2], "arrows": [{"src": 1, "tgt": 2, "label": "a"},
                                              {"src": 2, "tgt": 1, "label": "b"}]}


@pytest.mark.parametrize("action, payload, field", [
    ("ss check", {"quiver": {"kronecker": {"m": 2}}, "modules": [{"tauP": {}}]},
     ".modules[0].tauP.i"),
    ("ss check", {"quiver": {"kronecker": {"m": 2}}, "modules": [{"tauP": {"i": 7, "k": 0}}]},
     ".modules[0].tauP.i"),
    ("ss check", {"quiver": {"kronecker": {"m": 2}}, "modules": [{"tauI": {"i": 1, "k": -1}}]},
     ".modules[0].tauI.k"),
    ("rep ext", {"quiver": TWO_CYCLE, "dims": [1, 1],
                 "maps": {"a": [["1"]], "b": [["1"]]}}, ".quiver"),
    ("rep hom", {"quiver": TWO_CYCLE, "dims": [1, 1],
                 "maps": {"a": [["1"]], "b": [["1"]]}}, ".quiver"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": None}, ".dims"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": [[1], [1]]}, ".dims"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": [1.5, 1]}, ".dims"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": [True, 1]}, ".dims"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": [1]}, ".dims"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": [1, 1], "maps": [1]}, ".maps"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": [1, 1], "maps": False}, ".maps"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": [1, 1],
                 "maps": {"zz": [["1"]]}}, ".maps.zz"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": [1, 1],
                 "maps": {"a1": "1"}}, ".maps.a1"),
    ("ss check", {"quiver": {"kronecker": {"m": 2}}, "modules": [{"tauP": {"i": 1, "k": 1.5}}]},
     ".modules[0].tauP.k"),
    ("ss check", {"quiver": {"kronecker": {"m": 2.5}}, "modules": [{"S": 1}]},
     ".quiver.kronecker.m"),
    ("ss check", {"quiver": {"apq": {"p": 2, "q": 3}}, "modules": [{"E_lambda": True}]},
     ".modules[0].E_lambda"),
    ("ss check", {"quiver": {"apq": {"p": 2, "q": 3}}, "modules": [{"E_lambda": 0.5}]},
     ".modules[0].E_lambda"),
    ("ss check", {"quiver": {"apq": {"p": 2, "q": 3}}, "modules": [{"E_lambda": "1/0"}]},
     ".modules[0].E_lambda"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": [1, 1],
                 "maps": {"a1": [[True]]}}, ".maps.a1"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": [1, 1],
                 "maps": {"a1": [[0.5]]}}, ".maps.a1"),
    ("rep hom", {"quiver": {"kronecker": {"m": 2}}, "dims": [1, 1],
                 "maps": {"a1": [["1/0"]]}}, ".maps.a1"),
    ("ss check", {"quiver": {"apq": {"p": 2, "q": 3}}, "modules": [{"E_inf": 7}]},
     ".modules[0].E_inf"),
    ("ss check", {"quiver": {"apq": {"p": 2, "q": 3}},
                  "modules": [{"E_lambda": "2", "index": 3}]}, ".modules[0].E_lambda"),
    ("ss check", {"quiver": {"apq": {"p": 2, "q": 3}},
                  "modules": [{"E_inf": 1, "index": 2}]}, ".modules[0].index"),
    ("ss check", {"quiver": {"apq": {"p": 2, "q": 3}},
                  "modules": [{"tauP": {"i": 1, "k": 0}, "level": 7}]}, ".modules[0].level"),
    ("ss check", {"quiver": {"apq": {"p": 2, "q": 3}},
                  "modules": [{"S": 2, "index": 3}]}, ".modules[0].index"),
], ids=["missing-vertex", "unknown-vertex", "negative-power", "cyclic-rep-ext",
        "cyclic-rep-hom", "dims-null", "dims-nested", "dims-float", "dims-bool",
        "dims-short", "maps-list", "maps-false", "maps-unknown-arrow", "maps-string-rows",
        "float-power", "float-arrow-count", "lambda-bool", "lambda-float",
        "lambda-zero-denominator", "map-entry-bool", "map-entry-float",
        "map-entry-zero-denominator", "mouth-index-above-rank",
        "lambda-index-above-rank", "index-on-a-mouth-point", "level-on-an-orbit-module",
        "index-on-a-simple"])
def test_malformed_files_exit_2_with_location(tmp_path, capsys, action, payload, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    args = action.split() + [str(path)] * (2 if action.startswith("rep") else 1)
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    assert f"error: {path}{field}:" in captured.err


def test_a_huge_tube_level_gets_its_exact_verdict_at_once(tmp_path, capsys):
    # the dimension vector of a tube point and Hom inside its tube are closed
    # forms in its level, so level 10^9 is answered without building the point
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"quiver": {"apq": {"p": 2, "q": 3}},
                                "modules": [{"E_inf": 1, "level": 10**9}]}), encoding="utf-8")
    start = time.perf_counter()
    code = main(["--json", "ss", "check", str(path)])
    elapsed = time.perf_counter() - start
    violations = json.loads(capsys.readouterr().out)["details"][0]["violations"]
    assert code == 1
    assert [(v["axiom"], v["value"]) for v in violations] == [
        ("indecomposable-exceptional", [500000000, 500000000]),
        ("ext-vanishing Ext1(X_j,X_i)", 500000000)]
    assert elapsed < 5


def test_quiver_validate_keeps_reporting_cycles_as_failures(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(TWO_CYCLE), encoding="utf-8")
    code, out = run_cli(["quiver", "validate", str(path)], capsys)
    assert code == 1
    assert "violated acyclic" in out


PINNED_REPORTS = {
    "kron-enumerate-m3": ("--json kron enumerate --m 3 --cap 13", 0,
                          "6ed7a34a23a904610aac36e5ae0669f0f65f1077275010dbbb52b500e345e39b"),
    "kron-enumerate-m2": ("--json kron enumerate --m 2 --cap 9", 0,
                          "3217646692e8f41cd97184a61aeed8012a781274a859c2ac4097adf894b27ad0"),
    "wild-regcss-cap6": ("--json wild regcss samples/wild_double_path.quiver.json --cap 6", 1,
                         "b328581a10108f6bc5bab9c098f59f0eaad1023c0b025093c9f0cbbfd2fd6986"),
    "wild-regcss-cap8": ("--json wild regcss samples/wild_double_path.quiver.json --cap 8", 0,
                         "7e1d62be1b449b2ad2c639929772ae5415aa9e90b0260e0287263e9746494228"),
    "wild-regcss-cap10": ("--json wild regcss samples/wild_double_path.quiver.json --cap 10", 0,
                          "c8fd82ce5c5d54289f5e1be2960c2c24c954ad8a65a125d13149026d97f957a2"),
    "wild-regcss-cap12": ("--json wild regcss samples/wild_double_path.quiver.json --cap 12", 0,
                          "246b088fb4613a4eb029f8c5fe0c05b5986ffa35dedb8cd25f36e1b5ed3ecbd2"),
    "wild-regcss-cap40": ("--json wild regcss samples/wild_double_path.quiver.json --cap 40", 0,
                          "f0e188c5493fc9edea15c11bd8ccc8b6e1f1bfe4d94f5478c83152a08cf9eae8"),
    "wild-regcss-cap99": ("--json wild regcss samples/wild_double_path.quiver.json --cap 99", 0,
                          "1fe6a90a05f7aebf072a99c7db85ef5118389a2635000dd6ca335bbccdc277ae"),
    "ss-extend-outer": ("--json ss extend samples/fg_p2q3.ss.json --positions outer --bound 4", 0,
                        "73a87ebeadf3be114d9792da4d3e96de8a4fa2f76c28cbe26c3535d330648466"),
    "ss-extend-any": ("--json ss extend samples/kronecker_simples.ss.json --bound 4", 0,
                      "69ae07ef893a3c5a865efb33388c569d84331c50922c8aea997305626ed45f75"),
    "ss-extend-any-insert": ("--json ss extend samples/fg_p2q3.ss.json --positions any "
                             "--bound 4", 0,
                             "50417ffeb0e74489d6eed6dedeba51203513decb72bfac68445f34ed6fe4a71e"),
    "ss-filtfinite-kronecker": ("--json ss filtfinite samples/kronecker_simples.ss.json", 0,
                                "aea9257a390e0f2462cab65a1bd0fb2ae57b6e39a8af804fe1a7aabc2612f5a3"),
    "apq-tubes-p3q4": ("--json apq tubes --p 3 --q 4", 0,
                       "212936e5b7192ef48c676f02349391e16555272318669d2c3109872074b308cd"),
    "apq-tubes-p2q5": ("--json apq tubes --p 2 --q 5", 0,
                       "d1f181171459eb13b966d12152675dd5ff6e25cacd4e56baedf07270af2cd03b"),
    "apq-tubes-p5q5": ("--json apq tubes --p 5 --q 5", 0,
                       "3827a2c793485717b3da0150ac991c0ef565a79a85365552d89e27507a85c2e6"),
    "apq-families-p2q3": ("--json apq families --p 2 --q 3", 0,
                          "b961c22482984e600fdb6a8e81701d9e0a17c58c3f812e2337cfdadaa30f2601"),
    "apq-families-p3q4": ("--json apq families --p 3 --q 4", 0,
                          "44c5b3dd623f23440052656c3fd89931e6fcac306087c45e922c011e2c410bc6"),
    "apq-families-p5q7": ("--json apq families --p 5 --q 7", 0,
                          "9c7c4b73fa178c29563705b249a70fb29c38546c59b8a5fcf1f4839d66543b00"),
    "apq-ysearch-post-p2q3": ("--json apq ysearch-post --p 2 --q 3", 0,
                              "1b5ff3e52b6daa18e8ffff0fad1a8e70a387f9031a18380183ee94397beb9e8a"),
    "apq-ysearch-pre-p1q2": ("--json apq ysearch-pre --p 1 --q 2", 0,
                             "aee71aaf3d15160576954aa906b062c70aaf113b7411ae1bec2b441d32ce3d39"),
    "apq-ysearch-pre-p3q4": ("--json apq ysearch-pre --p 3 --q 4", 0,
                             "870513a35cf5b82744ac74c4c0dfa7408ccea7916033879b04373dc987fd0abe"),
    "apq-sincerity-p2q3": ("--json apq sincerity --p 2 --q 3", 0,
                           "f2557f655e7553fe338ad643e4bfa85165c676e4fa215fd04f243f90c518597e"),
    "apq-sincerity-p3q4": ("--json apq sincerity --p 3 --q 4", 0,
                           "a3c9d3a364e72d337f07c7dc7317773826f16ecf485cf5e143f738fec9134752"),
    "kron-list-m3": ("--json kron list --m 3 --bound 5", 0,
                     "19d8bfd892fa3fca32fb712c649ffd886e21b1a186fce467656d6221917f78a3"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_search_reports_are_pinned(monkeypatch, capsys, name):
    """Search witnesses, check counts and built tube modules appear in these
    reports; the digests pin the exact bytes."""
    argv, code, digest = PINNED_REPORTS[name]
    monkeypatch.chdir(REPO_ROOT)
    got_code, out = run_cli(argv.split(), capsys)
    assert got_code == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_ss_extend_cli(files, capsys):
    code, out = run_cli(["ss", "extend", files["fg23.json"], "--positions", "outer",
                         "--bound", "4"], capsys)
    assert code == 0
    assert "completion" in out


@pytest.mark.parametrize("mode, completions, checks", [
    ("front", ["(I_2, P_1)", "(I_3, P_1, P_2)"], [45, 70]),
    ("back", ["(P_1, P_2)", "(P_1, P_2, P_3)"], [45, 70]),
    ("outer", ["(I_2, P_1)", "(I_3, P_1, P_2)"], [81, 124]),
    ("any", ["(I_2, P_1)", "(I_3, P_1, P_2)"], [81, 178]),
])
def test_ss_extend_one_short_is_unique_per_slot(tmp_path, capsys, mode, completions, checks):
    # the front and back completions differ, and each is unique in its slot;
    # comparing them across slots flagged a uniqueness violation
    from conftest import one_short_systems

    from stratsys.io_json import module_ref_from_json, system_from_json
    from stratsys.systems import StratSystem

    for path, completion, count in zip(one_short_systems(tmp_path), completions, checks):
        code, out = run_cli(["--json", "ss", "extend", str(path), "--positions", mode], capsys)
        data = json.loads(out)
        assert code == 0
        (report,) = data["details"]
        assert (report["checked"], report["flags"]) == (count, [])
        quiver = system_from_json(json.loads(path.read_text())).quiver
        found = StratSystem(quiver, tuple(module_ref_from_json(m, quiver)
                                          for m in data["data"]["completion"]))
        assert found.describe() == completion


def test_wild_regcss_cli_none_within_cap(files, capsys):
    code, out = run_cli(["wild", "regcss", files["wild3.json"], "--cap", "4"], capsys)
    assert code == 1
    assert "no-witness" in out


@pytest.fixture(scope="module")
def rep_files(tmp_path_factory):
    from stratsys.io_json import rep_to_json
    from stratsys.quiver import kronecker
    from stratsys.reps import injective, projective

    root = tmp_path_factory.mktemp("reps")
    k2 = kronecker(2)
    out = {}
    for name, rep in (("P1", projective(k2, 1)), ("P2", projective(k2, 2)),
                      ("I2", injective(k2, 2))):
        path = root / f"{name}.json"
        path.write_text(json.dumps(rep_to_json(rep)), encoding="utf-8")
        out[name] = str(path)
    return out


def test_rep_and_ar_commands(rep_files, capsys):
    code, out = run_cli(["rep", "hom", rep_files["P1"], rep_files["P2"]], capsys)
    assert code == 0 and "hom_dim: 2" in out
    code, out = run_cli(["rep", "ext", rep_files["I2"], rep_files["P1"]], capsys)
    assert code == 0 and "ext1_dim: 2" in out and "ext1_dim_direct: 2" in out
    code, out = run_cli(["ar", "tau", rep_files["P1"]], capsys)
    assert code == 0 and "zero: true" in out  # projectives die under tau
    code, out = run_cli(["ar", "tauinv", rep_files["P1"], "--k", "1"], capsys)
    assert code == 0 and "[3, 2]" in out
    code, out = run_cli(["ar", "pos", rep_files["P2"]], capsys)
    assert code == 0 and "Preprojective" in out
    code, out = run_cli(["rep", "supp", rep_files["P2"]], capsys)
    assert code == 0 and "sincere: true" in out


def _p1_file(tmp_path, m: int) -> str:
    from stratsys.io_json import rep_to_json
    from stratsys.quiver import kronecker
    from stratsys.reps import projective

    path = tmp_path / f"P1-K{m}.json"
    path.write_text(json.dumps(rep_to_json(projective(kronecker(m), 1))), encoding="utf-8")
    return str(path)


def test_tau_power_within_the_budget(tmp_path, capsys):
    code, out = run_cli(["--json", "ar", "tauinv", _p1_file(tmp_path, 3), "--k", "3"], capsys)
    assert code == 0
    assert json.loads(out)["data"]["result"]["dims"] == [377, 144]


def _refused(argv, capsys, json_flag) -> str:
    """The error message of a run that must exit 2 with one error line."""
    code = main(json_flag + argv)
    captured = capsys.readouterr()
    assert code == 2
    if json_flag:
        payload = json.loads(captured.out)
        assert payload["verdict"] == "error"
        return payload["error"]
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    return captured.err[len("error: "):-1]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
def test_tau_power_beyond_the_budget_exits_2(tmp_path, capsys, json_flag):
    # tau^-1 P_1 over K_8 is (63, 8), and Phi^-1 of it is (3905, 496)
    argv = ["ar", "tauinv", _p1_file(tmp_path, 8), "--k", "2"]
    assert _refused(argv, capsys, json_flag) == (
        "translate 2 of 2 has total dimension at least 4401, beyond the budget 4096")


def test_tau_power_builds_every_translate_within_the_budget(tmp_path, capsys):
    """tau^-4 P_1 over K_3 is (2584, 987), 3571 in all, so it is built; the
    bound refuses the next one, Phi^-1 (2584, 987) = (17711, 6765)."""
    argv = ["ar", "tauinv", _p1_file(tmp_path, 3), "--k", "5"]
    assert _refused(argv, capsys, ["--json"]) == (
        "translate 5 of 5 has total dimension at least 24476, beyond the budget 4096")


def _rep_file(tmp_path, name: str, rep) -> str:
    from stratsys.io_json import rep_to_json

    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(rep_to_json(rep)), encoding="utf-8")
    return str(path)


def test_ar_pos_wild_regular_is_regular(tmp_path, capsys, monkeypatch):
    from stratsys import artheory
    from stratsys.quiver import kronecker
    from stratsys.reps import make_rep

    def refuse(m):
        raise AssertionError("structural translate of a regular module")

    monkeypatch.setattr(artheory, "tau", refuse)
    monkeypatch.setattr(artheory, "tau_inv", refuse)
    rep = make_rep(kronecker(3), (1, 1), {"a1": [[1]]})
    code, out = run_cli(["ar", "pos", _rep_file(tmp_path, "regular", rep)], capsys)
    assert code == 0
    assert '"kind": "Regular"' in out


def test_ar_pos_over_the_wild_sample_translates_nothing(tmp_path, capsys, monkeypatch):
    """Both Perron forms are positive on (1, 2, 2), so the verdict comes
    without a structural tau (which would grow without end)."""
    from stratsys import artheory
    from stratsys.reps import make_rep

    def refuse(m):
        raise AssertionError("structural translate of a regular module")

    monkeypatch.setattr(artheory, "tau", refuse)
    monkeypatch.setattr(artheory, "tau_inv", refuse)
    rep = make_rep(wild_sample(), (1, 2, 2), {"b1": [[1, 2]], "b2": [[-1, 0]],
                                              "c1": [[1, 0], [1, 1]], "c2": [[2, 0], [0, -1]]})
    code, out = run_cli(["--json", "ar", "pos", _rep_file(tmp_path, "wild", rep)], capsys)
    assert code == 0
    assert json.loads(out)["data"] == {"position": {"kind": "Regular", "vertex": None,
                                                    "power": 0}}


def test_ar_pos_walks_a_long_euclidean_orbit_to_its_end(tmp_path, capsys):
    # tau^-70 P_1 over K_2, the arrows k^140 -> k^141 taking the basis to its
    # first and to its last 140 vectors: the defect picks the tau side, whose
    # orbit runs 70 steps down to P_1, and 71 translates certify it
    from stratsys.quiver import kronecker
    from stratsys.reps import make_rep

    n = 140
    rep = make_rep(kronecker(2), (n + 1, n),
                   {"a1": [[int(i == j) for j in range(n)] for i in range(n + 1)],
                    "a2": [[int(i == j + 1) for j in range(n)] for i in range(n + 1)]})
    code, out = run_cli(["--json", "ar", "pos", _rep_file(tmp_path, "long", rep)], capsys)
    assert code == 0
    assert json.loads(out)["data"] == {"position": {"kind": "Preprojective", "vertex": 1,
                                                    "power": 70}}


def test_ar_pos_refuses_a_wild_vector_where_a_form_vanishes(tmp_path, capsys):
    from stratsys.reps import make_rep

    rep = make_rep(wild_sample(), (1, 0, 1), {})  # S_1 + S_3
    code, out = run_cli(["--json", "ar", "pos", _rep_file(tmp_path, "s1s3", rep)], capsys)
    assert code == 2
    assert "a Perron form vanishes on (1, 0, 1)" in json.loads(out)["error"]


def test_ar_pos_refuses_a_module_whose_support_splits(tmp_path, capsys):
    from stratsys.reps import make_rep

    rep = make_rep(wild_sample(), (1, 1, 0), {})  # S_1 + S_2
    code, out = run_cli(["--json", "ar", "pos", _rep_file(tmp_path, "s1s2", rep)], capsys)
    assert code == 2
    assert "the support splits" in json.loads(out)["error"]
    assert main(["ar", "pos", _rep_file(tmp_path, "s1s2", rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "decomposable" in err


def test_long_orbit_chain_exits_2(tmp_path, capsys):
    """tau^-990 P_1 over K_2 has total dimension 3961, under the cap, but the
    990 modules before it that materialize must build add up to far more."""
    import time

    path = tmp_path / "long.json"
    path.write_text(json.dumps({"quiver": {"kronecker": {"m": 2}},
                                "modules": [{"S": 1}, {"tauP": {"i": 1, "k": 990}}]}),
                    encoding="utf-8")
    start = time.perf_counter()
    code = main(["ss", "check", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("modules", [
    # Hom(tau^-3000 P_1, tau^3000 I_2) reads dimension vectors of more than
    # 4300 digits, which the report cannot print
    [{"tauP": {"i": 1, "k": 3000}}, {"tauI": {"i": 2, "k": 3000}}],
    # the orbit dimension vectors alone would exhaust memory
    [{"tauP": {"i": 1, "k": 1_000_000}}],
], ids=["unprintable-value", "orbit-beyond-cap"])
def test_huge_tau_powers_exit_2(tmp_path, capsys, json_flag, modules):
    from stratsys.quiver import kronecker

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"quiver": {"kronecker": {"m": 3}}, "modules": modules}),
                    encoding="utf-8")
    try:
        code = main(json_flag + ["ss", "check", str(path)])
    finally:
        kronecker(3).context.clear()  # drop the long orbit it grew
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    if json_flag:
        assert json.loads(captured.out)["verdict"] == "error"
    else:
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
def test_a_huge_regcss_cap_exits_2_before_it_enumerates(capsys, json_flag):
    # the box [0, 100000]^3 would not fit in memory as a list
    start = time.perf_counter()
    code = main(json_flag + ["wild", "regcss",
                             str(REPO_ROOT / "samples" / "wild_double_path.quiver.json"),
                             "--cap", "100000"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    if json_flag:
        payload = json.loads(captured.out)
        assert payload["verdict"] == "error" and "[0, 100000]^3" in payload["error"]
    else:
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: the screen box [0, 100000]^3 holds more than")
