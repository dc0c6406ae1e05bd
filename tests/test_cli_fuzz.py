"""Property test of the CLI exit-code contract: for small quiver,
representation and system files, well-formed or not, ``main`` returns 0, 1
or 2 and never lets an exception escape."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stratsys.cli import main
from stratsys.io_json import InputError, module_ref_from_json
from stratsys.quiver import Quiver, canonical_apq, kronecker

JUNK = st.one_of(st.none(), st.booleans(), st.just(1.5), st.text(max_size=3),
                 st.lists(st.integers(0, 2), max_size=2), st.just({}))
ENTRY = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-1", "1/0", "x", 0.5, True]))
VERTEX = st.integers(-1, 4)
LABELS = st.sampled_from(["a", "b", "c", "a1", "a2"])

EXPLICIT_QUIVER = st.fixed_dictionaries({
    "vertices": st.one_of(st.lists(VERTEX, min_size=1, max_size=4), JUNK),
    "arrows": st.one_of(st.lists(st.fixed_dictionaries(
        {"src": VERTEX, "tgt": VERTEX, "label": st.one_of(LABELS, JUNK)}), max_size=5), JUNK),
})
QUIVER = st.one_of(
    st.builds(lambda m: {"kronecker": {"m": m}}, st.one_of(st.integers(-1, 3), JUNK)),
    st.builds(lambda p, q: {"apq": {"p": p, "q": q}}, st.integers(0, 3), st.integers(0, 3)),
    EXPLICIT_QUIVER,
    JUNK,
)
MALFORMED_REP = st.fixed_dictionaries({
    "quiver": QUIVER,
    "dims": st.one_of(st.lists(st.integers(-1, 3), min_size=1, max_size=4), JUNK),
    "maps": st.one_of(st.dictionaries(
        LABELS, st.one_of(st.lists(st.lists(ENTRY, max_size=3), max_size=3), JUNK),
        max_size=3), JUNK),
})
DESCRIPTOR = st.one_of(
    st.builds(lambda key, i, k: {key: {"i": i, "k": k}},
              st.sampled_from(["tauP", "tauI"]), VERTEX, st.integers(-1, 6)),
    st.builds(lambda i: {"S": i}, VERTEX),
    st.builds(lambda key, i: {key: i}, st.sampled_from(["E_inf", "E_zero"]), st.integers(0, 4)),
    st.builds(lambda lam, index, level: {"E_lambda": lam, "index": index, "level": level},
              st.sampled_from(["1", "1/2", "0", 2, 0.5, True]), st.integers(0, 2),
              st.integers(0, 3)),
    st.builds(lambda rep: {"rep": rep}, MALFORMED_REP),
    JUNK,
)

# Well-formed files live over these: their orbit modules of power <= 6 have
# total dimension <= 31 (over K_3, tau^-6 P_1 already has 167761)
SMALL_QUIVERS = [kronecker(2), canonical_apq(1, 2), canonical_apq(2, 3),
                 Quiver.make([1, 2, 3], [(3, 2, "a"), (2, 1, "b")])]
WILD = {"vertices": [1, 2, 3], "arrows": [{"src": 2, "tgt": 1, "label": "b1"},
                                          {"src": 2, "tgt": 1, "label": "b2"},
                                          {"src": 3, "tgt": 2, "label": "c1"},
                                          {"src": 3, "tgt": 2, "label": "c2"}]}
# ``ar pos`` reads the Coxeter orbit before any structural step, so it is
# also drawn over wild quivers, whose orbits grow without end
WILD_QUIVERS = [kronecker(3), Quiver.from_json(WILD)]


def well_formed(draw) -> bool:
    """Three draws in four are well formed, so the checks behind the loaders run."""
    return draw(st.integers(0, 3)) > 0


@st.composite
def rep_of(draw, q):
    if not well_formed(draw):
        return draw(st.one_of(MALFORMED_REP, JUNK))
    dims = draw(st.lists(st.integers(0, 3), min_size=q.n, max_size=q.n))
    maps = {a.label: [[draw(st.integers(-1, 2)) for _ in range(dims[q.index(a.src)])]
                      for _ in range(dims[q.index(a.tgt)])]
            for a in q.arrows}
    return {"quiver": q.to_json(), "dims": dims, "maps": maps}


@st.composite
def descriptor_of(draw, q):
    if not well_formed(draw):
        return draw(DESCRIPTOR)
    return draw(well_formed_descriptor_of(q))


@st.composite
def well_formed_descriptor_of(draw, q):
    vertex = draw(st.sampled_from(q.vertices))
    return draw(st.one_of(
        st.builds(lambda key, k: {key: {"i": vertex, "k": k}},
                  st.sampled_from(["tauP", "tauI"]), st.integers(0, 6)),
        st.just({"S": vertex}),
        st.builds(lambda rep: {"rep": rep}, rep_of(q)),
        st.builds(lambda key, i, level: {key: i, "level": level},
                  st.sampled_from(["E_inf", "E_zero"]), st.integers(1, 2), st.integers(1, 2)),
        st.builds(lambda lam: {"E_lambda": lam}, st.sampled_from(["1", "-1/2"])),
    ))


@st.composite
def invocation(draw):
    """(argv with {0}, {1} standing for file paths, payloads of those files)."""
    q = draw(st.sampled_from(SMALL_QUIVERS))
    group = draw(st.sampled_from(["quiver", "rep", "ar", "ss", "wild", "wild-pos"]))
    if group == "quiver":
        action = draw(st.sampled_from(["validate", "classify"]))
        return ["quiver", action, "{0}"], [q.to_json() if well_formed(draw) else draw(QUIVER)]
    if group == "rep":
        action = draw(st.sampled_from(["hom", "ext", "supp"]))
        return ["rep", action, "{0}", "{1}"], [draw(rep_of(q)), draw(rep_of(q))]
    if group == "ar":
        action = draw(st.sampled_from(["tau", "tauinv", "pos"]))
        return ["ar", action, "{0}", "--k", str(draw(st.integers(0, 3)))], [draw(rep_of(q))]
    if group == "ss":
        action = draw(st.sampled_from(["check", "css", "extend", "filtfinite"]))
        system = ({"quiver": q.to_json(), "modules": draw(st.lists(descriptor_of(q), max_size=4))}
                  if well_formed(draw) else
                  draw(st.one_of(st.fixed_dictionaries({"quiver": QUIVER,
                                                        "modules": st.lists(DESCRIPTOR, max_size=3)}),
                                 JUNK)))
        return (["ss", action, "{0}", "--bound", str(draw(st.integers(0, 2))),
                 "--positions", draw(st.sampled_from(["front", "back", "outer", "any"]))],
                [system])
    if group == "wild":
        return (["wild", "regcss", "{0}", "--cap", str(draw(st.integers(1, 2)))],
                [WILD if well_formed(draw) else draw(QUIVER)])
    q = draw(st.sampled_from(WILD_QUIVERS))
    return ["ar", "pos", "{0}"], [draw(rep_of(q))]


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(call=invocation(), as_json=st.booleans())
def test_cli_exit_code_contract(call, as_json):
    argv, payloads = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, payload in enumerate(payloads):
            path = Path(tmp) / f"input{k}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            paths.append(str(path))
        argv = ["--json"] * as_json + [arg.format(*paths) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_well_formed_descriptors_carry_no_stray_field(data):
    """A well-formed descriptor puts ``level`` only on a tube point and
    ``index`` only on E_lambda, so the loader never refuses either field;
    it may still refuse the module itself (a tube point off an apq quiver)."""
    q = data.draw(st.sampled_from(SMALL_QUIVERS))
    descriptor = data.draw(well_formed_descriptor_of(q))
    try:
        module_ref_from_json(descriptor, q)
    except InputError as exc:
        assert not str(exc).startswith(("module.level:", "module.index:")), descriptor
