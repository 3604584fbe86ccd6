import contextlib
import copy
import io
import json
import pathlib
import tempfile
import time

import pytest

from drinfeld import APoly, SkewPoly, coords_in_skew_basis, endomorphism_ring
from drinfeld.cli import main
from drinfeld.serialize import (
    analyze_report,
    apoly_from_json,
    apoly_to_json,
    endring_report,
    field_from_json,
    field_to_json,
    module_from_json,
    module_to_json,
    render_text,
    shared_module,
)

from conftest import get_tower
from test_census import GOLDEN_IDEAL_ACT_DIGESTS


EX38_FIELD = {"p": 2, "e": 1, "h": [0, 1], "n": 4, "g": [1, 1, 0, 0, 1]}
EX38_MODULE = {
    "field": EX38_FIELD,
    # phi_T = t + t^3 tau^2 + tau^3 in coefficient vectors over F_2
    "phi_T": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
}


def test_field_json_roundtrip():
    tower = field_from_json(EX38_FIELD)
    assert field_to_json(tower) == EX38_FIELD
    assert tower.q == 2 and tower.n == 4


def test_field_json_roundtrip_e2():
    tower = get_tower("f16e2")
    data = field_to_json(tower)
    assert isinstance(data["g"][0], list)  # arrays-of-arrays over F_p
    again = field_from_json(data)
    assert field_to_json(again) == data


def test_module_json_roundtrip(rank3_example):
    data = module_to_json(rank3_example)
    again = module_from_json(data)
    assert again == rank3_example
    assert module_to_json(again) == data


def test_module_json_matches_handwritten(rank3_example):
    assert module_from_json(EX38_MODULE) == rank3_example


def test_apoly_json_roundtrip():
    fq = get_tower("f2").fq
    a = APoly(fq, [1, 1, 0, 0, 1])
    assert apoly_from_json(fq, apoly_to_json(a)) == a


def test_analyze_report_fields(rank3_example):
    rep = analyze_report(rank3_example)
    assert rep["m"] == "x^3+T*x^2+x+(T^4+T+1)"
    assert rep["s"] == 3 and rep["NK"] == 4 and rep["H"] == 1
    assert rep["locally_maximal"] and rep["end_ring_commutative"]
    assert rep["p_char"] == "T^4+T+1"
    text = render_text(rep)
    assert "locally_maximal: True" in text


def test_endring_report(rank3_example):
    rep = endring_report(rank3_example)
    assert rep["rank"] == 3
    assert rep["index_over_minimal"] == "T+1"
    assert rep["gorenstein"] is False
    assert rep["gorenstein_at"]["T+1"] is False
    assert rep["basis"][0]["skew"] == "1"


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _field_specs():
    """Field specs with small p, e and n and random h and g digits, where
    h and g are monic of the stated degree or one off, and where one key
    may hold a value of the wrong type or be missing."""
    st = pytest.importorskip("hypothesis.strategies")
    junk = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.floats(allow_nan=False))

    @st.composite
    def specs(draw):
        p = draw(st.sampled_from([2, 3, 5, 7, 4, 1, 0, -3]))
        e = draw(st.integers(-1, 3))
        n = draw(st.integers(-1, 4))
        digit = st.integers(0, max(p, 1) - 1)
        top = st.one_of(st.just([1]), st.sampled_from([[], [0, 1]]))
        h = draw(st.lists(digit, min_size=max(e, 0), max_size=max(e, 0))) + draw(top)
        scalar = st.one_of(digit, st.lists(digit, max_size=max(e, 1)))
        g = draw(st.lists(scalar, min_size=max(n, 0), max_size=max(n, 0))) + draw(top)
        spec = {"p": p, "e": e, "h": h, "n": n, "g": g}
        key = draw(st.one_of(st.none(), st.sampled_from(["p", "e", "h", "n", "g"])))
        if key is not None:
            if draw(st.booleans()):
                del spec[key]
            else:
                spec[key] = draw(junk)
        return spec

    return specs()


def test_cli_field_spec_fuzz():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @hypothesis.given(_field_specs())
    def run(field):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "module.json"
            path.write_text(json.dumps({"field": field, "phi_T": [[0], [1]]}))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["analyze", "--input", str(path)])
        assert rc in (0, 2), (field, err.getvalue())
        if rc == 2:
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1, err.getvalue()
        else:
            assert err.getvalue() == ""

    run()



# small fields for the input fuzzers, so that every request stays cheap:
# F_2, F_3 and F_4 as F_2[x]/(x^2+x+1) and as F_2[y]/(y^2+y+1) (e = 2)
SMALL_FIELDS = [
    {"p": 2, "e": 1, "h": [0, 1], "n": 1, "g": [0, 1]},
    {"p": 3, "e": 1, "h": [0, 1], "n": 1, "g": [1, 1]},
    {"p": 2, "e": 1, "h": [0, 1], "n": 2, "g": [1, 1, 1]},
    {"p": 2, "e": 2, "h": [1, 1, 1], "n": 1, "g": [[1, 1], [1, 0]]},
]
# phi_T = x + x tau + x tau^2 over F_4: End has rank 2
F4_MODULE = {"field": SMALL_FIELDS[2], "phi_T": [[0, 1], [0, 1], [0, 1]]}


def _junk(st):
    return st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=2),
        st.floats(allow_nan=False),
        st.integers(-2, 9),
        st.lists(st.integers(0, 2), max_size=3),
        st.dictionaries(st.text(max_size=1), st.integers(0, 2), max_size=1),
    )


def _places(obj, path=()):
    """Every position in a JSON value, as a path of keys and indices."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


def _mutated(draw, st, spec: dict) -> dict:
    """The spec as it is, or, about half the time, with one change at a
    random position: the value there deleted, or replaced by a value of
    another type or an integer out of range."""
    if draw(st.booleans()):
        return spec
    spec = copy.deepcopy(spec)
    path = draw(st.sampled_from([p for p in _places(spec) if p]))
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_junk(st))
    return spec


def _element(st, field: dict):
    """An element of k as the JSON coordinates over F_q of that field."""
    p, e = field["p"], field["e"]
    digit = st.integers(0, p - 1)
    scalar = digit if e == 1 else st.lists(digit, min_size=e, max_size=e)
    return st.lists(scalar, min_size=field["n"], max_size=field["n"])


def _nonzero(coords) -> bool:
    return any(d for c in coords for d in (c if isinstance(c, list) else [c]))


def _run_fuzzed(monkeypatch, argv_for, spec, allowed=(0, 2)):
    """Run one CLI request on a fuzzed spec: the exit code must be allowed,
    exit 2 must print one line on stderr and nothing on stdout, exit 0
    nothing on stderr, and no internal invariant may break on the way (an
    InternalError would also exit 2)."""
    from drinfeld import errors

    broken = []
    init = errors.InternalError.__init__

    def spy(self, *args):
        broken.append(args)
        init(self, *args)

    monkeypatch.setattr(errors.InternalError, "__init__", spy)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv_for(str(path), tmp))
    assert not broken, (spec, broken)
    assert rc in allowed, (spec, rc, err.getvalue())
    if rc == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert err.getvalue() == ""
    return rc, out.getvalue()


def test_cli_phi_t_fuzz(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def specs(draw):
        field = draw(st.sampled_from(SMALL_FIELDS))
        coord = _element(st, field)
        phi = draw(st.lists(coord, min_size=1, max_size=3))
        phi.append(draw(coord.filter(_nonzero)))
        return _mutated(draw, st, {"field": field, "phi_T": phi})

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(specs(), st.sampled_from(["analyze", "endring"]))
    def run(spec, command):
        _run_fuzzed(monkeypatch, lambda path, tmp: [command, "--input", path], spec)

    run()


def test_cli_ideal_spec_fuzz(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def specs(draw):
        # A-coordinate vectors in the End basis (of rank 2) of F4_MODULE
        poly = st.lists(st.integers(0, 1), min_size=1, max_size=3)
        gens = draw(st.lists(st.lists(poly, min_size=2, max_size=2), min_size=1, max_size=3))
        return _mutated(draw, st, {"generators": gens})

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(specs(), st.sampled_from(["ideal-act", "kernel-test"]))
    def run(ideal, command):
        def argv(path, tmp):
            mod = pathlib.Path(tmp) / "module.json"
            mod.write_text(json.dumps(F4_MODULE))
            return [command, "--input", str(mod), "--ideal", path]

        _run_fuzzed(monkeypatch, argv, ideal)

    run()


def test_cli_census_spec_fuzz(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def specs(draw):
        field = draw(st.sampled_from(SMALL_FIELDS))
        skip = draw(st.booleans())
        # validated censuses stay at rank <= 2, where each takes well
        # under a second on these fields
        spec = {"field": field, "rank": draw(st.integers(1, 3 if skip else 2))}
        if draw(st.booleans()):
            spec["t"] = draw(_element(st, field))
        return skip, _mutated(draw, st, spec)

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @hypothesis.given(specs())
    def run(case):
        skip, spec = case
        rc, out = _run_fuzzed(
            monkeypatch,
            lambda path, tmp: ["census", "--input", path] + (["--skip-validate"] if skip else []),
            spec,
            allowed=(0, 1, 2),
        )
        if rc == 1:
            # exit 1 only from a failed verification
            assert not skip and '"record":"violation"' in out, out

    run()

def test_cli_analyze(tmp_path, capsys):
    mod = _write(tmp_path, "mod.json", EX38_MODULE)
    rc = main(["analyze", "--input", mod])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["m"] == "x^3+T*x^2+x+(T^4+T+1)"


def _write_ex38_ideal(tmp_path) -> str:
    """The ideal (e2, e3) of Example 3.8's End, in the coordinates of the
    basis the endring report emits."""
    phi = module_from_json(EX38_MODULE)
    end = endomorphism_ring(phi)
    tower = phi.tower
    t = tower.gen()
    e2 = SkewPoly(tower, [tower.one, tower.zero, tower.zero, tower.zero, tower.one])
    e3 = SkewPoly(
        tower,
        [t**3 + t**2 + t, tower.zero, t**3 + t**2 + tower.one, t**3 + t, t**3 + t**2, tower.one],
    )
    gens = []
    for e in (e2, e3):
        coords = coords_in_skew_basis(phi, end.skew_basis, e)
        gens.append([apoly_to_json(c) for c in coords])
    return _write(tmp_path, "ideal.json", {"generators": gens})


def test_cli_endring_then_ideal_act(tmp_path, capsys):
    mod = _write(tmp_path, "mod.json", EX38_MODULE)
    rc = main(["endring", "--input", mod, "--format", "json"])
    assert rc == 0
    endrep = json.loads(capsys.readouterr().out)
    assert endrep["rank"] == 3

    ideal = _write_ex38_ideal(tmp_path)
    rc = main(["ideal-act", "--input", mod, "--ideal", ideal])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["u_degree"] == 3
    assert report["kernel"] is False
    assert report["witness"] == ["T^2+1", "0", "0"]  # (T+1)^2 over F_2
    assert report["ideal_norm"] == "T^3+T^2+T+1"

    rc = main(["kernel-test", "--input", mod, "--ideal", ideal])
    assert rc == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["kernel"] is False


# -- modules shared across the requests of one process --


@pytest.fixture
def fresh_modules():
    """An empty module cache before the test and after it."""
    shared_module.cache_clear()
    yield
    shared_module.cache_clear()


def test_equal_specs_share_one_module(fresh_modules):
    # the scalar 1 is the one-digit array [1]: the same phi_T
    spelled = dict(EX38_MODULE, phi_T=[[0, 1, 0, 0], [0], [0, 0, 0, 1], 1])
    phi = module_from_json(EX38_MODULE)
    assert module_from_json(copy.deepcopy(EX38_MODULE)) is phi
    assert module_from_json(spelled) is phi
    assert module_from_json(dict(EX38_MODULE, phi_T=[[0, 1], [1]])) is not phi


def _session(capsys, mod, ideal, cold):
    """The outputs and exit codes of analyze, endring, ideal-act and
    kernel-test on one module, the cache cleared before each when cold."""
    outs = []
    for argv in (
        ["analyze", "--input", mod],
        ["endring", "--input", mod],
        ["ideal-act", "--input", mod, "--ideal", ideal],
        ["kernel-test", "--input", mod, "--ideal", ideal],
        ["endring", "--input", mod, "--format", "text"],
    ):
        if cold:
            shared_module.cache_clear()
        rc = main(argv)
        outs.append((rc, capsys.readouterr()))
    return outs


@pytest.mark.parametrize("case", ["ex38", "f256-rank3"])
def test_cli_session_builds_profile_and_end_once(
    tmp_path, capsys, monkeypatch, fresh_modules, case
):
    import drinfeld.invariants as invariants
    import drinfeld.orders as orders

    if case == "ex38":
        mod = _write(tmp_path, "mod.json", EX38_MODULE)
        ideal = _write_ex38_ideal(tmp_path)
    else:
        # the golden ideal-act case, on the logarithm kernels of F_256
        module, gens, _ = GOLDEN_IDEAL_ACT_DIGESTS[case]
        mod = _write(tmp_path, "mod.json", module)
        ideal = _write(tmp_path, "ideal.json", gens)
    cold = _session(capsys, mod, ideal, cold=True)

    builds = {"profile": 0, "end": 0}

    def counted(key, build):
        def spy(module):
            builds[key] += 1
            return build(module)

        return spy

    monkeypatch.setattr(invariants, "FrobeniusProfile", counted("profile", invariants.FrobeniusProfile))
    monkeypatch.setattr(
        orders, "build_endomorphism_ring", counted("end", orders.build_endomorphism_ring)
    )
    shared_module.cache_clear()
    warm = _session(capsys, mod, ideal, cold=False)
    assert builds == {"profile": 1, "end": 1}
    assert [rc for rc, _ in warm] == [0] * 5
    # byte for byte what a process per request prints
    assert warm == cold


def test_cli_invalid_spec_after_a_valid_one(tmp_path, capsys, fresh_modules):
    mod = _write(tmp_path, "mod.json", EX38_MODULE)
    bad = {
        "constant": _write(tmp_path, "constant.json", dict(EX38_MODULE, phi_T=[[0, 1]])),
        "reducible": _write(
            tmp_path, "reducible.json", dict(EX38_MODULE, field=dict(EX38_FIELD, g=[1, 0, 0, 0, 1]))
        ),
        "digit": _write(tmp_path, "digit.json", dict(EX38_MODULE, phi_T=[[0, 2], [1]])),
    }
    for name, path in bad.items():
        shared_module.cache_clear()
        assert main(["analyze", "--input", path]) == 2
        alone = capsys.readouterr()
        assert alone.out == "" and alone.err.startswith("input error: ")
        assert main(["analyze", "--input", mod]) == 0
        capsys.readouterr()
        # twice: a failed construction is not cached
        for _ in range(2):
            assert main(["analyze", "--input", path]) == 2, name
            assert capsys.readouterr() == alone


def test_cli_noncommutative_endring_fails_alike_twice(tmp_path, capsys, fresh_modules):
    # tau^2 over F_4: s = 1 < r = 2
    spec = {"field": {"p": 2, "e": 1, "h": [0, 1], "n": 2, "g": [1, 1, 1]}, "phi_T": [0, 0, 1]}
    path = _write(tmp_path, "noncomm.json", spec)
    results = []
    for _ in range(2):
        rc = main(["endring", "--input", path])
        results.append((rc, capsys.readouterr()))
    assert results[0] == results[1]
    rc, captured = results[0]
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: [Ftilde:F] = 1 < rank 2\n"


def test_cli_malformed_ideal_spec_fails_before_end(tmp_path, capsys, monkeypatch, fresh_modules):
    # keys, shape and coefficients are checked before End is built; only a
    # vector longer than End's basis waits for it
    import drinfeld.orders as orders

    builds = []
    build = orders.build_endomorphism_ring

    def spy(module):
        builds.append(module)
        return build(module)

    monkeypatch.setattr(orders, "build_endomorphism_ring", spy)
    mod = _write(tmp_path, "mod.json", EX38_MODULE)
    for command in ("ideal-act", "kernel-test"):
        for spec, message in (
            ({"generators": [[[1]]], "den": [1, 1]}, "unknown field 'den' (expected 'generators')"),
            ({"generators": [1]}, "field 'generators': expected an array, got 1"),
            ({"generators": [[[1, 2]]]}, "field 'generators': expected an integer in [0, 2), got 2"),
        ):
            path = _write(tmp_path, "ideal.json", spec)
            assert main([command, "--input", mod, "--ideal", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: {path}: {message}\n"
    assert builds == []
    path = _write(tmp_path, "ideal.json", {"generators": [[[1]] * 4]})
    assert main(["ideal-act", "--input", mod, "--ideal", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: {path}: field 'generators': generator vector longer than the basis\n"
    assert len(builds) == 1


def test_module_cache_is_bounded(fresh_modules):
    bound = shared_module.cache_info().maxsize

    def spec(c):
        # phi_T = t + g_1 tau + g_2 tau^2 + tau^3, g_1 and g_2 the digits of c
        bits = [c >> k & 1 for k in range(8)]
        return dict(EX38_MODULE, phi_T=[[0, 1], bits[:4], bits[4:], 1])

    for extra in (0, 1):
        shared_module.cache_clear()
        first = module_from_json(spec(0))
        for c in range(1, bound + extra):
            module_from_json(spec(c))
        assert shared_module.cache_info().currsize == bound
        again = module_from_json(spec(0))
        assert again == first
        # kept after bound - 1 other modules, rebuilt after bound others
        assert (again is first) is (extra == 0)


def test_import_leaves_out_dataclasses_and_inspect():
    import os
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, drinfeld, drinfeld.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_census_deterministic(tmp_path):
    spec = {"field": {"p": 2, "e": 1, "h": [0, 1], "n": 1, "g": [1, 1]}, "rank": 2}
    inp = _write(tmp_path, "census.json", spec)
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert main(["census", "--input", inp, "--out", str(out1)]) == 0
    assert main(["census", "--input", inp, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = [json.loads(line) for line in out1.read_text().splitlines()]
    kinds = {rec["record"] for rec in lines}
    assert kinds == {"header", "class", "validation"}
    header = lines[0]
    assert header["schema"] == 1 and header["rank"] == 2
    validations = [rec for rec in lines if rec["record"] == "validation"]
    assert all(
        v["ideal_class_action"].get("bijective", True) for v in validations
    )


def test_cli_paper_examples(tmp_path, capsys):
    rc = main(["paper-examples", "--format", "text"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS]" in out and "[DISCREPANCY]" in out and "[FAIL]" not in out


def test_cli_input_errors(tmp_path, capsys):
    assert main(["analyze", "--input", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--input", str(bad)]) == 2
    reducible = _write(
        tmp_path,
        "red.json",
        {"field": {"p": 2, "e": 1, "h": [0, 1], "n": 2, "g": [1, 0, 1]}, "phi_T": [[0], [1]]},
    )
    assert main(["analyze", "--input", reducible]) == 2
    capsys.readouterr()
    # size and shape guards fire before any expensive check: a huge prime
    # is not trial-divided, and a negative degree does not index g or h
    for field in (
        {"p": 1000000000000000003, "e": 1, "h": [0, 1], "n": 1, "g": [1, 1]},
        {"p": 2, "e": 1, "h": [0, 1], "n": -1, "g": []},
        {"p": 2, "e": -1, "h": [], "n": 1, "g": [0, 1]},
        {"p": 2, "e": 0, "h": [1], "n": 1, "g": [0, 1]},
    ):
        mod = _write(tmp_path, "field.json", {"field": field, "phi_T": [[0], [1]]})
        assert main(["analyze", "--input", mod]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("input error: ")
        if field["e"] < 1:
            assert captured.err == "input error: e must be at least 1\n"
    # valid JSON that is not an object, as a module, an ideal, a census
    # spec, or the field inside either
    mod = _write(tmp_path, "mod.json", EX38_MODULE)
    for value in ([1, 2], "x", None, 3):
        path = _write(tmp_path, "value.json", value)
        for argv in (
            ["analyze", "--input", path],
            ["census", "--input", path],
            ["ideal-act", "--input", mod, "--ideal", path],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: {path}: expected a JSON object\n"
        for command, spec in (
            ("analyze", {"field": value, "phi_T": [[0], [1]]}),
            ("census", {"field": value, "rank": 2}),
        ):
            path = _write(tmp_path, "spec.json", spec)
            assert main([command, "--input", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: {path}: field 'field': expected a JSON object\n"
    # an array field given a scalar says what it expected, not that the
    # scalar is not iterable
    for spec, field, value in (
        (dict(EX38_MODULE, phi_T=5), "phi_T", 5),
        (dict(EX38_MODULE, field=dict(EX38_FIELD, h=5)), "h", 5),
        (dict(EX38_MODULE, field=dict(EX38_FIELD, g=7)), "g", 7),
    ):
        path = _write(tmp_path, "array.json", spec)
        assert main(["analyze", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: {path}: field '{field}': expected an array, got {value}\n"
        )
    for generators in (5, [5]):
        path = _write(tmp_path, "ideal.json", {"generators": generators})
        assert main(["ideal-act", "--input", mod, "--ideal", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: {path}: field 'generators': expected an array, got 5\n"
        )


def test_cli_unknown_keys_are_input_errors(tmp_path, capsys):
    # a misspelt or unsupported key exits 2 with one line naming it, in
    # each spec and in the field inside a module or census spec
    mod = _write(tmp_path, "mod.json", EX38_MODULE)
    census = {"field": EX38_FIELD, "rank": 2}
    cases = [
        (["analyze"], dict(EX38_MODULE, name="ex38"), "name"),
        (["endring"], dict(EX38_MODULE, field=dict(EX38_FIELD, q=16)), "q"),
        (["census", "--skip-validate"], dict(census, T=[0, 1]), "T"),
        (["census", "--skip-validate"], dict(census, field=dict(EX38_FIELD, G=[1])), "G"),
        (["census", "--skip-validate"], dict(census, seed=3), "seed"),
        (["ideal-act", "--input", mod, "--ideal"], {"generators": [[[1], [0], [0]]], "den": [1, 1]}, "den"),
        (["kernel-test", "--input", mod, "--ideal"], {"generators": [[[1], [0], [0]]], "gens": []}, "gens"),
    ]
    for argv, spec, key in cases:
        path = _write(tmp_path, "spec.json", spec)
        argv = argv + [path] if argv[-1] == "--ideal" else [argv[0], "--input", path] + argv[1:]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"input error: {path}: unknown field {key!r} (expected ")
    # the library rejects them too, without a file to name
    with pytest.raises(ValueError, match="^unknown field 'x' \\(expected 'p', 'e', 'h', 'n', 'g'\\)$"):
        field_from_json(dict(EX38_FIELD, x=1))
    with pytest.raises(ValueError, match="unknown field 'phi_t'"):
        module_from_json({"field": EX38_FIELD, "phi_t": EX38_MODULE["phi_T"], "phi_T": EX38_MODULE["phi_T"]})


def test_cli_parser_is_shared_and_parses_independently(tmp_path, capsys):
    from drinfeld.cli import build_parser

    assert build_parser() is build_parser()
    a = build_parser().parse_args(
        ["census", "--input", "c.json", "--skip-validate", "--max-norm-deg", "3"]
    )
    b = build_parser().parse_args(["analyze", "--input", "m.json", "--format", "text"])
    c = build_parser().parse_args(["census", "--input", "d.json"])
    assert (a.command, a.input, a.skip_validate, a.max_norm_deg) == ("census", "c.json", True, 3)
    assert (b.command, b.input, b.format) == ("analyze", "m.json", "text")
    assert not hasattr(b, "skip_validate") and not hasattr(a, "format")
    assert (c.input, c.skip_validate, c.max_norm_deg) == ("d.json", False, 6)

    # the text format of one call does not carry over into the next
    mod = _write(tmp_path, "mod.json", EX38_MODULE)
    assert main(["analyze", "--input", mod, "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert main(["analyze", "--input", mod]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == "x^3+T*x^2+x+(T^4+T+1)"
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)


def test_cli_jobs_validation(tmp_path, capsys):
    # --jobs was parsed but did nothing, so it is no longer accepted
    mod = _write(tmp_path, "mod.json", EX38_MODULE)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", mod, "--jobs", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--seed", "9"], ["census", "--format", "text"], ["census", "--seed", "3"]],
)
def test_cli_rejects_flags_the_subcommand_ignores(tmp_path, capsys, argv):
    mod = _write(tmp_path, "mod.json", EX38_MODULE)
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--input", mod] + argv[1:])
    assert exc.value.code == 2
    capsys.readouterr()


F2_FIELD = {"p": 2, "e": 1, "h": [0, 1], "n": 1, "g": [1, 1]}


@pytest.mark.parametrize(
    "command,spec,field",
    [
        ("analyze", {"field": F2_FIELD}, "phi_T"),
        ("census", {"field": F2_FIELD}, "rank"),
    ],
)
def test_cli_missing_field_names_file_and_field(tmp_path, capsys, command, spec, field):
    path = _write(tmp_path, "m.json", spec)
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {path}: missing field '{field}'\n"


@pytest.mark.parametrize("rank", [0, -1, 1.5, "2", True])
def test_cli_census_rejects_bad_rank(tmp_path, capsys, rank):
    inp = _write(tmp_path, "census.json", {"field": F2_FIELD, "rank": rank})
    assert main(["census", "--input", inp]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "rank must be a positive integer" in captured.err


@pytest.mark.parametrize("flag", ["--max-norm-deg", "--lin-equiv-bound"])
def test_cli_census_rejects_negative_bounds(tmp_path, capsys, flag):
    inp = _write(tmp_path, "census.json", {"field": F2_FIELD, "rank": 2})
    assert main(["census", "--input", inp, flag, "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {flag} must be at least 0\n"


def test_cli_census_huge_lin_equiv_bound_exits_as_fast_as_a_large_one(tmp_path, capsys):
    # the size guard decides q^(s(bound+1)) > limit without building the
    # power: 10^9 stops as soon as 10^6 does, at the first weakly
    # equivalent pair of the validated F_9 rank-2 census
    spec = {"field": {"p": 3, "e": 1, "h": [0, 1], "n": 2, "g": [2, 1, 1]}, "rank": 2, "t": [2, 0]}
    inp = _write(tmp_path, "census.json", spec)
    times = {}
    for bound in (10**6, 10**9):
        start = time.process_time()
        assert main(["census", "--input", inp, "--lin-equiv-bound", str(bound)]) == 2
        times[bound] = time.process_time() - start
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: linear-equivalence search space beyond desk scale\n"
    assert times[10**9] < 3 * times[10**6] + 0.5, times


@pytest.mark.parametrize(
    "command,spec,field",
    [
        ("analyze", dict(EX38_MODULE, field=dict(EX38_FIELD, p=True)), "p"),
        ("analyze", dict(EX38_MODULE, field=dict(EX38_FIELD, n=4.0)), "n"),
        ("analyze", dict(EX38_MODULE, field=dict(EX38_FIELD, e="1")), "e"),
        ("analyze", dict(EX38_MODULE, field=dict(EX38_FIELD, h=[0, 3])), "h"),
        ("analyze", dict(EX38_MODULE, field=dict(EX38_FIELD, g=[1, 1, 0, 0, 3])), "g"),
        # 7 over F_2 used to be reduced to 1, "1" parsed and true read as 1
        ("analyze", dict(EX38_MODULE, phi_T=[[0, 7], [1]]), "phi_T"),
        ("analyze", dict(EX38_MODULE, phi_T=[[0, -1], [1]]), "phi_T"),
        ("analyze", dict(EX38_MODULE, phi_T=[[0, "1"], [1]]), "phi_T"),
        ("analyze", dict(EX38_MODULE, phi_T=[[0, True], [1]]), "phi_T"),
        ("census", {"field": F2_FIELD, "rank": 2, "t": [1.0]}, "t"),
    ],
)
def test_cli_rejects_coerced_values(tmp_path, capsys, command, spec, field):
    path = _write(tmp_path, "m.json", spec)
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {path}: field '{field}': ")
    assert captured.err.count("\n") == 1


def test_cli_rejects_coerced_ideal_generator(tmp_path, capsys):
    mod = _write(tmp_path, "mod.json", EX38_MODULE)
    ideal = _write(tmp_path, "ideal.json", {"generators": [[[1, 1], 1.5]]})
    assert main(["ideal-act", "--input", mod, "--ideal", ideal]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"input error: {ideal}: field 'generators': expected an integer in [0, 2), got 1.5\n"
    )


def test_cli_closed_stdout_is_not_an_input_error(tmp_path):
    """A reader that closes the output early (`drinfeld ... | head -0`)
    gets neither an input error nor a traceback: exit 141, as for a process
    ended by SIGPIPE, and nothing on stderr."""
    import os
    import subprocess
    import sys

    mod = _write(tmp_path, "mod.json", EX38_MODULE)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "drinfeld", "endring", "--input", mod],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141, proc.stderr
        assert proc.stderr == b""
