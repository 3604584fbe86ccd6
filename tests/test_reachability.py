"""Every definition in `src/drinfeld` is reached by a command, or is on an
allow-list that says why it stays.

A fresh interpreter installs a `sys.setprofile` hook before it imports
`drinfeld`, runs a small command mix through `cli.main` and reports the
code objects it entered. So module import, field tables and the caches of
the CLI are built under the hook, whatever ran earlier in the test
session. A non-dunder function or method that was never entered and is
not allow-listed fails the test; so does an allow-list entry that names
no definition, or one that the mix reaches (the list cannot go stale).

The hook sees only the paths the mix takes: a definition it misses may
still be reached by an input the mix does not give (for instance
`FracIdeal.scale`, reached only for fractional ideals in `act`). Confirm
a deletion with a search of the sources, not with this test alone.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "drinfeld"

EX38_MODULE = {
    "field": {"p": 2, "e": 1, "h": [0, 1], "n": 4, "g": [1, 1, 0, 0, 1]},
    "phi_T": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
}
# I = (1 + pi, (pi + 1)^2 / (T + 1)) in the basis of End: fractional
# over A[pi], the non-kernel ideal of the example
EX38_IDEAL = {"generators": [[[1], [1], []], [[], [], [1]]]}
UNIT_IDEAL = {"generators": [[[1]]]}
# F_16 as F_4[y]/(...): scalars of F_q = F_4 are digit arrays over F_2
E2_MODULE = {
    "field": {"p": 2, "e": 2, "h": [1, 1, 1], "n": 2, "g": [[1, 0], [0, 1], [1, 0]]},
    "phi_T": [[[0, 1], [0, 0]], [[1, 0], [1, 0]], [[0, 0], [1, 0]]],
}
CENSUSES = {
    "f4r2": {"field": {"p": 2, "e": 1, "h": [0, 1], "n": 2, "g": [1, 1, 1]}, "rank": 2},
    "f3r3": {"field": {"p": 3, "e": 1, "h": [0, 1], "n": 1, "g": [1, 1]}, "rank": 3},
    # rank 1 partitions by norm fibres, not by the log tables
    "f9r1": {"field": {"p": 3, "e": 1, "h": [0, 1], "n": 2, "g": [2, 1, 1]}, "rank": 1},
}

# "module.qualname" -> why it stays although the mix does not reach it
ALLOWED = {
    "modules.find_isomorphism": "public API: one solve of the degree-0 Hom system; action tests compare images with it",
    "action.annihilator_ideal": "public API: the annihilator for a given u_I; act calls its body _annihilator with the realizations it already built",
    "action.transport_ideal": "the ideal action beyond the ordinary/prime-field corollary will call it",
    "skew.rgcd_bezout": "public API: right Bezout coefficients of rgcd, tested as an acceptance criterion",
    "census.enumerate_modules": "public API: the modules a census enumerates, tested as an acceptance criterion",
    "census._candidate_vectors": "enumerate_modules lists the candidates with it; the tests' candidate-walk oracle reads it",
    "apoly.APoly.inverse_mod": "the polynomial path of k above 2^12 elements, which the mix does not enter",
    "skew.SkewPoly.zero": "rgcd_bezout starts its cofactors from it",
    "lattices.ALattice.scale": "FracIdeal.scale rescales its lattice with it",
    "orders.FracIdeal.scale": "act and colon rescale fractional ideals with it; CLI ideal specs are integral in End",
    "fields.Fq.add": "the per-scalar reference the tests check KElem sums and the F_q elimination kernels against",
    "fields.Fq.sub": "the per-scalar reference the tests check APoly and KElem subtraction against",
    "fields.Fq.neg": "the per-scalar reference the tests negate right-hand sides and check negation against",
    "serialize._where": "input errors name the file with it; the mix gives no malformed input",
    "serialize.module_to_json": "the inverse of module_from_json, for writing a module spec (tested round trip)",
}


def commands(tmp: Path) -> list[list[str]]:
    """The command mix: argv lists for `cli.main`, inputs written to tmp."""

    def write(name: str, data: dict) -> str:
        path = tmp / name
        path.write_text(json.dumps(data))
        return str(path)

    mod = write("ex38.json", EX38_MODULE)
    argv = [["paper-examples", "--format", "text"]]
    for name, spec in CENSUSES.items():
        argv.append(["census", "--input", write(f"{name}.json", spec)])
    for spec in (mod, write("e2.json", E2_MODULE)):
        argv.append(["analyze", "--input", spec, "--format", "text"])
    argv.append(["endring", "--input", mod, "--format", "text"])
    for ideal in (write("unit.json", UNIT_IDEAL), write("ideal.json", EX38_IDEAL)):
        for command in ("ideal-act", "kernel-test"):
            argv.append([command, "--input", mod, "--ideal", ideal, "--format", "text"])
    return argv


def trace_mix(tmp: str) -> None:
    """Run the mix under the hook and print the (file, first line) of
    every `drinfeld` code object entered, as JSON. Runs in a fresh
    interpreter: `drinfeld` must not be imported before the hook."""
    entered = set()
    prefix = str(PACKAGE) + os.sep

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        from drinfeld.cli import main

        for argv in commands(Path(tmp)):
            out = str(Path(tmp) / "out.txt")
            code = main(argv + ["--out", out])
            if code != 0:
                raise SystemExit(f"{argv} exited {code}")
    finally:
        sys.setprofile(None)
    print(json.dumps(sorted(entered)))


def definitions() -> dict[tuple[str, int], str]:
    """Every function and method of the package, nested ones included, as
    (file, first line of its code object) -> "module.qualname"; a
    decorated definition's code starts at its first decorator."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{module}.{prefix}{child.name}"
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def is_dunder(qualname: str) -> bool:
    name = qualname.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_reached_or_allowed(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    run = subprocess.run(
        [sys.executable, "-c", f"import test_reachability as t; t.trace_mix({str(tmp_path)!r})"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    entered = {tuple(key) for key in json.loads(run.stdout)}
    defs = definitions()
    unreached = sorted(
        name for key, name in defs.items() if key not in entered and not is_dunder(name)
    )
    reached = {name for key, name in defs.items() if key in entered}
    assert [name for name in unreached if name not in ALLOWED] == []
    assert sorted(set(ALLOWED) - set(defs.values())) == []
    assert sorted(set(ALLOWED) & reached) == []
