import json
import pathlib
from itertools import islice

import pytest

import pathalg.cli
from pathalg import PathAlgError, Quiver
from pathalg.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, EXIT_TRUNCATED, run
from pathalg.presentation import Generator, ModulePresentation
from pathalg.problem import parse
from pathalg.quiver import normal_word_levels
from tests.conftest import ROOT, load_module

FIXTURES = ROOT / "fixtures"
SCHEMA = json.loads((ROOT / "docs" / "output-schema.json").read_text())


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run_json(capsys, argv):
    rc = run(argv + ["--json", "-"])
    out = capsys.readouterr().out
    return rc, json.loads(out)


def check_schema(doc, schema=None, path="$"):
    """Minimal structural validation against the shipped schema: required
    keys, enums, and per-property types (object/array/string/integer)."""
    schema = schema or SCHEMA
    for key in schema.get("required", []):
        assert key in doc, f"{path}: missing required key {key}"
    for key, sub in schema.get("properties", {}).items():
        if key not in doc:
            continue
        value = doc[key]
        if "const" in sub:
            assert value == sub["const"], f"{path}.{key}"
        if "enum" in sub:
            assert value in sub["enum"], f"{path}.{key}"
        types = sub.get("type")
        if types:
            types = [types] if isinstance(types, str) else types
            mapping = {"object": dict, "array": list, "string": str, "boolean": bool, "integer": int, "null": type(None)}
            assert any(isinstance(value, mapping[t]) for t in types), f"{path}.{key}: {value!r} not {types}"
        if sub.get("type") == "object":
            check_schema(value, sub, f"{path}.{key}")
        if sub.get("type") == "array" and isinstance(sub.get("items"), dict) and sub["items"].get("type") == "object":
            for i, item in enumerate(value):
                check_schema(item, sub["items"], f"{path}.{key}[{i}]")


def test_groebner_command(capsys):
    rc, doc = run_json(capsys, ["groebner", fixture("two_loop_cube.alg")])
    assert rc == EXIT_OK
    assert doc["groebner"]["complete"]
    assert sorted(doc["groebner"]["tips"]) == ["x*x*x", "x*y", "y*x", "y*y*y*y"]
    assert doc["groebner"]["normal_word_counts"] == [1, 2, 2, 1, 0, 0, 0, 0, 0]
    check_schema(doc)


def test_overlaps_command(capsys):
    rc, doc = run_json(capsys, ["overlaps", fixture("chain_example_1.alg"), "--max-n", "3", "--quasi"])
    assert rc == EXIT_OK
    level3 = doc["overlaps"]["levels"][3]
    assert sorted(o["word"] for o in level3["overlaps"]) == ["x*x*x*x*x*x", "x*x*x*x*x*y*y*y"]
    assert {"word": "x*x*x*x*x*y*y*y", "predecessor": "x*x*x*x"} in level3["overlaps"]
    assert any(q["word"] == "x*x*x*y*y*y" and q["context"] == "x*x" for q in level3["quasi"])
    check_schema(doc)


def test_verify_command_pass(capsys):
    rc, doc = run_json(capsys, ["verify", fixture("dual_numbers.alg"), "--module", "A0",
                                "--max-n", "5", "--max-degree", "12"])
    assert rc == EXIT_OK
    assert all(v["status"] == "PASS" for v in doc["verdicts"])
    check_schema(doc)


def test_verify_two_loop_cube(capsys):
    rc, doc = run_json(capsys, ["verify", fixture("two_loop_cube.alg"), "--module", "A0", "--max-n", "4"])
    assert rc == EXIT_OK
    assert all(v["status"] == "PASS" for v in doc["verdicts"])


def test_check_linear_fails_on_cube(capsys):
    rc, doc = run_json(capsys, ["check", fixture("two_loop_cube.alg"), "--determined", "linear",
                                "--module", "A0", "--max-n", "2"])
    assert rc == EXIT_FAIL
    assert doc["determined"]["violation"] == {"degree": 3, "n": 2}
    check_schema(doc)


def test_check_does_not_certify_from_a_truncated_resolution(capsys):
    # Through degree 2 the cube's P_0..P_2 look linear, but the kernel is
    # still alive at the cap, and P_2 has a generator in degree 3.
    argv = ["check", fixture("two_loop_cube.alg"), "--determined", "linear", "--module", "A0", "--max-n", "2"]
    rc, doc = run_json(capsys, argv + ["--max-degree", "2"])
    assert rc == EXIT_TRUNCATED and doc["exit_code"] == EXIT_TRUNCATED
    assert doc["determined"]["violation"] is None and doc["determined"]["holds"] is None
    check_schema(doc)
    run(argv + ["--max-degree", "2"])
    assert "cannot certify" in capsys.readouterr().out
    rc, doc = run_json(capsys, argv + ["--max-degree", "3"])
    assert rc == EXIT_FAIL and doc["determined"]["violation"] == {"degree": 3, "n": 2}


def test_check_s_koszul(capsys):
    rc, doc = run_json(capsys, ["check", fixture("truncated_s3.alg"), "--s-koszul", "3"])
    assert rc == EXIT_OK and doc["s_koszul"]["holds"]
    rc, doc = run_json(capsys, ["check", fixture("two_loop_cube.alg"), "--s-koszul", "4"])
    assert rc == EXIT_FAIL and not doc["s_koszul"]["holds"]


def test_check_determined_chi(capsys):
    rc, doc = run_json(capsys, ["check", fixture("truncated_s3.alg"), "--determined", "chi:3",
                                "--module", "A0", "--max-n", "5", "--max-degree", "16"])
    assert rc == EXIT_OK and doc["determined"]["holds"]


def test_check_determined_downset_and_explicit(capsys):
    rc, doc = run_json(capsys, ["check", fixture("truncated_s3.alg"), "--determined", "chi-down:3",
                                "--module", "A0", "--max-n", "4", "--max-degree", "16"])
    assert rc == EXIT_OK and doc["determined"]["holds"]
    rc, doc = run_json(capsys, ["check", fixture("dual_numbers.alg"),
                                "--determined", "explicit:0|1|2", "--module", "A0", "--max-n", "2",
                                "--max-degree", "8"])
    assert rc == EXIT_OK and doc["determined"]["holds"]
    rc, _doc = run_json(capsys, ["check", fixture("dual_numbers.alg"), "--determined", "bogus:!",
                                 "--module", "A0"])
    assert rc == EXIT_INPUT


@pytest.mark.parametrize("modes", [["--s-koszul", "2", "--determined", "linear"],
                                   ["--determined", "chi:3", "--s-koszul", "3"],
                                   ["--s-koszul", "3", "--determined", "chi:3"]])
def test_check_modes_are_mutually_exclusive(capsys, modes):
    with pytest.raises(SystemExit) as exc:
        run(["check", fixture("truncated_s3.alg"), "--module", "A0"] + modes)
    assert exc.value.code == EXIT_INPUT
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("s", ["1", "-3"])
def test_s_koszul_below_two_is_refused_before_completion(capsys, monkeypatch, s):
    # On a truncated basis this used to exit 3 with "cannot certify".
    def refuse(*args):
        raise AssertionError("the basis was completed before s was checked")

    monkeypatch.setattr(pathalg.cli, "groebner_basis", refuse)
    rc = run(["check", fixture("sklyanin_235.alg"), "--s-koszul", s, "--max-degree", "8"])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT and not captured.out
    assert captured.err == "error: need s >= 2\n"


@pytest.mark.parametrize("spec", ["chi:1", "chi-down:1", "chi:0", "chi-down:-3"])
def test_chi_spec_below_two_is_refused_before_resolving(capsys, monkeypatch, spec):
    def refuse(*args):
        raise AssertionError("the module was resolved before its spec was checked")

    monkeypatch.setattr(pathalg.cli, "build_model", refuse)
    rc = run(["check", fixture("truncated_s3.alg"), "--determined", spec, "--module", "A0"])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().out == f"error: bad collection spec {spec!r}\n"


def test_window_command(capsys):
    rc, doc = run_json(capsys, ["window", fixture("dual_numbers.alg"), "--module", "A0",
                                "--max-n", "4", "--method", "qo"])
    assert rc == EXIT_OK
    assert [(w["lo"], w["hi"]) for w in doc["windows"]] == [(1, 1), (2, 2), (3, 3), (4, 4)]
    check_schema(doc)


def test_resolve_command(capsys):
    rc, doc = run_json(capsys, ["resolve", fixture("two_loop_cube.alg"), "--module", "A0", "--max-n", "2"])
    assert rc == EXIT_OK
    assert doc["resolution"]["degrees"] == [[0], [1, 1], [2, 2, 3]]
    assert doc["resolution"]["hilbert"][:5] == [1, 0, 0, 0, 0]
    check_schema(doc)


def test_selfcheck_command(capsys):
    rc, doc = run_json(capsys, ["selfcheck", fixture("dual_numbers.alg"), "--seed", "9",
                                "--instances", "15", "--max-n", "4"])
    assert rc == EXIT_OK
    assert doc["selfcheck"]["instances"] == 15
    assert doc["selfcheck"]["failures"] == []
    check_schema(doc)


def test_window_overlap_method(capsys):
    rc, doc = run_json(capsys, ["window", fixture("dual_numbers.alg"), "--module", "A0",
                                "--max-n", "3", "--method", "o"])
    assert rc == EXIT_OK
    assert [w["method"] for w in doc["windows"]] == ["overlap"] * 3
    assert [(w["lo"], w["hi"]) for w in doc["windows"]] == [(1, 1), (2, 2), (3, 3)]


def test_window_survivor_degrees_count_the_generator_shift(capsys, tmp_path):
    # A survivor's degree is its generator's degree plus its tip's length:
    # g*x and g*y^3 for g at 0, and h*y for h at 2.
    path = tmp_path / "shifted.alg"
    path.write_text(pathlib.Path(fixture("two_loop_cube.alg")).read_text()
                    + "\n[module S]\ngenerator g : e @ 0\ngenerator h : e @ 2\nrelation g*x\nrelation h*y\n")
    rc, doc = run_json(capsys, ["window", str(path), "--module", "S", "--max-n", "3"])
    assert rc == EXIT_OK
    assert doc["syzygy"] == {"absorbed_count": 5, "alive_at_cap": False, "degree_cap": 12, "max_degree": 3,
                             "min_degree": 1, "survivor_count": 3, "survivor_degrees": [1, 3, 3]}
    assert [(w["lo"], w["hi"]) for w in doc["windows"]] == [(1, 3), (2, 6), (3, 7)]


TRUNCATED = """
[quiver]
vertex e
arrow x : e -> e
arrow y : e -> e

[ideal]
x*x - x*y

[module A0]
generator g : e @ 0
relation g*x
relation g*y
"""


def test_exit_code_truncation_without_certificate(capsys, tmp_path):
    # x*x - x*y completes to an infinite basis (tips x y^k x).  Windows read
    # chain extrema, which a tip above the cap can change: verify and window
    # exit 3.  A resolution through the cap is exact from the truncated basis.
    path = tmp_path / "infinite.alg"
    path.write_text(TRUNCATED)
    for command in ("verify", "window"):
        rc = run([command, str(path), "--module", "A0", "--max-n", "3"])
        capsys.readouterr()
        assert rc == EXIT_TRUNCATED, command
    rc, doc = run_json(capsys, ["resolve", str(path), "--module", "A0", "--max-n", "3"])
    assert rc == EXIT_OK and doc["groebner"]["status"] == "truncated-at-degree-12"
    assert doc["resolution"]["degrees"] == [[0], [1, 1], [2], []]
    rc = run(["groebner", str(path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK and "truncated" in out


def test_explicit_groebner_cap_is_honoured(capsys, tmp_path):
    # Completion stops at the run's cap, from --max-degree or [params], with
    # pending pairs up to degree 11 left undone.
    from_params = tmp_path / "capped.alg"
    from_params.write_text(pathlib.Path(fixture("sklyanin_235.alg")).read_text() + "\n[params]\nmax-degree 6\n")
    runs = [(["groebner", fixture("sklyanin_235.alg"), "--max-degree", "6"], EXIT_OK),
            (["overlaps", fixture("sklyanin_235.alg"), "--max-degree", "6"], EXIT_TRUNCATED),
            (["groebner", str(from_params)], EXIT_OK)]
    for argv, code in runs:
        rc, doc = run_json(capsys, argv)
        gb = doc["groebner"]
        assert rc == code and gb["degree_bound"] == 6 and not gb["complete"], argv
        for element in gb["elements"]:
            terms = element.replace(" - ", " + ").split(" + ")
            assert max(sum(name in "xyz" for name in t.split("*")) for t in terms) <= 6, element


def test_sklyanin_a0_resolves_from_a_truncated_basis(capsys):
    # The basis is infinite; through the cap the resolution is exact and
    # Koszul, while windows, which read chain extrema, cannot be certified.
    argv = [fixture("sklyanin_235_a0.alg"), "--module", "A0", "--max-n", "4", "--max-degree", "8"]
    rc, doc = run_json(capsys, ["resolve"] + argv)
    assert rc == EXIT_OK and doc["groebner"]["status"] == "truncated-at-degree-8"
    assert doc["resolution"]["degrees"] == [[0], [1, 1, 1], [2, 2, 2], [3], []]
    check_schema(doc)
    for command in ("window", "verify"):
        rc, doc = run_json(capsys, [command] + argv)
        assert rc == EXIT_TRUNCATED and doc["groebner"]["status"] == "truncated-at-degree-8", command


def test_sklyanin_a0_resolves_over_q_with_non_unit_pivots(capsys, tmp_path):
    # Over Q the coefficients 2, 3, 5 give pivots that are not units of Z,
    # so the oracle's rows mix ints and Fractions; the degrees are those over F_101.
    path = tmp_path / "sklyanin_q.alg"
    path.write_text(pathlib.Path(fixture("sklyanin_235_a0.alg")).read_text().replace("Fp 101", "Q"))
    argv = ["resolve", str(path), "--module", "A0", "--max-n", "3", "--max-degree", "6"]
    rc, doc = run_json(capsys, argv)
    assert rc == EXIT_OK
    assert doc["input"]["field"] == "Q" and any("/" in g for g in doc["groebner"]["elements"])
    assert doc["resolution"]["degrees"] == [[0], [1, 1, 1], [2, 2, 2], [3]]


def test_verify_empty_module_is_the_zero_module(capsys, tmp_path):
    # An empty [module Z] section parses; it presents the zero module, whose
    # windows are all empty.
    path = tmp_path / "zero.alg"
    path.write_text(pathlib.Path(fixture("dual_numbers.alg")).read_text() + "\n[module Z]\n")
    rc, doc = run_json(capsys, ["verify", str(path), "--module", "Z", "--max-n", "3"])
    assert rc == EXIT_OK
    assert doc["verdicts"] and all(v["status"] == "PASS" for v in doc["verdicts"])
    check_schema(doc)


def test_exit_code_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("[quiver]\nvertex e\narrow x : e -> e\n\n[ideal]\nx*y\n")
    rc = run(["groebner", str(bad)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert "E_UNKNOWN_ID" in err


def test_missing_module_is_input_error(capsys):
    rc = run(["verify", fixture("dual_numbers.alg"), "--module", "nope"])
    assert rc == EXIT_INPUT


def test_negative_max_n_is_input_error(capsys, tmp_path):
    for command in ("resolve", "verify", "window", "overlaps"):
        rc = run([command, fixture("dual_numbers.alg"), "--module", "A0", "--max-n", "-1"])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT, command
        assert "max-n must be >= 0" in captured.err and not captured.out, command
    from_file = tmp_path / "neg.alg"
    from_file.write_text(pathlib.Path(fixture("dual_numbers.alg")).read_text() + "\n[params]\nmax-n -2\n")
    rc = run(["resolve", str(from_file), "--module", "A0"])
    assert rc == EXIT_INPUT and "got -2" in capsys.readouterr().err
    rc = run(["resolve", str(from_file), "--module", "A0", "--max-n", "1"])
    capsys.readouterr()
    assert rc == EXIT_OK


def test_negative_max_degree_is_input_error(capsys, tmp_path):
    for command in ("groebner", "resolve", "verify", "window", "check"):
        rc = run([command, fixture("dual_numbers.alg"), "--module", "A0", "--determined", "linear",
                  "--max-degree", "-3"])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT and not captured.out, command
        assert "max-degree must be >= 0; got -3" in captured.err, command
    from_file = tmp_path / "neg.alg"
    from_file.write_text(pathlib.Path(fixture("dual_numbers.alg")).read_text() + "\n[params]\nmax-degree -1\n")
    rc = run(["resolve", str(from_file), "--module", "A0"])
    assert rc == EXIT_INPUT and "max-degree must be >= 0; got -1" in capsys.readouterr().err


def test_degree_cap_below_a_relation_is_input_error(capsys):
    # The relation g*x of A0 has degree 1; a cap of 0 used to raise IndexError.
    for command in ("resolve", "verify", "window"):
        rc = run([command, fixture("dual_numbers.alg"), "--module", "A0", "--max-degree", "0"])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT and not captured.out, command
        assert "error: relation g*x lies above the degree cap 0" in captured.err, command
    rc = run(["resolve", fixture("dual_numbers.alg"), "--module", "A0", "--max-degree", "1"])
    capsys.readouterr()
    assert rc == EXIT_OK


def test_generator_above_the_cap_is_input_error(capsys, tmp_path):
    # A generator above D used to drop out of P_0 unseen: resolve printed
    # P_0 = [] as not truncated, and check --determined linear certified it.
    path = tmp_path / "high.alg"
    path.write_text("[quiver]\nvertex e\narrow x : e -> e\narrow y : e -> e\n\n[ideal]\nx*y - y*x\n\n"
                    "[module M]\ngenerator g : e @ 20\n\n"
                    "[module MIX]\ngenerator g : e @ 0\ngenerator h : e @ 20\nrelation g*x\n")
    for extra in (["resolve"], ["check", "--determined", "linear"]):
        rc = run(extra + [str(path), "--module", "M", "--max-degree", "6"])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT and not captured.out, extra
        assert captured.err == "error: generator g at degree 20 lies above the degree cap 6\n", extra
    # Without a cap, verify's oracle reaches every generator (exit 0: every window PASSes).
    rc, doc = run_json(capsys, ["verify", str(path), "--module", "M"])
    assert rc == EXIT_OK and doc["resolution"]["degrees"][0] == [20]
    # It goes past the degree MIX's windows need for h.
    rc, doc = run_json(capsys, ["verify", str(path), "--module", "MIX"])
    assert rc == EXIT_OK and (doc["required_oracle_degree"], doc["resolution"]["degree_cap"]) == (14, 20)
    assert doc["resolution"]["degrees"][0] == [0, 20]


def test_negative_instances_is_input_error(capsys):
    rc = run(["selfcheck", fixture("dual_numbers.alg"), "--instances", "-2"])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT and not captured.out
    assert "instances must be >= 0; got -2" in captured.err


def test_json_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        rc = run(["verify", fixture("dual_numbers.alg"), "--module", "A0",
                  "--max-n", "4", "--max-degree", "10", "--json", str(out)])
        capsys.readouterr()
        assert rc == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_params_defaults_apply(capsys):
    # two_loop_cube.alg pins max-n 5 and max-degree 12 in its [params].
    rc, doc = run_json(capsys, ["resolve", fixture("two_loop_cube.alg"), "--module", "A0"])
    assert rc == EXIT_OK
    assert doc["options"]["max_n"] == 5
    assert len(doc["resolution"]["degrees"]) == 6


@pytest.mark.parametrize("D", [4, 8, 12])
def test_groebner_normal_word_counts_are_the_normal_word_levels(capsys, D):
    # The counts come from the model's elimination; here from the tips alone.
    for path in sorted(FIXTURES.glob("*.alg")):
        rc, doc = run_json(capsys, ["groebner", str(path), "--max-degree", str(D)])
        assert rc == EXIT_OK
        quiver = parse(path.read_text()).quiver
        levels = islice(normal_word_levels(quiver, [quiver.path(t) for t in doc["groebner"]["tips"]]), min(D, 8) + 1)
        assert doc["groebner"]["normal_word_counts"] == [len(level) for level in levels], (path.name, D)

def test_resolve_reduces_every_pivot_column(capsys):
    # This relation span used to leave entries on later pivot columns, so
    # projecting into the quotient raised KeyError.  The resolution must obey
    # the Euler identity sum_n (-1)^n sum_{g in P_n} dim A_{d - deg g} = dim M_d.
    rc, doc = run_json(capsys, ["resolve", fixture("pivot_residue.alg"), "--module", "M",
                                "--max-n", "8", "--max-degree", "8"])
    assert rc == EXIT_OK
    res = doc["resolution"]
    _, gb_doc = run_json(capsys, ["groebner", fixture("pivot_residue.alg")])
    dims = gb_doc["groebner"]["normal_word_counts"]
    assert len(dims) == 9
    for d in range(9):
        euler = sum((-1) ** n * sum(dims[d - g] for g in degs if g <= d) for n, degs in enumerate(res["degrees"]))
        assert euler == res["hilbert"][d], d
    assert res["hilbert"] == [2, 3, 5, 2, 1, 2, 1, 1, 2]


def test_relation_across_target_vertices(capsys):
    # g*x + g*y with x: e -> a and y: e -> b used to be rejected as "support
    # paths must be parallel".  Its right multiples by e_a and e_b are g*x and
    # g*y, so M has the resolution of S, which states those two relations.
    argv = ["--max-n", "4", "--max-degree", "8"]
    rc, doc_m = run_json(capsys, ["resolve", fixture("split_relation.alg"), "--module", "M"] + argv)
    assert rc == EXIT_OK
    rc, doc_s = run_json(capsys, ["resolve", fixture("split_relation.alg"), "--module", "S"] + argv)
    assert rc == EXIT_OK
    assert doc_m["resolution"]["degrees"] == doc_s["resolution"]["degrees"]
    assert doc_m["resolution"]["hilbert"] == [1] + [0] * 8
    rc, doc = run_json(capsys, ["verify", fixture("split_relation.alg"), "--module", "M", "--max-n", "4"])
    assert rc == EXIT_OK
    assert doc["verdicts"] and all(v["status"] == "PASS" for v in doc["verdicts"])


def test_negative_generator_degree_is_input_error(capsys, tmp_path):
    # A negative shift used to parse, and resolve then printed the zero
    # module's Hilbert function and exited 0.
    text = pathlib.Path(fixture("dual_numbers.alg")).read_text().replace("g : e @ 0", "g : e @ -2")
    path = tmp_path / "negative.alg"
    path.write_text(text)
    line = text.splitlines().index("generator g : e @ -2") + 1
    for command in ("resolve", "verify", "window"):
        rc = run([command, str(path), "--module", "A0"])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT and not captured.out, command
        assert f":{line}:19: E_SYNTAX: generator degree must be >= 0; got -2" in captured.err, command
    quiver = Quiver.build(["e"], [("x", "e", "e")])
    with pytest.raises(PathAlgError, match="negative degree"):
        ModulePresentation((Generator("g", "e", -1),), ()).validate(quiver)


def test_chain_table_demo_prints_a_table_or_an_input_error(capsys):
    demo = load_module("chain_table_demo", ROOT / "scripts" / "chain_table_demo.py")
    assert demo.main(["xxyyy", "xxx", "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("level 0: lengths overlap [1, 1]  quasi [0, 0]\n")
    assert "  xxxyyy               <- xxx\n" in out
    for patterns, message in ((["xx", "xxx"], "the pattern set must be reduced"),
                              (["x"], "reduced sets live in length >= 2; got x")):
        assert demo.main(patterns) == EXIT_INPUT
        captured = capsys.readouterr()
        assert not captured.out and captured.err == f"error: {message}\n"


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("golden", sorted((ROOT / "tests" / "golden").glob("*.json")), ids=lambda p: p.name)
def test_render_json_writes_what_json_dumps_writes_on_every_golden(golden):
    text = golden.read_text()
    doc = json.loads(text)
    assert pathalg.cli.render_json(doc) == _dumps(doc) == text[:-1]


def test_render_json_writes_what_json_dumps_writes_on_edge_cases():
    deep: object = []
    for depth in range(30):
        deep = {f"level {depth}": [deep, {}]}
    doc = {
        "empty": [[], {}, "", [[]], {"": {}}],
        "deep": deep,
        "escapes": "quote \" backslash \\ newline \n tab \t nul \x00 del \x7f",
        "non-ASCII": ["Gröbner", "χ", "𝔽_p", " "],
        "ints": [0, -1, -10 ** 40, 10 ** 40, 7],
        "constants": [True, False, None],
        "floats": [0.5, -2.0, 1e300, float("inf"), float("-inf")],
        "tuple": (1, ("a", ())),
        "keys": {"b": 1, "a": 2, "A": 3, "é": 4, "": 5, " ": 6},
        "number keys": {3: "three", -1: "minus one", 10: "ten"},
        "other keys": {None: 0}, "bool keys": {True: 1, False: 0}, "float keys": {1.5: 0, -0.25: 1},
    }
    assert pathalg.cli.render_json(doc) == _dumps(doc)
    for scalar in (0, "x", None, True, 2.5, [], {}):
        assert pathalg.cli.render_json(scalar) == _dumps(scalar)


@pytest.mark.parametrize("doc, message", [
    ({"a": {1, 2}}, "Object of type set is not JSON serializable"),
    ([object()], "Object of type object is not JSON serializable"),
    ({(1, 2): 0}, "keys must be str, int, float, bool or None, not tuple"),
    ({"x": b"bytes"}, "Object of type bytes is not JSON serializable"),
])
def test_render_json_rejects_what_json_rejects(doc, message):
    with pytest.raises(TypeError, match=message):
        _dumps(doc)
    with pytest.raises(TypeError, match=message):
        pathalg.cli.render_json(doc)
