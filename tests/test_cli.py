import itertools
import json
import time
from pathlib import Path

import pytest

from nmfib.cli import _load_translation, _parser, main

SYSTEMS = Path(__file__).resolve().parents[1] / "src" / "nmfib" / "systems"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_entail_fails_with_countermodel(capsys):
    code, out, _ = run(
        capsys,
        "entail",
        "--system",
        "two_neg_product.json",
        "--premises",
        "neg(p)",
        "--conclusion",
        "sim(p)",
    )
    assert code == 0
    assert out.splitlines()[0] == "FAILS"
    assert "p |-> (0,1/2)" in out


def test_entail_holds(capsys):
    code, out, _ = run(
        capsys, "entail", "--system", "two_valued_or.json", "--premises", "p", "--conclusion", "or(p,q)"
    )
    assert code == 0 and out.strip() == "HOLDS"


def test_repeated_main_calls_share_no_state(capsys):
    # main reuses one parser; an --premises list from one call must not
    # reach the next, whatever the subcommand
    entail = ("entail", "--system", "two_valued_or.json", "--premises", "p", "--conclusion", "or(p,q)")
    derive = ("derive", "--calculus", "B_or.json", "--premises", "q", "--goal", "or(p,q)", "--universe-depth", "1")
    bare = ("entail", "--system", "two_valued_or.json", "--conclusion", "or(p,q)")
    alone = {}
    for argv in (entail, derive, bare):
        _parser.cache_clear()
        alone[argv] = run(capsys, *argv)
    assert alone[entail][1] == "HOLDS\n" and alone[bare][1].startswith("FAILS\n")
    for first, second in itertools.permutations(alone, 2):
        _parser.cache_clear()
        assert run(capsys, *first) == alone[first]
        assert run(capsys, *second) == alone[second]


def test_classify_line(capsys):
    code, out, _ = run(capsys, "classify", "--arity", "2", "--table", "0001")
    assert code == 0
    assert out.strip() == "projection-conjunction J={1,2}; truth-preserving"
    for table, line in (
        ("1111", "top-like; truth-preserving"),
        ("0000", "bottom-like"),
        ("0111", "very significant; truth-preserving"),
    ):
        assert run(capsys, "classify", "--arity", "2", "--table", table) == (0, line + "\n", "")
    code, out, _ = run(capsys, "classify", "--arity", "2", "--table", "0111", "--json")
    post = {"affine": False, "monotone": True, "preserves0": True, "preserves1": True, "self_dual": False}
    assert code == 0 and json.loads(out)["post"] == post


def test_decide_recovery_classical_c(capsys):
    code, out, _ = run(capsys, "decide-recovery", "biimp.json", "bot.json")
    assert code == 0
    assert out.strip() == "CLASSICAL (condition c)"


def test_decide_recovery_subclassical(capsys):
    code, out, _ = run(capsys, "decide-recovery", "neg.json", "bot.json")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SUBCLASSICAL"
    assert any("witness" in l for l in lines)


def test_witness_on_a_classical_pair(capsys):
    # witness decides through decide-recovery: a classical pair has no
    # witness, and the reply names the condition it meets
    start = time.perf_counter()
    code, out, _ = run(capsys, "witness", "and.json", "and2.json")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "NO WITNESS (CLASSICAL, condition b)\n")
    code, out, _ = run(capsys, "witness", "and.json", "and2.json", "--json")
    assert code == 0
    assert out == run(capsys, "decide-recovery", "and.json", "and2.json", "--json")[1]
    assert json.loads(out)["verdict"] == "CLASSICAL"


@pytest.mark.parametrize("command", ["decide-recovery", "witness"])
@pytest.mark.parametrize("option", [("--power", "4"), ("--depth", "3")])
def test_recovery_commands_take_no_search_bounds(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, "or.json", "neg.json", *option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_derive_and_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "derive",
        "--calculus",
        "B_and.json",
        "--premises",
        "p",
        "--premises",
        "q",
        "--goal",
        "and(p,q)",
    )
    assert code == 0 and out.splitlines()[0] == "DERIVED"
    code, out, _ = run(
        capsys, "derive", "--calculus", "B_or.json", "--goal", "or(p,q)", "--steps", "100"
    )
    assert code == 2 and out.startswith("NOT FOUND AT BOUND")


def test_error_exit_code(capsys):
    code, _, err = run(capsys, "entail", "--system", "missing.json", "--conclusion", "p")
    assert code == 1 and "error:" in err
    code, _, err = run(
        capsys, "entail", "--system", "two_valued_or.json", "--conclusion", "or(p"
    )
    assert code == 1 and "error:" in err


def test_negative_arity_is_named(capsys):
    code, out, err = run(capsys, "classify", "--arity", "-1", "--table", "1")
    assert (code, out, err) == (1, "", "error: arity (--arity) must not be negative (got -1)\n")


def test_table_of_a_huge_arity_is_refused(capsys):
    # the table's length is checked against the arity without computing
    # 2^arity, an integer of 12.5 GB here
    code, out, err = run(capsys, "classify", "--arity", "100000000000", "--table", "0")
    assert (code, out, err) == (1, "", "error: table string '0' is not 2^100000000000 bits\n")


@pytest.mark.parametrize(
    "argv", [("power", "two_valued_or.json", "-n", "2"), ("product", "m3_neg.json", "m3_sim.json")]
)
@pytest.mark.parametrize("cap", ["-1", "0"])
def test_cap_below_one_is_named(capsys, argv, cap):
    code, out, err = run(capsys, *argv, "--cap", cap)
    assert (code, out, err) == (1, "", f"error: cap (--cap) must be at least 1 (got {cap})\n")


def test_whole_table_past_the_cap_is_refused_before_any_cell(capsys, tmp_path):
    # 2^13 values pass the value cap; their 2^26 cells do not, and none is computed
    out_file = tmp_path / "power.json"
    start = time.perf_counter()
    code, out, err = run(capsys, "power", "two_valued_or.json", "-n", "13", "-o", str(out_file))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", "error: 67108864 cells exceeds cap 10000\n")
    assert not out_file.exists()
    # the default cap refuses n = 7 (16,384 cells); a cap that covers them does not
    assert run(capsys, "power", "two_valued_or.json", "-n", "7") == (1, "", "error: 16384 cells exceeds cap 10000\n")
    code, out, err = run(capsys, "power", "two_valued_or.json", "-n", "7", "--cap", "16384", "-o", str(out_file))
    assert (code, out, err) == (0, "", "") and len(json.loads(out_file.read_text())["values"]) == 128


# W8: kdet refutes the 15-formula family sequent; the record is the same at every power
W8_RECORD = {
    "gamma": ["or(p1,p2)", "or(p1,p3)", "or(p2,p3)"],
    "phi": "or(or(or2(q,or(p1,q)),or2(q,or(p2,q))),or2(q,or(p3,q)))",
    "verdict": "VIOLATION FOUND",
}


def _w8(capsys, power: int, bound_s: float) -> None:
    start = time.perf_counter()
    code, out, err = run(capsys, "kdet", "or.json", "or2.json", "--k", "2", "--power", str(power), "--json")
    assert time.perf_counter() - start < bound_s
    assert (code, err) == (0, "")
    assert json.loads(out) == {**W8_RECORD, "power": power}


def test_w8_kdet_at_power_3(capsys):
    # a guard on the product search's symmetry skip (a candidate equal, up to
    # a permutation of a side's power coordinates that fixes the values
    # assigned so far, to one that failed): without the skip this search
    # takes about 100 times as long, with the same output
    _w8(capsys, 3, 5.0)


def test_w8_kdet_at_power_4(capsys):
    # 226 values per formula: without the symmetry skip this search had not
    # finished after 45 s
    _w8(capsys, 4, 10.0)


# and/and2 are both saturated, so no side is raised to the power; or/or2 are not
@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--frag1", "and.json", "--frag2", "and2.json", "--premises", "p", "--goal", "q"),
        ("certify", "--frag1", "or.json", "--frag2", "or2.json", "--premises", "p", "--goal", "q"),
        ("kdet", "and.json", "and2.json"),
        ("kdet", "or.json", "or2.json"),
    ],
)
@pytest.mark.parametrize("power", ["0", "-3"])
def test_power_below_one_is_named(capsys, argv, power):
    code, out, err = run(capsys, *argv, "--power", power)
    assert (code, out, err) == (1, "", f"error: power (--power) must be at least 1 (got {power})\n")


@pytest.mark.parametrize("n", ["0", "-2"])
def test_power_n_below_one_is_named(capsys, n):
    code, out, err = run(capsys, "power", "two_valued_or.json", "-n", n)
    assert (code, out, err) == (1, "", f"error: n (-n) must be at least 1 (got {n})\n")


@pytest.mark.parametrize("arity", ["0", "5", "-1"])
def test_clone_arity_out_of_range_is_named(capsys, arity):
    code, out, err = run(capsys, "clone", "or.json", "--arity", arity)
    assert (code, out, err) == (1, "", f"error: closure arity (--arity) must be between 1 and 4 (got {arity})\n")


@pytest.mark.parametrize("k", ["0", "-1"])
def test_kdet_k_below_one_is_named(capsys, k):
    code, out, err = run(capsys, "kdet", "or.json", "or2.json", "--k", k)
    assert (code, out, err) == (1, "", f"error: k (--k) must be at least 1 (got {k})\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("derive", "--calculus", "B_or.json", "--goal", "p"),
        ("certify", "--frag1", "or.json", "--frag2", "or2.json", "--goal", "p"),
    ],
)
@pytest.mark.parametrize("option", ["--universe-depth", "--steps"])
def test_negative_search_bound_is_named(capsys, argv, option):
    code, out, err = run(capsys, *argv, option, "-1")
    assert (code, out) == (1, "")
    assert err == f"error: {option} must not be negative (got -1)\n"


def test_deep_formula_is_decided(capsys):
    # nesting far past the interpreter's recursion limit parses, derives
    # (1500 double-negation introductions) and is decided
    deep = "neg(" * 3000 + "p" + ")" * 3000
    code, out, err = run(capsys, "parse", deep, "--json")
    assert (code, err, json.loads(out)) == (0, "", {"depth": 3000, "formula": deep})
    code, out, err = run(capsys, "derive", "--calculus", "B_neg.json", "--premises", "p", "--goal", deep)
    lines = out.splitlines()
    assert (code, err, lines[0], len(lines)) == (0, "", "DERIVED", 1502)
    assert lines[-1] == f"  1500. {deep}  [n1 1499]"
    code, out, err = run(capsys, "entail", "--system", "negimp.json", "--premises", "p", "--conclusion", deep)
    assert (code, out, err) == (0, "HOLDS\n", "")


def _calculus_file(tmp_path, rule, *connectives):
    path = tmp_path / f"{rule['name']}.json"
    signature = [{"name": name, "arity": arity} for name, arity in connectives]
    path.write_text(json.dumps({"signature": signature, "rules": [rule]}), encoding="utf-8")
    return str(path)


def test_rule_with_many_premises_derives(capsys, tmp_path):
    # derive joins a rule's premises on a stack, so 1500 premises, far past
    # the interpreter's recursion limit, are matched like two
    rule = {"name": "many", "premises": ["p"] * 1500, "conclusion": "neg(p)"}
    path = _calculus_file(tmp_path, rule, ("neg", 1))
    code, out, err = run(capsys, "derive", "--calculus", path, "--premises", "p", "--goal", "neg(p)")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["DERIVED", "  0. p  [premise]", f"  1. neg(p)  [many {','.join(['0'] * 1500)}]"]


@pytest.mark.parametrize("connectives", [[("neg", 1)], [("neg", 1), ("and", 2)]], ids=["neg", "neg-and"])
def test_deep_conclusion_schema_is_searched(capsys, tmp_path, connectives):
    # the universe walks a conclusion schema on a stack, so its nesting and
    # the universe depth, both taken from input, may pass the interpreter's
    # recursion limit; over neg alone the universe has 1100 rounds, each
    # built from the one before it and none sorted; with and in the
    # signature the cap decides the members, and the walk stops at the
    # first level with no instance
    deep = "neg(" * 1100 + "q" + ")" * 1100
    path = _calculus_file(tmp_path, {"name": "deep", "premises": ["p"], "conclusion": deep}, *connectives)
    start = time.perf_counter()
    code, out, err = run(capsys, "derive", "--calculus", path, "--premises", "p", "--goal", "neg(q)", "--universe-depth", "1100")
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (2, "NOT FOUND AT BOUND (universe saturated; universe depth 1100, step cap 10000)\n", "")
    assert elapsed < 1.0


def test_universe_depth_past_saturation_answers(capsys):
    # the universe of B_bot stops growing after one round; later rounds
    # would combine the same members, so none is run
    start = time.perf_counter()
    code, out, err = run(capsys, "derive", "--calculus", "B_bot.json", "--premises", "p", "--goal", "bot", "--universe-depth", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "NOT FOUND AT BOUND (universe saturated; universe depth 1000000000, step cap 10000)\n", "")


def test_wrong_kind_of_file_is_named(capsys):
    code, _, err = run(capsys, "entail", "--system", "neg.json", "--conclusion", "p")
    assert code == 1
    assert err.startswith("error: neg.json is not a system file (missing 'signature'")
    code, _, err = run(capsys, "derive", "--calculus", "two_neg_product.json", "--goal", "p")
    assert code == 1 and err.startswith("error: two_neg_product.json is not a calculus file (missing 'rules')")


def test_byte_determinism(capsys):
    commands = [
        ("decide-recovery", "or.json", "or2.json", "--json"),
        ("reproduce", "two_neg", "--json"),
        ("entail", "--system", "two_neg_product.json", "--premises", "neg(p)",
         "--conclusion", "sim(p)", "--json"),
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1], argv
        json.loads(outs[0])


def _system_file_text(matrix) -> str:
    from nmfib.semantics import dump_system

    return json.dumps(dump_system(matrix), sort_keys=True, indent=2) + "\n"


def test_product_power_translate_roundtrip(tmp_path, capsys):
    from test_matrixops import reference_power, reference_strict_product

    from nmfib.matrixops import translate_matrix
    from nmfib.semantics import load_system

    def system(name):
        return load_system(json.loads((SYSTEMS / name).read_text()))

    out_file = tmp_path / "prod.json"
    code, _, _ = run(capsys, "product", "m3_neg.json", "m3_sim.json", "-o", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert len(data["values"]) == 5
    reference = reference_strict_product(system("m3_neg.json"), system("m3_sim.json"))
    assert out_file.read_text() == _system_file_text(reference)

    code, out, _ = run(capsys, "power", "two_valued_or.json", "-n", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["values"]) == 4
    for n in (2, 3):
        code, _, _ = run(capsys, "power", "two_valued_or.json", "-n", str(n), "-o", str(out_file))
        assert code == 0
        assert out_file.read_text() == _system_file_text(reference_power(system("two_valued_or.json"), n))

    code, out, _ = run(capsys, "translate", "two_valued_or.json", "coimp_translation.json")
    assert code == 1  # the or-matrix lacks neg/imp needed by the translation

    # build a suitable matrix file first
    from nmfib.boolfun import standard_fragment
    from nmfib.semantics import dump_system, two_valued_matrix

    src = tmp_path / "negimp.json"
    src.write_text(json.dumps(dump_system(two_valued_matrix(standard_fragment("neg", "imp")))))
    code, out, _ = run(capsys, "translate", str(src), "coimp_translation.json")
    assert code == 0
    data = json.loads(out)
    rows = {tuple(r["args"]): tuple(r["out"]) for r in data["interpretation"]["coimp"]}
    assert rows[("0", "1")] == ("1",) and rows[("1", "1")] == ("0",)

    # translating a written power file
    power_file = tmp_path / "negimp2.json"
    code, _, _ = run(capsys, "power", str(src), "-n", "2", "-o", str(power_file))
    assert code == 0
    negimp2 = reference_power(load_system(json.loads(src.read_text())), 2)
    assert power_file.read_text() == _system_file_text(negimp2)
    code, _, _ = run(capsys, "translate", str(power_file), "coimp_translation.json", "-o", str(out_file))
    assert code == 0
    t = _load_translation("coimp_translation.json", negimp2.signature)
    assert out_file.read_text() == _system_file_text(translate_matrix(negimp2, t))


def test_witness_kdet_fc_certify(capsys):
    code, out, _ = run(capsys, "witness", "or.json", "or2.json")
    assert code == 0 and out.startswith("WITNESS:")

    code, out, _ = run(capsys, "kdet", "or.json", "or2.json", "--k", "1", "--power", "3")
    assert code == 0 and out.splitlines()[0] == "VIOLATION FOUND"

    code, out, _ = run(capsys, "kdet", "and.json", "and2.json", "--k", "1")
    assert code == 2 and out.startswith("NONE FOUND")

    code, out, _ = run(capsys, "fc-recovery", "coimp.json", "top.json")
    assert (code, out) == (0, "RECOVERED (T0_inf with UP1 on side 2)\n")

    code, out, _ = run(
        capsys,
        "certify",
        "--frag1",
        "or.json",
        "--frag2",
        "or2.json",
        "--rules",
        "or_pair.json",
        "--premises",
        "or(p,or(q,r))",
        "--goal",
        "or(p,or2(q,r))",
        "--universe-depth",
        "1",
    )
    assert code == 0 and out.splitlines()[0] == "YES"

    code, out, _ = run(
        capsys,
        "certify",
        "--frag1",
        "neg.json",
        "--frag2",
        "sim.json",
        "--premises",
        "neg(p)",
        "--goal",
        "sim(p)",
    )
    assert code == 0 and out.splitlines()[0].startswith("NO")


def test_certify_rule_filtered_refutation_and_unknown(capsys):
    # with interaction rules, a failed derivation leaves the refutation to
    # the rule-filtered product, whose No is tagged heuristic
    code, out, _ = run(
        capsys,
        "certify",
        "--frag1",
        "or.json",
        "--frag2",
        "or2.json",
        "--rules",
        "or_pair.json",
        "--premises",
        "or(p,q)",
        "--goal",
        "p",
        "--universe-depth",
        "0",
    )
    lines = out.splitlines()
    assert code == 0 and lines[:3] == [
        "NO (power 2) [rule-filtered, heuristic]",
        "  p |-> ((0,0),(0,0))",
        "  q |-> ((1,1),(1,1))",
    ]
    assert len(lines) == 72 and all(" |-> " in line for line in lines[1:])
    # holds in the product, but no derivation within one step
    argv = ["certify", "--frag1", "or.json", "--frag2", "or2.json", "--premises", "or(p,q)", "--goal", "or(q,p)"]
    assert run(capsys, *argv, "--steps", "1") == (2, "UNKNOWN (power 2, universe depth 2, step cap 1)\n", "")
    code, out, _ = run(capsys, *argv, "--steps", "1", "--json")
    assert (code, json.loads(out)) == (2, {"power": 2, "step_cap": 1, "universe_depth": 2, "verdict": "UNKNOWN"})


def test_reproduce_all_ids_pass(capsys):
    from nmfib.fibring import CATALOG_IDS

    for cid in CATALOG_IDS:
        code, out, _ = run(capsys, "reproduce", cid)
        assert code == 0, out
        assert "[FAIL]" not in out


def test_parse_subcommand(capsys):
    code, out, _ = run(capsys, "parse", "or(p, and(q, bot))")
    assert code == 0 and out.strip() == "or(p,and(q,bot))"
    code, out, _ = run(capsys, "parse", "--fragment", "or.json", "bot")
    assert code == 0 and out.strip() == "bot"  # a variable here


def test_clone_subcommand(capsys):
    code, out, _ = run(capsys, "clone", "iff.json", "--arity", "2", "--list", "--contains", "0110")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4 functions at arity 2"
    assert "contains 0110: no" in out
    # arity-4 slices are read off Post's lattice: the self-dual clone D and
    # the clone of 0- and 1-preserving functions, with no closure search
    start = time.perf_counter()
    assert run(capsys, "clone", "maj_neg.json", "--arity", "4") == (0, "256 functions at arity 4\n", "")
    assert time.perf_counter() - start < 1.0
    assert run(capsys, "clone", "if3.json", "--arity", "4") == (0, "16384 functions at arity 4\n", "")


NEG_SIGNATURE = [{"name": "neg", "arity": 1}]


@pytest.mark.parametrize(
    "kind, data, message",
    [
        (
            "system",
            {
                "signature": NEG_SIGNATURE,
                "values": ["0", "1"],
                "designated": ["1"],
                "interpretation": {"neg": [{"args": ["0"], "out": ["1"]}, {"args": ["1"]}]},
            },
            "an interpretation row of 'neg' has no 'out'",
        ),
        (
            "system",
            {"signature": [{"name": "neg"}], "values": ["0", "1"], "designated": ["1"], "interpretation": {}},
            "signature entry 'neg' has no 'arity'",
        ),
        (
            "calculus",
            {"signature": NEG_SIGNATURE, "rules": [{"name": "n1", "premises": ["neg(neg(p))"]}]},
            "rule 'n1' has no 'conclusion'",
        ),
        (
            "fragment",
            {"connectives": [{"name": "neg", "arity": 1}]},
            "connective 'neg' has no 'table'",
        ),
        (
            "system",
            {"signature": NEG_SIGNATURE, "values": ["0", "1"], "designated": ["1"], "interpretation": {"neg": 5}},
            "the interpretation of 'neg' is not a list: 5",
        ),
        (
            "fragment",
            {"connectives": [{"name": "neg", "arity": 1, "table": 10}]},
            "the 'table' of connective 'neg' is not a string: 10",
        ),
        (
            "calculus",
            {"signature": NEG_SIGNATURE, "rules": [{"name": "n1", "premises": "neg(p)", "conclusion": "p"}]},
            "the 'premises' of rule 'n1' is not a list: 'neg(p)'",
        ),
        (
            "system",
            {"signature": NEG_SIGNATURE, "values": ["0", "1"], "designated": ["1"], "interpretation": [5]},
            "the 'interpretation' of bad.json is not an object: [5]",
        ),
        (
            "calculus",
            {"signature": NEG_SIGNATURE, "rules": [{"name": "n1", "premises": [5], "conclusion": "p"}]},
            "an item of the 'premises' of rule 'n1' is not a string: 5",
        ),
        (
            "translation",
            {"source": [{"name": "coimp", "arity": 2}], "mapping": {"coimp": 5}},
            "the 'mapping' entry 'coimp' of bad.json is not a string: 5",
        ),
        (
            "system",
            {"signature": NEG_SIGNATURE, "values": [0, 1], "designated": ["1"], "interpretation": {}},
            "an item of the 'values' of bad.json is not a string: 0",
        ),
        (
            "system",
            {"signature": NEG_SIGNATURE, "values": ["0", "1"], "designated": [1], "interpretation": {}},
            "an item of the 'designated' of bad.json is not a string: 1",
        ),
        (
            "system",
            {
                "signature": NEG_SIGNATURE,
                "values": ["0", "1"],
                "designated": ["1"],
                "interpretation": {"neg": [{"args": [0], "out": ["1"]}]},
            },
            "an item of the 'args' of an interpretation row of 'neg' is not a string: 0",
        ),
        (
            "system",
            {
                "signature": NEG_SIGNATURE,
                "values": ["0", "1"],
                "designated": ["1"],
                "interpretation": {"neg": [{"args": ["0"], "out": [1]}]},
            },
            "an item of the 'out' of an interpretation row of 'neg' is not a string: 1",
        ),
        (
            # checked without computing 2^arity, an integer of 12.5 GB
            "fragment",
            {"connectives": [{"name": "f", "arity": 100000000000, "table": "01"}]},
            "connective 'f': table string '01' is not 2^100000000000 bits",
        ),
        (
            "system",
            {
                "signature": NEG_SIGNATURE,
                "values": ["0", "1"],
                "designated": ["1"],
                "interpretation": {
                    "neg": [{"args": ["0"], "out": ["1"]}, {"args": ["1"], "out": ["0"]}],
                    "nge": [{"args": ["0"], "out": ["1"]}, {"args": ["1"], "out": ["0"]}],
                },
            },
            "interpretation for 'nge', a connective the signature does not declare",
        ),
        (
            # JSON's true is no integer, though Python's bool is an int
            "fragment",
            {"connectives": [{"name": "neg", "arity": True, "table": "10"}]},
            "the 'arity' of connective 'neg' is not an integer: True",
        ),
        (
            "system",
            {"signature": [{"name": "neg", "arity": False}], "values": ["0", "1"], "designated": ["1"], "interpretation": {}},
            "the 'arity' of signature entry 'neg' is not an integer: False",
        ),
        (
            # the string "false" would read as a true flag
            "system",
            {
                "signature": NEG_SIGNATURE,
                "values": ["0", "1"],
                "designated": ["1"],
                "interpretation": {"neg": [{"args": ["0"], "out": ["1"]}, {"args": ["1"], "out": ["0"]}]},
                "saturated": "false",
            },
            "the 'saturated' of bad.json is not a boolean: 'false'",
        ),
        (
            # a derivation step names its rule, so a repeated name could not be checked
            "calculus",
            {
                "signature": NEG_SIGNATURE,
                "rules": [
                    {"name": "r", "premises": ["neg(neg(p))"], "conclusion": "p"},
                    {"name": "r", "premises": ["p"], "conclusion": "neg(neg(p))"},
                ],
            },
            "two rules are named 'r'",
        ),
        (
            # an unnamed rule is named r<its index>
            "calculus",
            {"signature": NEG_SIGNATURE, "rules": [{"name": "r1", "conclusion": "p"}, {"conclusion": "neg(p)"}]},
            "two rules are named 'r1'",
        ),
        (
            "fragment",
            {"connectives": [{"name": "f", "arity": 2, "table": "0111"}, {"name": "f", "arity": 2, "table": "0001"}]},
            "connective 'f' is declared twice",
        ),
        (
            "system",
            {
                "signature": NEG_SIGNATURE,
                "values": ["0", "1"],
                "designated": ["1"],
                "interpretation": {
                    "neg": [{"args": ["0"], "out": ["1"]}, {"args": ["1"], "out": ["0"]}, {"args": ["0"], "out": ["0"]}],
                },
            },
            "the interpretation of 'neg' lists the args ['0'] twice",
        ),
        (
            "translation",
            {"source": [{"name": "coimp", "arity": 2}], "mapping": {"coimp": "neg(imp(p2,p1))", "vel": "imp(p1,p2)"}},
            "translation of 'vel', a connective the source does not declare",
        ),
        (
            # a formula that does not parse names the entry it is in
            "calculus",
            {
                "signature": NEG_SIGNATURE,
                "rules": [
                    {"name": "n1", "premises": ["p"], "conclusion": "neg(neg(p))"},
                    {"name": "n2", "premises": ["neg(neg(p)"], "conclusion": "p"},
                ],
            },
            "rule 'n2': expected ')' (at position 10)",
        ),
        (
            "translation",
            {"source": [{"name": "coimp", "arity": 2}], "mapping": {"coimp": "neg(imp(p2,p1)"}},
            "the 'mapping' entry 'coimp' of bad.json: expected ')' (at position 14)",
        ),
        (
            "fragment",
            {"connectives": [{"name": "or", "arity": 2, "table": "0111"}, {"name": "f", "arity": 3, "table": "0111"}]},
            "connective 'f': table string '0111' is not 2^3 bits",
        ),
    ],
)
def test_malformed_entry_is_named(tmp_path, monkeypatch, capsys, kind, data, message):
    (tmp_path / "bad.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    argv = {
        "system": ("entail", "--system", "bad.json", "--conclusion", "neg(p)"),
        "calculus": ("derive", "--calculus", "bad.json", "--goal", "neg(p)"),
        "fragment": ("decide-recovery", "bad.json", "bot.json"),
        "translation": ("translate", "negimp.json", "bad.json"),
    }[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
        (b"{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["nested", "unclosed", "not-utf8"],
)
def test_malformed_json_is_named(tmp_path, monkeypatch, capsys, content, message):
    (tmp_path / "bad.json").write_bytes(content)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "entail", "--system", "bad.json", "--conclusion", "p")
    # one line, naming the file; the decoder's own message follows
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith(f"error: bad.json is not a JSON file ({message}") and err.endswith(")\n")


def test_builtins_are_not_shadowed_by_the_working_directory(tmp_path, monkeypatch, capsys):
    from nmfib.calculus import builtin_calculus, load_calculus
    from nmfib.fibring import catalog_fragments

    bundled_or = json.loads((SYSTEMS / "B_or.json").read_text())
    code, expected, _ = run(capsys, "reproduce", "two_disj", "--json")
    assert code == 0
    # a different B_or calculus and an or fragment with the table of and
    (tmp_path / "B_or.json").write_text(
        json.dumps({"signature": [{"name": "or", "arity": 2}], "rules": [{"name": "d1", "conclusion": "or(p,p)"}]})
    )
    (tmp_path / "or.json").write_text(json.dumps({"connectives": [{"name": "or", "arity": 2, "table": "0001"}]}))
    monkeypatch.chdir(tmp_path)
    builtin_calculus.cache_clear()
    catalog_fragments.cache_clear()
    assert builtin_calculus("B_or") == load_calculus(bundled_or)
    code, out, _ = run(capsys, "reproduce", "two_disj", "--json")
    assert code == 0 and out == expected
    # a name given on the command line still finds the working directory first
    code, out, _ = run(capsys, "decide-recovery", "or.json", "bot.json")
    assert code == 0 and out == "CLASSICAL (condition b)\n"
