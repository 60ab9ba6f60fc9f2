import json

import pytest

from nmfib.cli import main


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


def test_classify_line(capsys):
    code, out, _ = run(capsys, "classify", "--arity", "2", "--table", "0001")
    assert code == 0
    assert out.strip() == "projection-conjunction J={1,2}; truth-preserving"


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


def test_deep_formula_is_a_clean_error(capsys):
    deep = "neg(" * 3000 + "p" + ")" * 3000
    code, out, err = run(capsys, "derive", "--calculus", "B_neg.json", "--premises", "p", "--goal", deep)
    assert code == 1 and out == "" and err.startswith("error: formula too deep")
    code, out, err = run(capsys, "entail", "--system", "two_neg_product.json", "--conclusion", deep)
    assert code == 1 and out == "" and err.startswith("error: formula too deep")


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


def test_product_power_translate_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "prod.json"
    code, _, _ = run(capsys, "product", "m3_neg.json", "m3_sim.json", "-o", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert len(data["values"]) == 5

    code, out, _ = run(capsys, "power", "two_valued_or.json", "-n", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["values"]) == 4

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


def test_witness_kdet_fc_certify(capsys):
    code, out, _ = run(capsys, "witness", "or.json", "or2.json", "--power", "2")
    assert code == 0 and out.startswith("WITNESS:")

    code, out, _ = run(capsys, "kdet", "or.json", "or2.json", "--k", "1", "--power", "3")
    assert code == 0 and out.splitlines()[0] == "VIOLATION FOUND"

    code, out, _ = run(capsys, "kdet", "and.json", "and2.json", "--k", "1")
    assert code == 2 and out.startswith("NONE FOUND")

    code, out, _ = run(capsys, "fc-recovery", "coimp.json", "top.json")
    assert code == 0 and out.startswith("RECOVERED")

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
