import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewtab
from skewtab import SkewExpansion, expansion_from_json, skew_lr_pairs, skew_pieri, parse_shape
from skewtab.cli import build_parser, run, term_lines

from conftest import capture, run_with_fresh_parser

EXPAND_LINES = [
    "+ s[3,2,2]",
    "- s[3,2,2,1/1]",
    "+ s[3,2,2,2/1,1]",
    "- s[3,3,2/1]",
    "+ s[3,3,2,1/1,1]",
    "- s[4,2,2/1]",
    "+ s[4,2,2,1/1,1]",
    "+ s[4,3,2/1,1]",
    "+ s[5,2,2/1,1]",
]

EXPAND_JSON = (
    '{"basis": "skew", "terms": [{"coeff": 1, "outer": [3, 2, 2], "inner": []}, '
    '{"coeff": -1, "outer": [3, 2, 2, 1], "inner": [1]}, '
    '{"coeff": 1, "outer": [3, 2, 2, 2], "inner": [1, 1]}, '
    '{"coeff": -1, "outer": [3, 3, 2], "inner": [1]}, '
    '{"coeff": 1, "outer": [3, 3, 2, 1], "inner": [1, 1]}, '
    '{"coeff": -1, "outer": [4, 2, 2], "inner": [1]}, '
    '{"coeff": 1, "outer": [4, 2, 2, 1], "inner": [1, 1]}, '
    '{"coeff": 1, "outer": [4, 3, 2], "inner": [1, 1]}, '
    '{"coeff": 1, "outer": [5, 2, 2], "inner": [1, 1]}]}\n'
)

PRODUCT_JSON = (
    '{"basis": "schur", "terms": [{"coeff": 1, "partition": [2, 2, 1, 1]}, '
    '{"coeff": 1, "partition": [2, 2, 2]}, {"coeff": 1, "partition": [3, 1, 1, 1]}, '
    '{"coeff": 2, "partition": [3, 2, 1]}, {"coeff": 1, "partition": [3, 3]}, '
    '{"coeff": 1, "partition": [4, 1, 1]}, {"coeff": 1, "partition": [4, 2]}]}\n'
)

SKEW_PRODUCT_LINES = [
    "- s[3,2,1,1,1]",
    "- 2*s[3,2,2,1]",
    "+ s[3,2,2,1,1/1]",
    "+ s[3,2,2,2/1]",
    "- 2*s[3,3,1,1]",
    "+ s[3,3,1,1,1/1]",
    "- 2*s[3,3,2]",
    "+ 2*s[3,3,2,1/1]",
    "+ s[3,3,3/1]",
    "- 2*s[4,2,1,1]",
    "+ s[4,2,1,1,1/1]",
    "- 2*s[4,2,2]",
    "+ 2*s[4,2,2,1/1]",
    "- 2*s[4,3,1]",
    "+ 2*s[4,3,1,1/1]",
    "+ 2*s[4,3,2/1]",
    "+ s[4,4,1/1]",
    "- s[5,2,1]",
    "+ s[5,2,1,1/1]",
    "+ s[5,2,2/1]",
    "+ s[5,3,1/1]",
]

SKEW_PRODUCT_JSON = (
    '{"basis": "skew", "terms": [{"coeff": -1, "outer": [3, 2, 1, 1, 1], "inner": []}, '
    '{"coeff": -2, "outer": [3, 2, 2, 1], "inner": []}, '
    '{"coeff": 1, "outer": [3, 2, 2, 1, 1], "inner": [1]}, '
    '{"coeff": 1, "outer": [3, 2, 2, 2], "inner": [1]}, '
    '{"coeff": -2, "outer": [3, 3, 1, 1], "inner": []}, '
    '{"coeff": 1, "outer": [3, 3, 1, 1, 1], "inner": [1]}, '
    '{"coeff": -2, "outer": [3, 3, 2], "inner": []}, '
    '{"coeff": 2, "outer": [3, 3, 2, 1], "inner": [1]}, '
    '{"coeff": 1, "outer": [3, 3, 3], "inner": [1]}, '
    '{"coeff": -2, "outer": [4, 2, 1, 1], "inner": []}, '
    '{"coeff": 1, "outer": [4, 2, 1, 1, 1], "inner": [1]}, '
    '{"coeff": -2, "outer": [4, 2, 2], "inner": []}, '
    '{"coeff": 2, "outer": [4, 2, 2, 1], "inner": [1]}, '
    '{"coeff": -2, "outer": [4, 3, 1], "inner": []}, '
    '{"coeff": 2, "outer": [4, 3, 1, 1], "inner": [1]}, '
    '{"coeff": 2, "outer": [4, 3, 2], "inner": [1]}, '
    '{"coeff": 1, "outer": [4, 4, 1], "inner": [1]}, '
    '{"coeff": -1, "outer": [5, 2, 1], "inner": []}, '
    '{"coeff": 1, "outer": [5, 2, 1, 1], "inner": [1]}, '
    '{"coeff": 1, "outer": [5, 2, 2], "inner": [1]}, '
    '{"coeff": 1, "outer": [5, 3, 1], "inner": [1]}]}\n'
)

# s[12,12] * s[12,12], captured from the default skew-LR rule. Products of
# two rectangles are multiplicity-free, so every coefficient is 1.
RECTANGLE_PRODUCT = """
12,12,12,12 13,12,12,11 13,13,11,11 14,12,12,10 14,13,11,10 14,14,10,10
15,12,12,9 15,13,11,9 15,14,10,9 15,15,9,9 16,12,12,8 16,13,11,8 16,14,10,8
16,15,9,8 16,16,8,8 17,12,12,7 17,13,11,7 17,14,10,7 17,15,9,7 17,16,8,7
17,17,7,7 18,12,12,6 18,13,11,6 18,14,10,6 18,15,9,6 18,16,8,6 18,17,7,6
18,18,6,6 19,12,12,5 19,13,11,5 19,14,10,5 19,15,9,5 19,16,8,5 19,17,7,5
19,18,6,5 19,19,5,5 20,12,12,4 20,13,11,4 20,14,10,4 20,15,9,4 20,16,8,4
20,17,7,4 20,18,6,4 20,19,5,4 20,20,4,4 21,12,12,3 21,13,11,3 21,14,10,3
21,15,9,3 21,16,8,3 21,17,7,3 21,18,6,3 21,19,5,3 21,20,4,3 21,21,3,3
22,12,12,2 22,13,11,2 22,14,10,2 22,15,9,2 22,16,8,2 22,17,7,2 22,18,6,2
22,19,5,2 22,20,4,2 22,21,3,2 22,22,2,2 23,12,12,1 23,13,11,1 23,14,10,1
23,15,9,1 23,16,8,1 23,17,7,1 23,18,6,1 23,19,5,1 23,20,4,1 23,21,3,1
23,22,2,1 23,23,1,1 24,12,12 24,13,11 24,14,10 24,15,9 24,16,8 24,17,7
24,18,6 24,19,5 24,20,4 24,21,3 24,22,2 24,23,1 24,24
""".split()

BIG_BASE = "7,5,4,1,1/3,1"
BIG_T = "7,6,4,4,1/3,1: [1,2,2,5][1,2,2,3,6][2,2,3,4][3,5,7,7][9]"
BIG_DT = "7,6,4,3,1/2,1: [1,1,2,2,5][2,2,2,3,6][2,3,4,7][3,5,7][9]"


class TestExpand:
    def test_text_golden(self, capsys):
        assert run(["expand", "3,2,2/1,1", "--h", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == EXPAND_LINES

    def test_json_round_trip(self, capsys):
        assert run(["expand", "3,2,2/1,1", "--h", "2", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == EXPAND_JSON
        payload = json.loads(out)
        assert payload["basis"] == "skew"
        got = expansion_from_json(payload)
        assert got.same_terms(skew_pieri(parse_shape("3,2,2/1,1"), 2))

    def test_dual_flag(self, capsys):
        assert run(["expand", "2,1", "--h", "2", "--dual"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["+ s[2,1,1,1]", "+ s[2,2,1]", "+ s[3,1,1]", "+ s[3,2]"]

    def test_compact_spelling_matches(self, capsys):
        assert run(["expand", "322/11", "--h", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == EXPAND_LINES


class TestProduct:
    def test_large_skew_product_golden(self):
        # 634 terms, past the skew-lr sweep's sizes: the digest pins the
        # text byte for byte, and the Schur image must match the Schur rule.
        argv = ["product", "5,4,3,2/3,2,1", "4,3,1/2"]
        code, out, _ = capture(run, argv)
        assert code == 0
        assert len(out.splitlines()) == 634
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "96c2d4177b7b86484f4de09009ebad42de5a4035409e01faa8a4ad89f579ac60"
        )
        _, skew_json, _ = capture(run, [*argv, "--format", "json"])
        _, schur_json, _ = capture(run, [*argv, "--rule", "schur", "--format", "json"])
        want = expansion_from_json(json.loads(schur_json))
        assert expansion_from_json(json.loads(skew_json)).to_schur() == want

    def test_large_skew_product_pairs(self):
        # The 634-term product read off its 7 357 signed (T-, T+) pairs.
        code, out, _ = capture(run, ["product", "5,4,3,2/3,2,1", "4,3,1/2", "--format", "json"])
        assert code == 0
        terms, pairs = {}, 0
        for *_, shape, sign in skew_lr_pairs(parse_shape("5,4,3,2/3,2,1"), parse_shape("4,3,1/2")):
            terms[shape] = terms.get(shape, 0) + sign
            pairs += 1
        assert pairs == 7357
        assert SkewExpansion(terms).same_terms(expansion_from_json(json.loads(out)))

    @pytest.mark.usefixtures("fresh_caches")
    def test_many_fillings_per_content_digest(self):
        # A product whose LR tables hold many fillings per content, past
        # every sweep's sizes, pinned byte for byte.
        code, out, _ = capture(run, ["product", "20,15,10,5/10,5", "6,4,2/3"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "82c23a36658609d89a82ead4fc84cf22da4ef73acb926b4306da3fc9e2c9acfd"
        )

    def test_schur_rule_golden(self, capsys):
        assert run(["product", "2,1", "2,1", "--rule", "schur"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "+ s[2,2,1,1]",
            "+ s[2,2,2]",
            "+ s[3,1,1,1]",
            "+ 2*s[3,2,1]",
            "+ s[3,3]",
            "+ s[4,1,1]",
            "+ s[4,2]",
        ]
        assert run(["product", "2,1", "2,1", "--rule", "schur", "--format", "json"]) == 0
        assert capsys.readouterr().out == PRODUCT_JSON

    def test_skew_lr_default_agrees_with_schur(self, capsys):
        assert run(["product", "2,1/1", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "- s[2,1,1]",
            "- s[2,2]",
            "+ s[2,2,1/1]",
            "- s[3,1]",
            "+ s[3,1,1/1]",
            "+ s[3,2/1]",
            "+ s[4,1/1]",
        ]
        assert run(["product", "2,1/1", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["basis"] == "skew"
        got = expansion_from_json(payload).to_schur()
        assert run(["product", "2,1/1", "2", "--rule", "schur", "--format", "json"]) == 0
        want = expansion_from_json(json.loads(capsys.readouterr().out))
        assert got == want

    def test_large_rectangle_product_is_quick(self):
        # A timing guard: s[30,30] * s[30,30] took about 7 s when the default
        # rule still backtracked over T+, and takes a few hundredths of a
        # second now. For straight factors both rules reach the same Schur
        # product, so the comparison checks only that the output agrees;
        # the Jacobi-Trudi oracle in test_rules checks the values.
        argv = ["product", "30,30", "30,30"]
        code, out, _ = capture(run, argv)
        assert code == 0
        assert len(out.splitlines()) == 31 * 32 // 2
        assert out == capture(run, [*argv, "--rule", "schur"])[1]

    def test_schur_rule_matches_default_on_rectangles(self, capsys):
        argv = ["product", "12,12", "12,12"]
        lines = "".join(f"+ s[{p}]\n" for p in RECTANGLE_PRODUCT)
        parts = [[int(x) for x in p.split(",")] for p in RECTANGLE_PRODUCT]
        skew = [{"coeff": 1, "outer": q, "inner": []} for q in parts]
        straight = [{"coeff": 1, "partition": q} for q in parts]
        assert len(parts) == 91
        for rule in ([], ["--rule", "schur"]):
            assert run(argv + rule) == 0
            assert capsys.readouterr().out == lines
        assert run(argv + ["--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps({"basis": "skew", "terms": skew}) + "\n"
        assert run(argv + ["--rule", "schur", "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps({"basis": "schur", "terms": straight}) + "\n"


    def test_skew_lr_skew_factor_golden(self, capsys):
        assert run(["product", "3,2,1/1", "2,2/1"]) == 0
        assert capsys.readouterr().out.splitlines() == SKEW_PRODUCT_LINES
        assert run(["product", "3,2,1/1", "2,2/1", "--format", "json"]) == 0
        assert capsys.readouterr().out == SKEW_PRODUCT_JSON


class TestVerify:
    def test_perp_text(self, capsys):
        assert run(["verify", "perp", "--max-deg", "2", "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "cases:" in out
        assert out.strip().endswith("ok: True")

    def test_involution_json(self, capsys):
        assert run(
            ["verify", "involution", "--max-outer", "3", "--max-n", "1", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["failures"] == []
        assert payload["contexts"] > 0

    def test_skew_lr_sweep(self, capsys):
        assert run(["verify", "skew-lr", "--max-outer", "3", "--max-outer-b", "2"]) == 0
        assert "ok: True" in capsys.readouterr().out

    def test_skew_pieri_sweep(self, capsys):
        assert run(["verify", "skew-pieri", "--max-outer", "3", "--max-n", "1"]) == 0
        assert "ok: True" in capsys.readouterr().out


class TestTrace:
    def test_downward_text(self, capsys):
        assert run(["trace", "slide", BIG_BASE, BIG_T, "--op", "D"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"D over base {BIG_BASE}"
        assert out[1] == f"start: {BIG_T}"
        assert out[2] == "reverse: entry 5 along (2,6) -> (1,7), exits at row 0"
        assert out[-1] == f"result: {BIG_DT}"
        kinds = [line.split(":")[0] for line in out[2:-1] if not line.startswith("  state")]
        assert kinds == ["reverse"] * 4 + ["external"] * 3

    def test_phi_round_trip_via_json(self, capsys):
        assert run(["trace", "slide", BIG_BASE, BIG_T, "--op", "phi", "--format", "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["op"] == "phi"
        assert first["result"] == BIG_DT
        assert run(
            ["trace", "slide", BIG_BASE, first["result"], "--op", "phi", "--format", "json"]
        ) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["result"] == BIG_T

    def test_phi_json_digest(self):
        # phi's trace of BIG_T byte for byte: every step's kind, entry, path,
        # landing row and state, and the result.
        argv = ["trace", "slide", BIG_BASE, BIG_T, "--op", "phi", "--format", "json"]
        code, out, _ = capture(run, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b07b111b63b987e9790a5f918a90f79529d4295d55ba5bd16adbef7b28ff936e"
        )

    def test_upward_inverts_downward(self, capsys):
        assert run(["trace", "slide", BIG_BASE, BIG_DT, "--op", "U"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"result: {BIG_T}"

    def test_json_step_schema(self, capsys):
        assert run(["trace", "slide", BIG_BASE, BIG_T, "--op", "D", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"op", "base", "input", "steps", "result"}
        step = payload["steps"][0]
        assert set(step) == {"kind", "entry", "path", "landing_row", "tableau"}
        assert step["kind"] == "reverse"
        assert step["entry"] == 5
        # paths are stored bottom row first regardless of traversal direction
        assert step["path"] == [[1, 7], [2, 6]]
        assert step["landing_row"] == 0


def _ones(k):
    """The column partition 1^k as CLI text."""
    return ",".join(["1"] * k)


class TestErrors:
    def test_bad_shape_exits_2(self, capsys):
        assert run(["expand", "bogus/shape", "--h", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_bad_tableau_exits_2(self, capsys):
        assert run(["trace", "slide", "2,1/1", "2,1/1: [1]"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_strip_exits_2(self, capsys):
        assert run(["expand", "3,2/1", "--h", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "involution", "--max-n", "-1"],
            ["verify", "involution", "--max-outer", "-1"],
            ["verify", "skew-pieri", "--max-entry", "-1"],
            ["verify", "perp", "--max-deg", "-1"],
            ["verify", "skew-lr", "--max-outer-b", "-1"],
        ],
        ids=["involution-max-n", "involution-max-outer", "skew-pieri", "perp", "skew-lr"],
    )
    def test_negative_sweep_limit_exits_2(self, capsys, argv):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "must be nonnegative, got -1" in err

    def test_slide_off_its_domain_exits_2(self, capsys):
        assert run(["trace", "slide", "1,1/1,1", "1,1,1/1: [][1][2]", "--op", "U"]) == 2
        err = capsys.readouterr().err
        assert err == "error: upward slide does not apply: row 2 has no inside corner\n"

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["expand", "2,1", "--h", "1", "--frobnicate"]) == 2

    def test_missing_subcommand_exits_2(self, capsys):
        assert run([]) == 2

    def test_failing_sweep_exits_1(self, capsys, monkeypatch):
        from skewtab.rules import SWEEPS

        boom = SWEEPS["perp"]._replace(run=lambda *a: {"cases": 1, "failures": ["boom"]})
        monkeypatch.setitem(SWEEPS, "perp", boom)
        assert run(["verify", "perp"]) == 1
        out = capsys.readouterr().out
        assert "FAIL: boom" in out

    def test_parser_prog_name(self):
        assert build_parser().prog == "skewtab"

    def test_term_lines_rejects_other_types(self):
        with pytest.raises(TypeError):
            term_lines(42)

    @pytest.mark.parametrize(
        "shape,flags,terms",
        [
            (_ones(2000), [], [f"+ s[2,{_ones(2000)}]", f"+ s[3,{_ones(1999)}]"]),
            (
                _ones(2000),
                ["--dual"],
                [f"+ s[{_ones(2002)}]", f"+ s[2,{_ones(2000)}]", f"+ s[2,2,{_ones(1998)}]"],
            ),
            (
                f"{_ones(2000)}/{_ones(1000)}",
                [],
                [
                    f"+ s[{_ones(2000)}/{_ones(998)}]",
                    f"- s[{_ones(2001)}/{_ones(999)}]",
                    f"- s[2,{_ones(1999)}/{_ones(999)}]",
                    f"+ s[2,{_ones(2000)}/{_ones(1000)}]",
                    f"+ s[3,{_ones(1999)}/{_ones(1000)}]",
                ],
            ),
        ],
        ids=["column", "column-dual", "skew-column"],
    )
    def test_tall_shape_expands(self, capsys, shape, flags, terms):
        # The strip enumerators loop over rows instead of recursing, so a tall
        # shape has no recursion limit to hit.
        assert run(["expand", shape, "--h", "2", *flags]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == terms


    def test_tall_schur_product(self, capsys):
        # Neither the LR filling loop behind --rule schur nor the pair loop
        # behind the default rule keeps a call per cell, so under both rules
        # the product of a column with h_2 prints expand's two lines.
        for rule in ([], ["--rule", "schur"]):
            assert run(["product", _ones(2000), "2", *rule]) == 0, rule
            out, err = capsys.readouterr()
            assert err == ""
            assert out.splitlines() == [f"+ s[2,{_ones(2000)}]", f"+ s[3,{_ones(1999)}]"]
        # The factor that once hit the recursion limit.
        assert run(["product", _ones(600), "1"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == [f"+ s[{_ones(601)}]", f"+ s[2,{_ones(599)}]"]


REUSE_SEQUENCE = [
    ["--help"],
    ["expand", "--help"],
    ["expand", "2,1", "--h", "1", "--frobnicate"],
    [],
    ["expand", "bogus/shape", "--h", "1"],
    ["expand", "3,2,2/1,1", "--h", "2"],
    ["expand", "3,2,2/1,1", "--h", "2", "--dual", "--format", "json"],
    ["expand", "2,1", "--h", "2", "--dual"],
    ["product", "3,2,1/1", "2,2/1"],
    ["product", "3,2,1/1", "2,2/1", "--format", "json"],
    ["product", "2,1", "2,1", "--rule", "schur"],
    ["product", "2,1/1", "2", "--rule", "schur", "--format", "json"],
    ["verify", "perp", "--max-deg", "1"],
    ["verify", "perp", "--max-deg", "1", "--format", "json"],
    # Edges of the dispatch to the command's sub-parser: help, misspelt or
    # abbreviated command words and options, and tokens the sub-parser
    # leaves over or rejects.
    ["-h", "expand"],
    ["bogus"],
    ["expan", "2,1", "--h", "1"],
    ["expand"],
    ["expand", "2,1"],
    ["expand", "2,1", "--h", "x"],
    ["expand", "2,1", "--h=1"],
    ["expand", "2,1", "--h", "1", "--form", "json"],
    ["expand", "2,1", "--h", "1", "extra"],
    ["expand", "--", "2,1", "--h", "1"],
    ["--", "expand", "2,1", "--h", "1"],
    ["product", "2,1", "1", "--rul", "schur"],
    ["product", "2,1", "1", "--rule", "bad"],
    ["verify", "nope"],
    ["trace", "slid", "2,1/1", "2,1: [1][2]"],
    ["expand", "2,1", "--h", "1", "-h"],
    *(
        ["trace", "slide", BIG_BASE, tableau, "--op", op, *fmt]
        for op, tableau in [("D", BIG_T), ("U", BIG_DT), ("phi", BIG_T)]
        for fmt in ([], ["--format", "json"])
    ),
]


class TestParserReuse:
    def test_repeated_requests_match_a_fresh_parser(self):
        want = [capture(run_with_fresh_parser, argv) for argv in REUSE_SEQUENCE]
        assert {code for code, _, _ in want} == {0, 2}
        for _ in range(2):
            got = [capture(run, argv) for argv in REUSE_SEQUENCE]
            assert got == want

    def test_one_parsing_pass_per_request(self, monkeypatch):
        # The command word picks the sub-parser, which parses the rest alone:
        # the top-level parser does not walk the arguments first.
        calls = []
        plain = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            calls.append(parser.prog)
            return plain(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        for argv in (["expand", "2,1", "--h", "1"], ["product", "2,1", "1", "--rule", "schur"]):
            calls.clear()
            code, _, err = capture(run, argv)
            assert (code, err) == (0, "")
            assert calls == [f"skewtab {argv[0]}"]

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


class TestClosedPipe:
    """A reader that closes standard output early ends the command quietly:
    no traceback on stderr and the one fixed status, whether the output
    fails while it is printed or when it is flushed at exit."""

    @pytest.mark.parametrize(
        "argv",
        [["product", "20,15,10,5/10,5", "6,4,2/3"], ["expand", "2,1", "--h", "1"]],
        ids=["large", "small"],
    )
    def test_closed_pipe_exits_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        path = [str(Path(skewtab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "skewtab", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141  # the status the cli docstring documents
