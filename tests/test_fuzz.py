"""Fuzzing of the text boundary: the parse/format round trips, and `cli.run`
on command lines drawn from the four subcommands, their flags, and shape-
and tableau-like strings, well formed or not."""

from hypothesis import given, settings
from hypothesis import strategies as st

from skewtab import (
    SkewShape,
    enumerate_contexts,
    parse_shape,
    parse_tableau,
)
from skewtab.shapes import format_shape
from skewtab.tableaux import format_tableau
from skewtab.cli import run

from conftest import capture, skew_shapes, tableaux

# Junk alphabets. Product operands are shapes of at most 4 rows of at most 4,
# or junk of single digits up to 4 and at most three characters (four could
# spell a part of 44, as in "44,4"), so no drawn product is larger than
# 4,4,4,4 times 4,4,4,4. Straight products that size take either rule under
# 0.1 s, skew ones up to about 0.6 s under the default rule. Expand and trace
# stay cheap at any size the other alphabet can spell.
JUNK = "0123456789,/:[]- x∅"
SMALL_JUNK = "01234,/:- x"

CONTEXTS = [
    ctx
    for base in (SkewShape.of((2, 1), (1,)), SkewShape.of((2, 1)), SkewShape.of((2, 2), (1,)))
    for n in (1, 2)
    for ctx in enumerate_contexts(base, n, 2)
]


def compact(s: SkewShape) -> str:
    """The digit-per-part spelling, e.g. 322/11."""
    outer = "".join(map(str, s.outer.parts))
    inner = "".join(map(str, s.inner.parts))
    return f"{outer}/{inner}" if inner else outer


def shape_texts(junk=JUNK, max_junk=8, max_side=3):
    small = skew_shapes(max_len=max_side, max_part=max_side)
    return st.one_of(
        small.map(format_shape), small.map(compact), st.text(junk, max_size=max_junk)
    )


def int_texts(lo, hi):
    """Mostly an integer in lo..hi, sometimes no integer at all."""
    return st.sampled_from([str(i) for i in range(lo, hi + 1)] * 6 + ["", "x", "1.5", "-"])


def choice(*valid, invalid):
    """Mostly one of valid, sometimes the invalid choice."""
    return st.sampled_from([*valid, *valid, invalid])


def tableau_texts():
    return st.one_of(
        tableaux(max_len=3, max_part=3, max_entry=3).map(format_tableau),
        st.builds("{}: {}".format, shape_texts(), st.text("0123,[] ", max_size=8)),
        st.text(JUNK, max_size=12),
    )


@st.composite
def argvs(draw):
    """Subcommand, its positionals and its required options, then a random
    selection of its other options in random order, then maybe one edit."""
    fmt = ["--format", draw(choice("text", "json", invalid="xml"))]
    command = draw(st.sampled_from(["expand", "product", "verify", "trace", "junk"]))
    if command == "expand":
        head = ["expand", draw(shape_texts()), "--h", draw(int_texts(-1, 3))]
        options = [["--dual"], fmt]
    elif command == "product":
        small = shape_texts(SMALL_JUNK, 3, max_side=4)
        head = ["product", draw(small), draw(small)]
        options = [["--rule", draw(choice("skew-lr", "schur", invalid="other"))], fmt]
    elif command == "verify":
        target = draw(choice("skew-pieri", "involution", "perp", "skew-lr", invalid="other"))
        # Every limit is given, at most 2, so no sweep runs at its default size.
        limits = ["--max-outer", "--max-n", "--max-entry", "--max-deg", "--max-outer-b"]
        head = ["verify", target]
        for flag in limits:
            head += [flag, draw(int_texts(0, 2))]
        options = [fmt]
    elif command == "trace":
        if draw(st.booleans()):
            ctx = draw(st.sampled_from(CONTEXTS))
            base, tableau = format_shape(ctx.base), format_tableau(ctx.tableau)
        else:
            base, tableau = draw(shape_texts()), draw(tableau_texts())
        head = ["trace", draw(choice("slide", invalid="insert")), base, tableau]
        options = [["--op", draw(choice("D", "U", "phi", invalid="X"))], fmt]
    else:
        head = [draw(st.text(JUNK, max_size=6))]
        options = []
    kept = draw(st.permutations(options))[: draw(st.integers(0, len(options)))]
    argv = head + [token for option in kept for token in option]
    # Sometimes drop a token or add a stray one, so that usage errors come up.
    edit = draw(st.sampled_from(["keep", "keep", "keep", "drop", "add"]))
    if edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "add":
        stray = draw(st.sampled_from(["--frobnicate", "-h", "--h", "1", "--dual", "--"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


class TestRoundTrips:
    @given(skew_shapes())
    def test_shape_text_round_trip(self, s):
        text = format_shape(s)
        assert parse_shape(text) == s
        assert format_shape(parse_shape(text)) == text
        assert parse_shape(compact(s)) == s

    @given(tableaux())
    def test_tableau_text_round_trip(self, t):
        text = format_tableau(t)
        assert parse_tableau(text) == t
        assert format_tableau(parse_tableau(text)) == text


class TestCliFuzz:
    @settings(max_examples=200)
    @given(argvs())
    def test_exit_code_and_repeat(self, argv):
        first = capture(run, list(argv))
        code, _, err = first
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2 and not err.startswith("usage:"):
            assert err.startswith("error: ")
        # The shared parser carries nothing from one request to the next.
        assert capture(run, list(argv)) == first
