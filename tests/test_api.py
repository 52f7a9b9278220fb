"""The public API as shipped: `skewtab.__all__`, the package namespace and the
README's "Public API" table name the same names, and the README's examples
run as printed; every public function raises a typed error on a wrong
argument, and every cache the library keeps has a known bound. Runs against
the source tree or an installed package alike."""

import contextlib
import importlib
import io
import pkgutil
import re
import shlex
import signal
import types
from pathlib import Path

import pytest

import skewtab
from skewtab.cli import run

from conftest import capture

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```[a-z]*\n(.*?)^```$", re.M | re.S)


def _section(title: str) -> str:
    """The README text under heading `## title`, up to the next such heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def _api_table() -> dict[str, list[str]]:
    """Module name -> names, read off the README's Public API table."""
    table = {}
    for line in _section("Public API").splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            table[cells[1].strip().strip("`")] = re.findall(r"`(\w+)`", cells[2])
    return table


def test_all_has_64_distinct_names():
    assert len(skewtab.__all__) == 64
    assert len(set(skewtab.__all__)) == len(skewtab.__all__)


def test_package_namespace_is_all():
    public = {
        name
        for name, value in vars(skewtab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(skewtab.__all__)


def test_readme_table_is_all():
    table = _api_table()
    listed = [name for names in table.values() for name in names]
    assert sorted(listed) == sorted(skewtab.__all__)
    for module, names in table.items():
        home = importlib.import_module(f"skewtab.{module}")
        for name in names:
            assert getattr(home, name) is getattr(skewtab, name), (module, name)


def test_readme_quick_start_runs_as_printed():
    (block,) = FENCED.findall(_section("Library quick start"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    # Each print's trailing comment is its output, with "..." eliding a middle part.
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    comments = [line.split("#", 1)[1].strip() for line in prints]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments)
    for shown, got in zip(comments, printed):
        head, elided, tail = shown.partition(" ... ")
        assert got.startswith(head) and got.endswith(tail) if elided else got == shown, (shown, got)


CLI_EXAMPLES = [
    block.splitlines() for block in FENCED.findall(README) if block.startswith("$ skewtab ")
]


def test_readme_has_cli_examples():
    assert len(CLI_EXAMPLES) == 4


@pytest.mark.parametrize("lines", CLI_EXAMPLES, ids=lambda lines: lines[0][2:])
def test_readme_cli_example_matches_run(lines):
    code, out, err = capture(run, shlex.split(lines[0])[2:])
    assert (code, err) == (0, "")
    assert out.splitlines() == lines[1:]


SHAPE = skewtab.SkewShape.of((2, 1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: skewtab.lr_fillings("x"), "shape 'x' is not a SkewShape"),
        (lambda: skewtab.skew_to_schur("x"), "s 'x' is not a SkewShape"),
        (lambda: skewtab.star(SHAPE, 1), "b 1 is not a SkewShape"),
        (lambda: skewtab.star((2, 1), SHAPE), "a (2, 1) is not a SkewShape"),
    ],
    ids=["lr-fillings-str", "skew-to-schur-str", "star-b-int", "star-a-tuple"],
)
def test_lr_layer_entries_name_the_wrong_typed_argument(call, message):
    # lr_fillings raises at the call, before any item is drawn.
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == message


CTX = skewtab.SlideContext(SHAPE, skewtab.Tableau(SHAPE, ((1, 1), (2,))))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: skewtab.phi("x"), "ctx 'x' is not a SlideContext"),
        (lambda: skewtab.downward_slide("x"), "ctx 'x' is not a SlideContext"),
        (lambda: skewtab.upward_slide("x"), "ctx 'x' is not a SlideContext"),
        (lambda: skewtab.is_fixed_point("x"), "ctx 'x' is not a SlideContext"),
        (lambda: skewtab.fixed_point_to_star("x"), "ctx 'x' is not a SlideContext"),
        (lambda: skewtab.star_to_fixed_point("x", CTX.tableau), "base 'x' is not a SkewShape"),
        (lambda: skewtab.star_to_fixed_point(SHAPE, "x"), "t 'x' is not a Tableau"),
        (lambda: skewtab.enumerate_contexts("x", 1, 3), "base 'x' is not a SkewShape"),
        (lambda: skewtab.enumerate_contexts(SHAPE, True, 3), "n must be an int, got True"),
        (lambda: skewtab.enumerate_contexts(SHAPE, "1", 3), "n must be an int, got '1'"),
        (lambda: skewtab.external_insert("x", 1), "t 'x' is not a Tableau"),
        (lambda: skewtab.internal_insert("x", 1), "t 'x' is not a Tableau"),
        (lambda: skewtab.reverse_insert("x", (1, 1)), "t 'x' is not a Tableau"),
    ],
    ids=[
        "phi-str",
        "downward-slide-str",
        "upward-slide-str",
        "is-fixed-point-str",
        "fixed-point-to-star-str",
        "star-to-fixed-point-base-str",
        "star-to-fixed-point-t-str",
        "enumerate-contexts-base-str",
        "enumerate-contexts-n-bool",
        "enumerate-contexts-n-str",
        "external-insert-str",
        "internal-insert-str",
        "reverse-insert-str",
    ],
)
def test_slide_and_insertion_entries_name_the_wrong_typed_argument(call, message):
    # enumerate_contexts raises at the call, before any context is drawn.
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == message


PART = skewtab.Partition((2, 1))
ONE = skewtab.schur((1,))

# Every public function with at least one wrong-typed or out-of-range call:
# row id (the function's name, then a tag), the call, the exception type and
# its exact message. Calls that return a generator are drawn once.
WRONG_ARGUMENTS = [
    ("downward_slide-str", lambda: skewtab.downward_slide("x"),
     TypeError, "ctx 'x' is not a SlideContext"),
    ("e-str", lambda: skewtab.e("2"), TypeError, "n must be an int, got '2'"),
    ("e-negative", lambda: skewtab.e(-1), ValueError, "n must be nonnegative, got -1"),
    ("enumerate_contexts-max-entry-float", lambda: skewtab.enumerate_contexts(SHAPE, 1, 1.5),
     TypeError, "max_entry must be an int, got 1.5"),
    ("enumerate_contexts-n-negative", lambda: skewtab.enumerate_contexts(SHAPE, -1, 3),
     ValueError, "strip size must be nonnegative"),
    ("enumerate_contexts-max-entry-negative", lambda: skewtab.enumerate_contexts(SHAPE, 1, -1),
     ValueError, "max_entry must be nonnegative, got -1"),
    ("enumerate_fillings-str", lambda: skewtab.enumerate_fillings(SHAPE, skewtab.SSYT, "3"),
     TypeError, "max_entry must be an int, got '3'"),
    ("enumerate_fillings-negative",
     lambda: skewtab.enumerate_fillings(SHAPE, skewtab.SSYT, -1),
     ValueError, "max_entry must be nonnegative, got -1"),
    ("enumerate_fillings-negative-empty-shape",
     lambda: skewtab.enumerate_fillings(skewtab.SkewShape.of(()), skewtab.SSYT, -1),
     ValueError, "max_entry must be nonnegative, got -1"),
    ("enumerate_fillings-tuple", lambda: skewtab.enumerate_fillings((1,), skewtab.SSYT, 2),
     TypeError, "shape (1,) is not a SkewShape"),
    ("enumerate_fillings-none", lambda: skewtab.enumerate_fillings(None, skewtab.SSYT, 2),
     TypeError, "shape None is not a SkewShape"),
    ("enumerate_inner_strips-float",
     lambda: skewtab.enumerate_inner_strips(PART, 1.5, skewtab.VERTICAL),
     TypeError, "k must be an int, got 1.5"),
    ("enumerate_inner_strips-bool",
     lambda: skewtab.enumerate_inner_strips(PART, True, skewtab.VERTICAL),
     TypeError, "k must be an int, got True"),
    ("enumerate_inner_strips-tuple",
     lambda: skewtab.enumerate_inner_strips((2, 1), 1, skewtab.VERTICAL),
     TypeError, "base (2, 1) is not a Partition"),
    ("enumerate_outer_strips-float",
     lambda: skewtab.enumerate_outer_strips(skewtab.Partition((2,)), 1.5, skewtab.HORIZONTAL),
     TypeError, "n must be an int, got 1.5"),
    ("enumerate_outer_strips-str",
     lambda: skewtab.enumerate_outer_strips(PART, "1", skewtab.HORIZONTAL),
     TypeError, "n must be an int, got '1'"),
    ("enumerate_outer_strips-tuple",
     lambda: skewtab.enumerate_outer_strips((2,), 1, skewtab.HORIZONTAL),
     TypeError, "base (2,) is not a Partition"),
    ("expansion_from_json-str", lambda: skewtab.expansion_from_json("x"),
     ValueError, "expansion must be a JSON object, not str"),
    ("expansion_to_json-str", lambda: skewtab.expansion_to_json("x"),
     TypeError, "cannot serialize str"),
    ("external_insert-str", lambda: skewtab.external_insert(CTX.tableau, "1"),
     TypeError, "k must be an int, got '1'"),
    ("fixed_point_to_star-str", lambda: skewtab.fixed_point_to_star("x"),
     TypeError, "ctx 'x' is not a SlideContext"),
    ("h-float", lambda: skewtab.h(1.5), TypeError, "n must be an int, got 1.5"),
    ("h-negative", lambda: skewtab.h(-1), ValueError, "n must be nonnegative, got -1"),
    ("hall_inner-str", lambda: skewtab.hall_inner("x", ONE),
     TypeError, "f 'x' is not a SchurExpansion"),
    ("internal_insert-float", lambda: skewtab.internal_insert(CTX.tableau, 1.5),
     TypeError, "r must be an int, got 1.5"),
    ("is_fixed_point-str", lambda: skewtab.is_fixed_point("x"),
     TypeError, "ctx 'x' is not a SlideContext"),
    ("is_yamanouchi-tuple", lambda: skewtab.is_yamanouchi((1,), (1,)),
     TypeError, "tau (1,) is not a Partition"),
    ("is_yamanouchi-none", lambda: skewtab.is_yamanouchi(None),
     TypeError, "word None is not an iterable of ints"),
    ("is_yamanouchi-str-letter", lambda: skewtab.is_yamanouchi(("a",)),
     TypeError, "word ('a',) has a letter that is not an int: 'a'"),
    ("is_yamanouchi-float-letter", lambda: skewtab.is_yamanouchi((1.5,)),
     TypeError, "word (1.5,) has a letter that is not an int: 1.5"),
    ("is_yamanouchi-bool-letter", lambda: skewtab.is_yamanouchi((1, True)),
     TypeError, "word (1, True) has a letter that is not an int: True"),
    ("is_yamanouchi-zero", lambda: skewtab.is_yamanouchi((0, -1)),
     ValueError, "word (0, -1) has a letter below 1: 0"),
    ("is_yamanouchi-negative", lambda: skewtab.is_yamanouchi((2, 1, -1)),
     ValueError, "word (2, 1, -1) has a letter below 1: -1"),
    ("lr_coefficient-str", lambda: skewtab.lr_coefficient("x", PART, PART),
     TypeError, "nu 'x' is not a Partition"),
    ("lr_fillings-str", lambda: skewtab.lr_fillings("x"),
     TypeError, "shape 'x' is not a SkewShape"),
    ("omega-str", lambda: skewtab.omega("x"), TypeError, "f 'x' is not a SchurExpansion"),
    ("parse_partition-none", lambda: skewtab.parse_partition(None),
     TypeError, "text None is not a str"),
    ("parse_shape-none", lambda: skewtab.parse_shape(None), TypeError, "text None is not a str"),
    ("parse_shape-bytes", lambda: skewtab.parse_shape(b"2,1"),
     TypeError, "text b'2,1' is not a str"),
    ("parse_tableau-none", lambda: skewtab.parse_tableau(None),
     TypeError, "text None is not a str"),
    ("partitions_of_size-float", lambda: skewtab.partitions_of_size(1.5),
     TypeError, "n must be an int, got 1.5"),
    ("partitions_of_size-str", lambda: skewtab.partitions_of_size("x"),
     TypeError, "n must be an int, got 'x'"),
    ("partitions_of_size-bool", lambda: skewtab.partitions_of_size(True),
     TypeError, "n must be an int, got True"),
    ("partitions_of_size-negative", lambda: skewtab.partitions_of_size(-1),
     ValueError, "n must be nonnegative, got -1"),
    ("perp-str", lambda: skewtab.perp("x", ONE), TypeError, "f 'x' is not a SchurExpansion"),
    ("phi-str", lambda: skewtab.phi("x"), TypeError, "ctx 'x' is not a SlideContext"),
    ("pieri-float", lambda: skewtab.pieri(PART, 1.5), TypeError, "n must be an int, got 1.5"),
    ("reading_word-str", lambda: skewtab.reading_word("x"), TypeError, "t 'x' is not a Tableau"),
    ("reverse_insert-str", lambda: skewtab.reverse_insert("x", (1, 1)),
     TypeError, "t 'x' is not a Tableau"),
    ("reverse_insert-bool-row", lambda: skewtab.reverse_insert(CTX.tableau, (True, 2)),
     TypeError, "c must be a pair of ints, got (True, 2)"),
    ("reverse_insert-float-col", lambda: skewtab.reverse_insert(CTX.tableau, (1, 2.0)),
     TypeError, "c must be a pair of ints, got (1, 2.0)"),
    ("reverse_insert-float-row", lambda: skewtab.reverse_insert(CTX.tableau, (2.0, 1)),
     TypeError, "c must be a pair of ints, got (2.0, 1)"),
    ("reverse_insert-int", lambda: skewtab.reverse_insert(CTX.tableau, 5),
     TypeError, "c must be a pair of ints, got 5"),
    ("reverse_insert-none", lambda: skewtab.reverse_insert(CTX.tableau, None),
     TypeError, "c must be a pair of ints, got None"),
    ("reverse_insert-triple", lambda: skewtab.reverse_insert(CTX.tableau, (2, 1, 0)),
     TypeError, "c must be a pair of ints, got (2, 1, 0)"),
    ("schur-str", lambda: skewtab.schur("x"), ValueError, "non-integer part in ('x',)"),
    ("schur-none", lambda: skewtab.schur(None),
     TypeError, "p None is not a Partition or an iterable of parts"),
    ("schur_product-str", lambda: skewtab.schur_product("x", ONE),
     TypeError, "f 'x' is not a SchurExpansion"),
    ("skew_expansion_to_schur-str", lambda: skewtab.skew_expansion_to_schur("x"),
     TypeError, "x 'x' is not a SkewExpansion"),
    ("skew_h_rho_product-tuple", lambda: skewtab.skew_h_rho_product(SHAPE, (1,)),
     TypeError, "rho (1,) is not a Partition"),
    ("skew_lr_pairs-str", lambda: next(skewtab.skew_lr_pairs(SHAPE, "x")),
     TypeError, "b 'x' is not a SkewShape"),
    ("skew_lr_pairs-str-at-the-call", lambda: skewtab.skew_lr_pairs(SHAPE, "x"),
     TypeError, "b 'x' is not a SkewShape"),
    ("skew_lr_product-str", lambda: skewtab.skew_lr_product("x", SHAPE),
     TypeError, "a 'x' is not a SkewShape"),
    ("skew_pieri-float", lambda: skewtab.skew_pieri(SHAPE, 1.5),
     TypeError, "n must be an int, got 1.5"),
    ("skew_to_schur-str", lambda: skewtab.skew_to_schur("x"),
     TypeError, "s 'x' is not a SkewShape"),
    ("star-int", lambda: skewtab.star(SHAPE, 1), TypeError, "b 1 is not a SkewShape"),
    ("star_to_fixed_point-str", lambda: skewtab.star_to_fixed_point("x", CTX.tableau),
     TypeError, "base 'x' is not a SkewShape"),
    ("upward_slide-str", lambda: skewtab.upward_slide("x"),
     TypeError, "ctx 'x' is not a SlideContext"),
    ("validate-str", lambda: skewtab.validate("x", skewtab.SSYT),
     TypeError, "t 'x' is not a Tableau"),
    ("verify_perp_range-float", lambda: skewtab.verify_perp_range(1.5, 1),
     TypeError, "max_deg must be an int, got 1.5"),
    ("verify_involution-str", lambda: skewtab.verify_involution(1, 1, "3"),
     TypeError, "max_entry must be an int, got '3'"),
    ("verify_skew_lr-negative", lambda: skewtab.verify_skew_lr(-1, 1),
     ValueError, "limit_outer_a must be nonnegative, got -1"),
    ("verify_skew_pieri-bool", lambda: skewtab.verify_skew_pieri(1, True),
     TypeError, "limit_n must be an int, got True"),
]


def test_every_public_function_has_a_wrong_argument_row():
    functions = {
        name
        for name in skewtab.__all__
        if callable(getattr(skewtab, name)) and not isinstance(getattr(skewtab, name), type)
    }
    assert {row[0].partition("-")[0] for row in WRONG_ARGUMENTS} == functions


def _timed_out(signum, frame):
    raise TimeoutError("no answer within 5 s")


@pytest.mark.parametrize(
    "call, kind, message",
    [row[1:] for row in WRONG_ARGUMENTS],
    ids=[row[0] for row in WRONG_ARGUMENTS],
)
def test_wrong_argument_raises_a_typed_error_at_the_call(call, kind, message):
    # The alarm turns a call that never returns (a strip size of 1.5 once
    # looped forever) into a failure of its own row.
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(5)
    try:
        with pytest.raises(kind) as exc:
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == message


# Every functools cache in the package, by the module that defines it, with
# its maxsize (None: unbounded, which only the CLI's one parser is). The
# bounded ones hold the canonical partitions and the slides' canonical
# shapes, strip facts and untraced images, the skew products' T- tables and
# s_lam * f blocks, the perp sweep's per-operand, per-pair and per-n memos
# and the fixed-point maps' star shape.
CACHES = {
    "shapes._canonical": 4096,
    "shapes._canonical_shape": 4096,
    "shapes.partitions_of_size": 4096,
    "symfunc._lr_pairs": 4096,
    "symfunc._basis_product": 4096,
    "symfunc._perp_table": 4096,
    "symfunc._monomial_pairs": 4096,
    "symfunc._eh_failures": 64,
    "symfunc._operand_images": 64,
    "symfunc._pair_images": 1,
    "involution._star_row": 1,
    "involution._strip_facts": 4096,
    "involution._slide_image": 512,
    "rules._minus_table": 4096,
    "rules._block": 256,
    "cli._parser": None,
}


def test_cache_inventory():
    # Every module of the package but __main__, which runs the CLI on import.
    names = [info.name for info in pkgutil.iter_modules(skewtab.__path__) if info.name != "__main__"]
    found = {}
    for module in [skewtab, *(importlib.import_module(f"skewtab.{name}") for name in names)]:
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:  # not an import
                found[f"{module.__name__.removeprefix('skewtab.')}.{name}"] = obj.cache_info().maxsize
    assert {"insertion", "involution", "tableaux"} <= set(names)
    assert found == CACHES
