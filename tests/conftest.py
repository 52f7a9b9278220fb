import contextlib
import io
import sys

import hypothesis
import pytest
from hypothesis import strategies as st

from skewtab import Partition, SkewShape, Tableau
from skewtab.cli import build_parser

from oracles import clear_perp_memos

hypothesis.settings.register_profile("suite", max_examples=60, deadline=None)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def fresh_perp_memos():
    """Empty every memo perp_identity_failures reads (oracles.PERP_MEMOS)
    before and after a test that patches what fills them (perp, _perp_table):
    an image or verdict cached on one side of the patch must not answer for
    the other."""
    clear_perp_memos()
    yield
    clear_perp_memos()


def clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("skewtab."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@pytest.fixture
def fresh_caches():
    """Empty every functools cache of the package before and after the test.
    A test that builds more partitions than shapes._canonical holds leaves
    tables holding objects equal to, not the same as, those the cache hands
    out after the evictions; a test that pins which objects tables share
    (test_values) must start from empty caches whatever ran before it."""
    clear_package_caches()
    yield
    clear_package_caches()


@st.composite
def partitions(draw, max_len=5, max_part=6):
    length = draw(st.integers(0, max_len))
    parts = draw(st.lists(st.integers(1, max_part), min_size=length, max_size=length))
    return Partition(tuple(sorted(parts, reverse=True)))


@st.composite
def skew_shapes(draw, max_len=5, max_part=6):
    outer = draw(partitions(max_len=max_len, max_part=max_part))
    inner = []
    cap = outer.part(1)
    for i in range(1, len(outer) + 1):
        cap = draw(st.integers(0, min(cap, outer.part(i))))
        inner.append(cap)
    return SkewShape(outer, Partition(tuple(inner)))


@st.composite
def tableaux(draw, max_len=4, max_part=4, max_entry=4):
    """Any filling of a skew shape by positive entries, semistandard or not."""
    shape = draw(skew_shapes(max_len=max_len, max_part=max_part))
    rows = []
    for r in range(1, shape.rows + 1):
        lo, hi = shape.row_bounds(r)
        entries = st.lists(st.integers(1, max_entry), min_size=hi - lo, max_size=hi - lo)
        rows.append(tuple(draw(entries)))
    return Tableau(shape, tuple(rows))


def validate_by_cells(t, kind):
    """Reference semistandard test, sharing no code with tableaux.validate:
    place every entry at its (row, column) cell, then compare each cell with
    the cell right of it and the cell above it."""
    entries = {}
    for r, row in enumerate(t.rows, start=1):
        for j, x in enumerate(row):
            entries[(r, t.shape.inner.part(r) + j + 1)] = x
    for (r, c), x in entries.items():
        right = entries.get((r, c + 1))
        above = entries.get((r + 1, c))
        if kind == "ssyt":
            if right is not None and not x <= right:
                return False
            if above is not None and not above > x:
                return False
        else:
            if right is not None and not x > right:
                return False
            if above is not None and not above <= x:
                return False
    return True


def capture(serve, argv):
    """(exit code, stdout, stderr) of one command line served by serve."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = serve(argv)
    return code, out.getvalue(), err.getvalue()


def run_with_fresh_parser(argv):
    """Reference for run: the same request served by a newly built parser."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
