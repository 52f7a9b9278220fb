import hypothesis
from hypothesis import strategies as st

from skewtab import Partition, SkewShape

hypothesis.settings.register_profile("suite", max_examples=60, deadline=None)
hypothesis.settings.load_profile("suite")


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
