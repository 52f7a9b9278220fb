"""The `session` workload: a seeded stream of CLI requests and its cross-check.

`generate(seed, count)` returns argv lists in the documented CLI formats and
nothing else, so the program sees only generated inputs. The generator shares
no code with skewtab: it builds partitions, strips and semistandard fillings
itself, and writes them in the CLI's text syntax. A seeded share of requests
repeats an earlier one verbatim, so one session both fills and hits the
program's caches.

The mix is synthetic: no measured traffic stands behind it. Sizes follow the
ranges the acceptance gate already checks exhaustively (README, criteria 5, 6
and 8), so every request lies inside verified territory. Request kinds and
sizes come in equal shares, and the other choices the CLI documents
(`--dual`, output format) with equal odds. Only REPEAT_SHARE is a free
choice. Each request is labelled with its kind, and a repeat with
"<kind>:repeat", so that run.py can report latency per label and a change's
effect can be re-weighted.

`cross_check(argv, code, stdout)` re-derives each answer through skewtab's
public API, outside the timed section: expansions and products taken back to
the Schur basis must equal `schur_product` of the factors, and `phi` applied
to a traced slide's result must give back the input context.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from typing import Iterator

from skewtab import (
    SkewExpansion,
    SlideContext,
    e,
    expansion_from_json,
    h,
    parse_shape,
    parse_tableau,
    phi,
    schur_product,
    skew_to_schur,
)

REPEAT_SHARE = 0.25
# The request kinds, each sent equally often, with the sizes each is sent
# at, each size pair equally often. The sizes are the acceptance gate's
# exhaustive ranges (README criteria).
SIZES = {
    # criterion 6: outer size <= 6, strip size n <= 3
    "expand": (range(1, 7), range(1, 4)),
    # criterion 8: first factor of outer size <= 5, second <= 4
    "product-skew-lr": (range(1, 6), range(1, 5)),
    "product-schur": (range(1, 6), range(1, 5)),
    # criterion 5: base of outer size <= 5, strip size n <= 2, entries <= 3
    "trace-phi": (range(1, 6), range(1, 3)),
}
KINDS = tuple(SIZES)
SLIDE_ENTRY = 3


def _partition(rng: random.Random, size: int) -> list[int]:
    """A random partition of size, built by random cell additions."""
    parts: list[int] = []
    for _ in range(size):
        rows = [i for i in range(len(parts) + 1) if i == 0 or (i == len(parts) or parts[i] < parts[i - 1])]
        i = rng.choice(rows)
        if i == len(parts):
            parts.append(1)
        else:
            parts[i] += 1
    return parts


def _subpartition(rng: random.Random, outer: list[int]) -> list[int]:
    """A random partition inside outer: each row capped by outer and the row below."""
    inner: list[int] = []
    cap = outer[0] if outer else 0
    for part in outer:
        cap = rng.randint(0, min(cap, part))
        if rng.random() < 0.4:
            cap = 0
        inner.append(cap)
    while inner and inner[-1] == 0:
        inner.pop()
    return inner


def _shape_text(outer: list[int], inner: list[int]) -> str:
    text = ",".join(map(str, outer))
    inner = [x for x in inner if x]
    return f"{text}/{','.join(map(str, inner))}" if inner else text


def _skew_shape(rng: random.Random, size: int) -> tuple[list[int], list[int]]:
    outer = _partition(rng, size)
    return outer, _subpartition(rng, outer)


def _add_horizontal_strip(rng: random.Random, lam: list[int], cells: int) -> list[int]:
    """lam plus a random horizontal strip: no row grows past the row below's old length."""
    out = list(lam)
    below = lam + [0] * (cells + 1)
    for _ in range(cells):
        rows = [i for i in range(len(out) + 1) if i == 0 or (out[i] if i < len(out) else 0) < below[i - 1]]
        i = rng.choice(rows)
        if i == len(out):
            out.append(1)
        else:
            out[i] += 1
    return out


def _remove_vertical_strip(rng: random.Random, mu: list[int], cells: int) -> list[int]:
    """mu minus a random vertical strip of at most `cells` cells, one per row."""
    out = list(mu)
    for _ in range(cells):
        rows = [
            i for i in range(len(out))
            if out[i] == mu[i] and out[i] > 0 and (i + 1 >= len(out) or out[i] - 1 >= out[i + 1])
        ]
        if not rows:
            break
        out[rng.choice(rows)] -= 1
    return out


def _ssyt(rng: random.Random, outer: list[int], inner: list[int], max_entry: int) -> list[list[int]]:
    """A random semistandard filling of outer/inner with entries <= max_entry,
    which must be at least the number of rows (row r filled with r always fits)."""
    inner = inner + [0] * (len(outer) - len(inner))
    for _ in range(50):
        rows: list[list[int]] = []
        ok = True
        for r, (hi, lo) in enumerate(zip(outer, inner)):
            row: list[int] = []
            for c in range(lo, hi):
                least = row[-1] if row else 1
                if r > 0 and inner[r - 1] <= c < outer[r - 1]:
                    least = max(least, rows[r - 1][c - inner[r - 1]] + 1)
                if least > max_entry:
                    ok = False
                    break
                row.append(rng.randint(least, min(max_entry, least + 1)))
            if not ok:
                break
            rows.append(row)
        if ok:
            return rows
    return [[r + 1] * (hi - lo) for r, (hi, lo) in enumerate(zip(outer, inner))]


def _fresh(rng: random.Random, kind: str, sizes: tuple[int, int]) -> list[str]:
    fmt = ["--format", "json"] if rng.random() < 0.5 else []
    if kind == "expand":
        outer, inner = _skew_shape(rng, sizes[0])
        argv = ["expand", _shape_text(outer, inner), "--h", str(sizes[1])]
        if rng.random() < 0.5:
            argv.append("--dual")
        return argv + fmt
    if kind.startswith("product"):
        a = _shape_text(*_skew_shape(rng, sizes[0]))
        b = _shape_text(*_skew_shape(rng, sizes[1]))
        rule = "schur" if kind == "product-schur" else "skew-lr"
        return ["product", a, b, "--rule", rule] + fmt
    lam, mu = _skew_shape(rng, sizes[0])
    n = sizes[1]
    k = rng.randint(0, n)
    lam_plus = _add_horizontal_strip(rng, lam, n - k)
    mu_minus = _remove_vertical_strip(rng, mu, k)
    # Entries up to SLIDE_ENTRY, or up to the row count where a column is
    # longer than that (the gate's sweep has no context of such a shape).
    rows = _ssyt(rng, lam_plus, mu_minus, max(SLIDE_ENTRY, len(lam_plus)))
    body = "".join("[" + ",".join(map(str, row)) + "]" for row in rows)
    tableau = f"{_shape_text(lam_plus, mu_minus)}: {body}"
    return ["trace", "slide", _shape_text(lam, mu), tableau, "--op", "phi"] + fmt


def _deck(rng: random.Random, ranges) -> Iterator[tuple[int, ...]]:
    """Every combination of the ranges once per round, each round shuffled."""
    grid = list(itertools.product(*ranges))
    while True:
        rng.shuffle(grid)
        yield from grid


def generate(seed: int, count: int) -> tuple[list[list[str]], list[str]]:
    """count requests for seed, and each request's label.

    The shares are exact rather than drawn: every seed sends the same number
    of repeats, of fresh requests of each kind and (up to the last round of
    a deck) of each size, and close to the same number of repeats of each
    kind, so that seeds differ in the shapes and the order only."""
    rng = random.Random(seed)

    def shuffled_kinds(n: int) -> list[str]:
        kinds = [KINDS[i % len(KINDS)] for i in range(n)]
        rng.shuffle(kinds)
        return kinds

    repeat_at = set(rng.sample(range(1, count), round(count * REPEAT_SHARE)))
    fresh_kinds = shuffled_kinds(count - len(repeat_at))
    repeat_kinds = shuffled_kinds(len(repeat_at))
    decks = {kind: _deck(rng, ranges) for kind, ranges in SIZES.items()}
    sent: dict[str, list[int]] = {kind: [] for kind in KINDS}  # fresh requests by kind
    requests: list[list[str]] = []
    labels: list[str] = []
    for position in range(count):
        if position in repeat_at:
            # An earlier request of the next kind in line; of any kind if
            # none of that kind has been sent yet.
            earlier = sent[repeat_kinds.pop()] or [i for ids in sent.values() for i in ids]
            i = rng.choice(earlier)
            requests.append(list(requests[i]))
            labels.append(labels[i] + ":repeat")
            continue
        kind = fresh_kinds.pop()
        sent[kind].append(position)
        requests.append(_fresh(rng, kind, next(decks[kind])))
        labels.append(kind)
    return requests, labels


_TERM = re.compile(r"^([+-]) (?:(\d+)\*)?s\[(.*)\]$")


def _parse_terms(stdout: str, is_json: bool):
    """The expansion a product/expand request printed, in text or JSON form."""
    if is_json:
        return expansion_from_json(json.loads(stdout))
    lines = stdout.splitlines()
    terms = {}
    for line in lines if lines != ["0"] else []:
        m = _TERM.match(line)
        if not m:
            raise ValueError(f"unparseable term line {line!r}")
        sign, mag, label = m.groups()
        terms[parse_shape(label)] = (-1 if sign == "-" else 1) * int(mag or 1)
    return SkewExpansion(terms)


def cross_check(argv: list[str], code: int, stdout: str) -> str | None:
    """None when the request's answer is right, otherwise what is wrong."""
    if code != 0:
        return f"exit status {code}"
    is_json = "--format" in argv and argv[argv.index("--format") + 1] == "json"
    if argv[0] == "expand":
        shape = parse_shape(argv[1])
        n = int(argv[argv.index("--h") + 1])
        factor = e(n) if "--dual" in argv else h(n)
        want = schur_product(skew_to_schur(shape), factor)
    elif argv[0] == "product":
        want = schur_product(skew_to_schur(parse_shape(argv[1])), skew_to_schur(parse_shape(argv[2])))
    else:
        base = parse_shape(argv[2])
        ctx = SlideContext(base, parse_tableau(argv[3]))
        if is_json:
            result = json.loads(stdout)["result"]
        else:
            result = stdout.splitlines()[-1].removeprefix("result: ")
        image = SlideContext(base, parse_tableau(result))
        return None if phi(image) == ctx else "phi(phi(ctx)) != ctx"
    got = _parse_terms(stdout, is_json)
    if isinstance(got, SkewExpansion):
        got = got.to_schur()
    return None if got == want else "answer differs from schur_product of the factors"
