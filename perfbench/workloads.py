"""Seeded, stratified request lists for the comlie benchmark workloads.

A request is a JSON-able dict with an ``id``, a ``stratum`` label
(request kind / path / family / rank band) and one of

* ``"cli": argv`` -- an in-process call of ``comlie.cli.main(argv)``;
* ``"proc": argv`` -- one ``python -m comlie`` subprocess per request
  (``{cache_dir}`` in an argument is replaced by the run's cache directory);
* ``"call": name, "args": [...]`` -- a call of a library function;

plus ``"expect"``: the exit code the README documents (0 or 3), or the name
of the exception a library call must raise.

The generator imports nothing from comlie, so a change to the program never
changes the inputs.  Every stratum has a fixed request count.  A seed draws
``CANDIDATES`` stratified lists and keeps the one whose modelled total cost,
median and 90th-percentile request cost lie closest to the medians over all
candidates, preferring totals within ``COST_TOLERANCE``, so two seeds give
lists of the same size and mix whose modelled cost and latency percentiles
agree to a few percent.
"""

from __future__ import annotations

import random
import statistics
from functools import lru_cache
from math import factorial

WORKLOADS = ("series_stream", "cli_cached", "verify_linalg", "combinatorics")

#: Largest enumerable ranks documented in the README (sym, signed).
SYM_CAP = 9
SIGNED_CAP = 5
CANDIDATES = 96
COST_TOLERANCE = 0.02
FORMATS = ("json", "csv", "text")

# Cost model of one series request, in seconds on a 2-core Xeon with
# CPython 3.11, fitted to measured class-sum and enumeration timings.  It
# only has to rank and balance requests, not predict wall time.
CLI_S = 1.0e-3
PROCESS_S = 0.15
ORACLE_PAIR_S = 74e-9
ORACLE_UPDATE_S = 115e-9
ORACLE_BCOM_UPDATE_S = 134e-9
SYM_ENUM_S = 0.25e-6
SIGNED_ENUM_S = 0.7e-6
EXPAND_S = 0.2e-6


def _partition_counts(limit: int) -> list[int]:
    counts = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            counts[total] += counts[total - part]
    return counts


_P = _partition_counts(32)


def partition_count(n: int) -> int:
    return _P[n]


def kind_of(family: str) -> str:
    return "signed" if family == "Sp" else "sym"


def top_degree(family: str, n: int) -> int:
    """Top t-degree of the fiber-space numerator of the group."""
    return 4 * n * n if family == "Sp" else 2 * n * (n - 1)


def class_count(family: str, n: int) -> int:
    """Conjugacy classes of the Weyl group: partitions, or bipartitions."""
    if family == "Sp":
        return sum(_P[k] * _P[n - k] for k in range(n + 1))
    return _P[n]


def enumeration_cost(family: str, n: int) -> float:
    if family == "Sp":
        return SIGNED_ENUM_S * 2**n * factorial(n) * n
    return SYM_ENUM_S * factorial(n) * n


def oracle_cost(family: str, n: int, what: str, maxdeg: int) -> float:
    s = maxdeg // 2
    classes = class_count(family, n)
    if what == "ecom":
        return classes * (
            ORACLE_PAIR_S * (s + 1) * (s + 2) / 2 + ORACLE_UPDATE_S * n * (s + 1)
        )
    return classes * ORACLE_BCOM_UPDATE_S * n * (s + 1)


def stable_cost(maxdeg: int) -> float:
    half = maxdeg // 2
    return EXPAND_S * half * half / 2 * maxdeg


def over_cap(family: str, n: int) -> bool:
    return n > (SIGNED_CAP if family == "Sp" else SYM_CAP)


def series_argv(family, n, what, maxdeg, oracle, fmt) -> list[str]:
    argv = ["series", "--group", family.lower()]
    if what != "stable":
        argv += ["--rank", str(n)]
    argv += ["--what", what, "--maxdeg", str(maxdeg), "--format", fmt]
    return argv + (["--oracle"] if oracle else [])


def flags(argv: list[str]) -> dict[str, str | bool]:
    """``--name value`` pairs of an argv list; bare flags map to True."""
    out: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        name = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[name] = argv[i + 1]
            i += 2
        else:
            out[name] = True
            i += 1
    return out


def series_key(argv: list[str]) -> tuple:
    """(family, rank, quantity, maxdeg, oracle) of a series argv."""
    f = flags(argv)
    family = {"u": "U", "su": "SU", "sp": "Sp"}[f["group"]]
    rank = int(f["rank"]) if "rank" in f else None
    return family, rank, f["what"], int(f["maxdeg"]), bool(f.get("oracle"))


def series_cost(key: tuple, enumerated: set) -> float:
    """Modelled cost of a series request; ``enumerated`` holds the Weyl
    kinds and ranks already enumerated in this session (memoised)."""
    family, n, what, maxdeg, oracle = key
    if what == "stable":
        return CLI_S + stable_cost(maxdeg)
    if what == "bg":
        return CLI_S + EXPAND_S * n * maxdeg
    if oracle:
        return CLI_S + oracle_cost(family, n, what, maxdeg)
    if over_cap(family, n):
        return CLI_S
    cost = CLI_S + EXPAND_S * n * maxdeg
    if (kind_of(family), n) not in enumerated:
        enumerated.add((kind_of(family), n))
        cost += enumeration_cost(family, n)
    return cost


def equal_cost_degree(family: str, n: int, what: str, target: float) -> int:
    """Largest even truncation <= the top degree whose oracle cost stays
    within ``target``."""
    best = 2
    for maxdeg in range(2, top_degree(family, n) + 1, 2):
        if oracle_cost(family, n, what, maxdeg) > target:
            break
        best = maxdeg
    return best


def _draw(rng: random.Random, strata: list) -> list[tuple[str, object]]:
    """(label, entry) draws, ``count`` with replacement from each
    ``(label, pool, count)`` stratum."""
    return [(label, rng.choice(pool)) for label, pool, k in strata
            for _ in range(k)]


class _RequestList:
    """Accumulates requests; formats cycle so every stratum gets the same
    share of json, csv and text rendering."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def fmt(self) -> str:
        return FORMATS[len(self.items) % len(FORMATS)]

    def cli(self, stratum: str, argv: list[str], expect: int = 0) -> None:
        self.items.append({"stratum": stratum, "cli": argv, "expect": expect})

    def proc(self, stratum: str, argv: list[str]) -> None:
        self.items.append({"stratum": stratum, "proc": argv, "expect": 0})

    def call(self, stratum: str, name: str, args: list, expect=0) -> None:
        self.items.append(
            {"stratum": stratum, "call": name, "args": args, "expect": expect}
        )

    def series(self, stratum, family, n, what, maxdeg, oracle) -> None:
        refused = not oracle and what in ("ecom", "bcom") and over_cap(family, n)
        self.cli(stratum, series_argv(family, n, what, maxdeg, oracle,
                                      self.fmt()), 3 if refused else 0)


def _fraction_degree(rng: random.Random, family: str, n: int) -> int:
    """A quarter, half, three quarters or all of the top degree (even)."""
    return max(2, top_degree(family, n) * rng.choice((1, 2, 3, 4)) // 8 * 2)


@lru_cache(maxsize=None)
def oracle_pool(family: str, ranks: range, what: str,
                target: float | None) -> tuple[tuple, ...]:
    """Oracle keys at the top degree when ``target`` is None, else at the
    equal-cost degree, keeping only ranks whose top degree reaches it."""
    pool = []
    for n in ranks:
        top = top_degree(family, n)
        if target is None:
            pool.append((family, n, what, top, True))
        elif oracle_cost(family, n, what, top) >= target:
            pool.append((family, n, what,
                         equal_cost_degree(family, n, what, target), True))
    return tuple(pool)


SERIES_ORACLE_BANDS = (
    # band, equal-cost target (None: top degree), family -> ranks,
    # (family, quantity, count) strata
    ("top/low", None, {"U": range(6, 10), "SU": range(6, 10), "Sp": range(4, 7)},
     (("U", "ecom", 2), ("U", "bcom", 2), ("SU", "ecom", 2), ("SU", "bcom", 2),
      ("Sp", "ecom", 2), ("Sp", "bcom", 2))),
    ("top/high", None,
     {"U": range(10, 13), "SU": range(10, 13), "Sp": range(7, 9)},
     (("U", "ecom", 2), ("U", "bcom", 1), ("SU", "ecom", 1), ("SU", "bcom", 2),
      ("Sp", "ecom", 1), ("Sp", "bcom", 1))),
    ("eq/mid", 0.08, {"U": range(13, 23), "SU": range(13, 23), "Sp": range(8, 12)},
     (("U", "ecom", 4), ("U", "bcom", 2), ("SU", "ecom", 4), ("SU", "bcom", 2),
      ("Sp", "ecom", 2), ("Sp", "bcom", 2))),
    ("eq/heavy", 0.3, {"U": range(17, 23), "SU": range(17, 23), "Sp": range(10, 12)},
     (("U", "ecom", 1), ("U", "bcom", 1), ("SU", "ecom", 1), ("Sp", "ecom", 1))),
)
BG_RANKS = {"U": range(1, 23), "SU": range(2, 23), "Sp": range(1, 12)}
STABLE_STRATA = (("U", 3), ("SU", 3), ("Sp", 2))
STABLE_DEGREES = range(40, 161, 8)
OVER_CAP_STRATA = (("U", "ecom"), ("U", "bcom"), ("SU", "ecom"), ("Sp", "bcom"))


def _closed_pattern(n: int, signed: bool) -> list[tuple[str, str]]:
    """Three closed-form requests per rank, in a fixed family/quantity mix."""
    if signed:
        return [("Sp", "ecom"), ("Sp", "bcom"), ("Sp", "ecom" if n % 2 == 0 else "bcom")]
    return [("U", "ecom"), ("SU", "bcom"),
            ("U", "bcom") if n % 2 == 0 else ("SU", "ecom")]


def _series_stream(rng: random.Random) -> list[dict]:
    """Warm library session answering series questions.  Every pass
    enumerates each Weyl group up to the cap (memoised afterwards), so
    first-touch cost is the same for every seed; oracle ranks above the
    top-degree bands use equal-cost truncations."""
    b = _RequestList()
    for signed, cap in ((False, SYM_CAP), (True, SIGNED_CAP)):
        for n in range(1, cap + 1):
            for family, what in _closed_pattern(n, signed):
                b.series(f"closed/{family}/{what}", family, n, what,
                         _fraction_degree(rng, family, n), False)
    for band, target, ranks, strata in SERIES_ORACLE_BANDS:
        draws = _draw(rng, [(f"oracle/{band}/{family}/{what}",
                             oracle_pool(family, ranks[family], what, target), k)
                            for family, what, k in strata])
        for label, key in draws:
            b.series(label, *key)
    for family in ("U", "SU", "Sp"):
        for _ in range(4):
            n = rng.choice(BG_RANKS[family])
            b.series(f"bg/{family}", family, n, "bg",
                     max(2, top_degree(family, n)), False)
    stable = [(f"stable/{family}", [(family, d) for d in STABLE_DEGREES], k)
              for family, k in STABLE_STRATA]
    for label, (family, maxdeg) in _draw(rng, stable):
        b.series(label, family, None, "stable", maxdeg, False)
    for family, what in OVER_CAP_STRATA:
        n = rng.randint((SIGNED_CAP if family == "Sp" else SYM_CAP) + 1,
                        11 if family == "Sp" else 22)
        b.series(f"closed/over_cap/{family}/{what}", family, n, what,
                 _fraction_degree(rng, family, n), False)
    return b.items


def _cached_strata():
    """(label, key pool, hot keys, repeats) of the cached CLI stream: keys
    cheap enough that interpreter start-up dominates a hit."""
    out = []
    for family in ("U", "SU"):
        for what in ("ecom", "bcom"):
            out.append((f"closed/{family}/{what}",
                        [(family, n, what, d, False) for n in range(2, 8)
                         for d in (12, 24, 40)], 2, 5))
    for what in ("ecom", "bcom"):
        out.append((f"closed/Sp/{what}", [("Sp", n, what, d, False)
                                          for n in range(1, 5)
                                          for d in (16, 32, 64)], 2, 4))
    for family, ranks in (("U", range(8, 13)), ("SU", range(8, 13)),
                          ("Sp", range(4, 8))):
        for what in ("ecom", "bcom"):
            out.append((f"oracle/{family}/{what}",
                        [(family, n, what, d, True) for n in ranks
                         for d in (40, 80)], 2, 1))
    for family in ("U", "SU", "Sp"):
        out.append((f"bg/{family}", [(family, n, "bg", 60, False)
                                     for n in range(2, 12)], 1, 1))
        out.append((f"stable/{family}", [(family, None, "stable", d, False)
                                         for d in (40, 60, 80)], 1, 1))
    return tuple(out)


CACHED_STRATA = _cached_strata()


def _cli_cached(rng: random.Random) -> list[dict]:
    """One cold ``comlie series`` process per request against a cache
    directory that starts empty: the first touch of a hot key computes and
    writes, repeats read.  Repeats favour a stratum's first hot key."""
    b = _RequestList()
    for label, pool, keys, repeats in CACHED_STRATA:
        hot = rng.sample(pool, keys)
        weights = [1.0 / (i + 1) for i in range(keys)]
        for family, n, what, maxdeg, oracle in hot + rng.choices(
                hot, weights=weights, k=repeats):
            argv = series_argv(family, n, what, maxdeg, oracle, b.fmt())
            b.proc(f"cached/{label}", argv + ["--cache-dir", "{cache_dir}"])
    return b.items


def verify_argv(suite: str, family: str, n: int, poly_degree: int) -> list[str]:
    return ["verify", "--suite", suite, "--group", family.lower(), "--rank",
            str(n), "--maxdeg", str(2 * poly_degree)]


def _by_band(costs: dict, bands: dict) -> dict:
    """Band -> [(request, seconds)], each request in the first band whose
    upper bound exceeds its cost."""
    pools: dict = {band: [] for band in bands}
    for key, cost in costs.items():
        pools[next(b for b, top in bands.items() if cost < top)].append((key, cost))
    return pools


# Request -> seconds; request = ("basis"|"generation", kind, rank, poly
# degree) or ("quotient", family, rank, ideal, poly degree).  Seconds are
# medians over fresh passes on a 2-core Xeon with CPython 3.11.
LINALG_COSTS = {
    ("basis", "sym", 1, 6): .0033,
    ("basis", "sym", 2, 4): .0072,
    ("basis", "sym", 2, 6): .0337,
    ("basis", "sym", 3, 2): .0035,
    ("basis", "sym", 3, 4): .0164,
    ("basis", "sym", 4, 2): .015,
    ("basis", "sym", 4, 4): .0431,
    ("basis", "signed", 1, 8): .0037,
    ("basis", "signed", 2, 4): .0049,
    ("basis", "signed", 2, 6): .0101,
    ("basis", "signed", 2, 8): .0278,
    ("basis", "signed", 3, 2): .0469,
    ("basis", "signed", 3, 4): .0525,
    ("basis", "signed", 3, 6): .0644,
    ("generation", "sym", 1, 6): .0032,
    ("generation", "sym", 2, 4): .0109,
    ("generation", "sym", 2, 6): .0832,
    ("generation", "sym", 3, 4): .0267,
    ("generation", "sym", 4, 2): .003,
    ("generation", "sym", 4, 4): .0448,
    ("generation", "signed", 1, 6): .0048,
    ("generation", "signed", 2, 6): .0149,
    ("generation", "signed", 3, 4): .0039,
    ("quotient", "U", 2, "ecom", 4): .0109,
    ("quotient", "U", 2, "ecom", 6): .096,
    ("quotient", "U", 2, "bcom", 4): .0045,
    ("quotient", "U", 2, "bcom", 6): .0349,
    ("quotient", "U", 3, "ecom", 4): .0257,
    ("quotient", "U", 3, "bcom", 4): .0108,
    ("quotient", "Sp", 2, "ecom", 4): .001,
    ("quotient", "Sp", 2, "ecom", 8): .0415,
    ("quotient", "Sp", 2, "bcom", 8): .0174,
    ("basis", "sym", 2, 8): .1395,
    ("basis", "sym", 3, 6): .1724,
    ("quotient", "U", 2, "bcom", 8): .1825,
    ("quotient", "U", 3, "bcom", 6): .1707,
    ("generation", "sym", 3, 6): .522,
    ("generation", "sym", 2, 8): .532,
    ("quotient", "U", 2, "ecom", 8): .473,
    ("quotient", "U", 3, "ecom", 6): .494,
    ("quotient", "Sp", 2, "ecom", 12): .554,
}
# Bands by cost, upper bounds in seconds.  The 90th percentile falls inside
# "medium", requests that cost about the same, so it holds across seeds.
LINALG_BANDS = {"small": .1, "medium": .2, "large": 1.0}
LINALG_POOLS = _by_band(LINALG_COSTS, LINALG_BANDS)
# band -> {request kind/kind or family: count}
LINALG_COUNTS = {
    "small": {"basis/sym": 16, "basis/signed": 10, "generation/sym": 16,
              "generation/signed": 10, "quotient/U": 18, "quotient/Sp": 10},
    "medium": {"basis/sym": 8, "quotient/U": 8},
    "large": {"generation/sym": 1, "quotient/U": 1, "quotient/Sp": 1},
}
# Library calls past the documented feasibility caps: GroupSizeError.
LINALG_OVER_CAP = [("U", 5, "bcom", 4), ("U", 3, "ecom", 14), ("Sp", 4, "ecom", 4),
                   ("U", 2, "bcom", 16), ("Sp", 2, "bcom", 14)]


def _banded_strata(pools: dict, counts: dict, band: str, label) -> list:
    """(label, pool, count) strata of one band; ``label`` names the stratum
    of a request within its band."""
    return [(f"{kind}/{band}", [p for p in pools[band] if label(p[0]) == kind], k)
            for kind, k in counts[band].items()]


def _verify_linalg(rng: random.Random) -> list[dict]:
    """Graded exact linear algebra: free-basis and generation checks through
    the CLI, ideal quotients through the library.  Symmetric-group verify
    requests alternate between the groups U and SU."""
    b = _RequestList()
    turn = 0
    for band in LINALG_COUNTS:
        for label, ((op, fam, n, *rest), _) in _draw(
                rng, _banded_strata(LINALG_POOLS, LINALG_COUNTS, band,
                                    lambda e: f"{e[0]}/{e[1]}")):
            if op == "quotient":
                b.call(label, "multisym.quotient_graded_dims", [fam, n, *rest])
                continue
            family = "Sp" if fam == "signed" else ("U", "SU")[turn % 2]
            turn += fam == "sym"
            b.cli(label, verify_argv(op, family, n, rest[0]))
    for fam, n, ideal, degree in rng.sample(LINALG_OVER_CAP, 4):
        b.call("quotient/over_cap", "multisym.quotient_graded_dims",
               [fam, n, ideal, degree], "GroupSizeError")
    return b.items


IVALS = ((0, 1), (1, 2), (0, 2), (1, 3), (0, 1, 2))

# Request -> seconds, medians over fresh passes as in LINALG_COSTS; unlisted
# chain cases take well under a millisecond.
COMBINATORICS_COSTS = {
    **{("fakedeg", n): c for n, c in zip(range(2, 9), (
        .0016, .0022, .0027, .0047, .0134, .061, .4272))},
    **{("poset", n): c for n, c in zip(range(2, 14), (
        .0017, .0016, .0019, .0023, .0031, .0045, .0076, .0136, .0235, .046,
        .0798, .1376))},
    ("poset", 16): .6705,
    **{("fiber", n): c for n, c in zip(range(2, 13), (
        .0001, .0002, .0005, .0011, .0024, .0053, .0116, .0219, .046, .0869,
        .1634))},
    ("fiber", 14): .5079,
    **{("chains", n, iv): .0005 for n in range(3, 8) for iv in IVALS
       if max(iv) < n and not (n == 7 and iv in ((1, 3), (0, 1, 2)))},
    ("chains", 4, (0, 1, 2)): .0009, ("chains", 6, (0, 2)): .0014,
    ("chains", 7, (0, 1)): .0011, ("chains", 5, (1, 2)): .0018,
    ("chains", 5, (0, 1, 2)): .0023, ("chains", 5, (1, 3)): .0027,
    ("chains", 6, (1, 2)): .0066, ("chains", 6, (0, 1, 2)): .0075,
    ("chains", 6, (1, 3)): .0134, ("chains", 7, (0, 2)): .0051,
    ("chains", 7, (1, 2)): .021, ("chains", 8, (1, 2)): .0692,
    ("chains", 8, (0, 1, 2)): .0784, ("chains", 8, (1, 3)): .2945,
    **{("bruteforce", n, iv): .0005 for n in (3, 4) for iv in IVALS
       if max(iv) < n},
    ("bruteforce", 5, (0, 1)): .0019, ("bruteforce", 5, (0, 2)): .0023,
    ("bruteforce", 5, (1, 2)): .0056, ("bruteforce", 5, (1, 3)): .0053,
    ("bruteforce", 5, (0, 1, 2)): .007, ("bruteforce", 6, (1, 2)): .0408,
    ("bruteforce", 6, (1, 3)): .0611, ("bruteforce", 7, (0, 1)): .1154,
    ("bruteforce", 7, (0, 2)): .1718, ("bruteforce", 7, (1, 3)): .5866,
}
# Bands by cost, upper bounds in seconds.  The median request falls in the
# middle of "small" and the 90th percentile inside "medium", bands of
# requests that cost about the same, so both percentiles hold across seeds.
COMBINATORICS_BANDS = {"tiny": .0013, "small": .0035, "mid": .095,
                       "medium": .2, "large": 1.0}


COMBINATORICS_POOLS = _by_band(COMBINATORICS_COSTS, COMBINATORICS_BANDS)
COMBINATORICS_COUNTS = {
    "tiny": {"fiber": 6, "chains": 14, "bruteforce": 14},
    "small": {"fakedeg": 8, "poset": 12, "fiber": 2, "chains": 6, "bruteforce": 4},
    "mid": {"fakedeg": 2, "poset": 3, "fiber": 3, "chains": 3, "bruteforce": 3},
    "medium": {"poset": 4, "fiber": 4, "bruteforce": 8},
    "large": {"fakedeg": 1, "poset": 1, "fiber": 1, "chains": 1, "bruteforce": 1},
}


def _combinatorics(rng: random.Random) -> list[dict]:
    """Fake degrees, the torus poset and refinement-chain classes: QPoly
    products and exact division, partitions and Weyl element objects."""
    b = _RequestList()
    turn = 0
    for band in COMBINATORICS_COUNTS:
        strata = _banded_strata(COMBINATORICS_POOLS, COMBINATORICS_COUNTS, band,
                                lambda e: e[0])
        for label, ((op, n, *rest), _) in _draw(rng, strata):
            if op == "fakedeg":
                b.cli(label, ["verify", "--suite", "fakedeg", "--group",
                              ("u", "su")[turn % 2], "--rank", str(n)])
                turn += 1
            elif op == "poset":
                b.cli(label, ["poset", "--rank", str(n), "--format", b.fmt()])
            elif op == "fiber":
                b.call(label, "repa.fiber_numerator_series", [n])
            elif op == "chains":
                b.call(label, "toriposet.chain_classes", [n, list(rest[0])])
            else:
                b.call(label, "toriposet.chain_class_count_bruteforce",
                       [n, list(rest[0])])
    return b.items


_GENERATORS = {
    "series_stream": _series_stream,
    "cli_cached": _cli_cached,
    "verify_linalg": _verify_linalg,
    "combinatorics": _combinatorics,
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _summary(workload: str, items: list[dict]) -> tuple[float, float, float]:
    costs = request_costs(workload, items)
    return sum(costs), percentile(costs, 0.5), percentile(costs, 0.9)


def requests(workload: str, seed: int, pass_index: int = 0) -> list[dict]:
    """The closed-loop request list of one pass; pass k of seed s is the
    same list on every run."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    candidates = []
    for _ in range(CANDIDATES):
        items = _GENERATORS[workload](rng)
        rng.shuffle(items)
        candidates.append((items, _summary(workload, items)))
    centre = [statistics.median(c[1][i] for c in candidates) for i in range(3)]

    def distance(candidate):
        off = [abs(value / middle - 1) for value, middle in zip(candidate[1], centre)]
        return off[0] > COST_TOLERANCE, max(off)

    items, _ = min(candidates, key=distance)
    return [{"id": i, **item} for i, item in enumerate(items)]


def strata_counts(items: list[dict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items:
        out[item["stratum"]] = out.get(item["stratum"], 0) + 1
    return dict(sorted(out.items()))


def _entry(item: dict) -> tuple:
    """The pool entry a verify_linalg or combinatorics request came from."""
    if "call" in item:
        name, args = item["call"], item["args"]
        if name == "multisym.quotient_graded_dims":
            return ("quotient", *args)
        op = {"repa.fiber_numerator_series": "fiber",
              "toriposet.chain_classes": "chains",
              "toriposet.chain_class_count_bruteforce": "bruteforce"}[name]
        return (op, args[0], *map(tuple, args[1:]))
    f = flags(item["cli"])
    if item["cli"][0] == "poset":
        return ("poset", int(f["rank"]))
    if f["suite"] == "fakedeg":
        return ("fakedeg", int(f["rank"]))
    kind = "signed" if f["group"] == "sp" else "sym"
    return (f["suite"], kind, int(f["rank"]), int(f["maxdeg"]) // 2)


def request_costs(workload: str, items: list[dict]) -> list[float]:
    """Modelled seconds of each request in order, memoisation and cache hits
    included."""
    out = []
    enumerated: set = set()
    cached: set = set()
    for item in items:
        if "proc" in item:
            key = series_key(item["proc"])
            cost = PROCESS_S
            if key not in cached:
                cached.add(key)
                cost += series_cost(key, set())
        elif workload == "series_stream":
            cost = series_cost(series_key(item["cli"]), enumerated)
        elif item["expect"] != 0:
            cost = CLI_S
        else:
            costs = LINALG_COSTS if workload == "verify_linalg" else COMBINATORICS_COSTS
            cost = costs[_entry(item)]
        out.append(cost)
    return out


def cost_proxy(workload: str, items: list[dict]) -> float:
    """Modelled seconds of a request list."""
    return sum(request_costs(workload, items))
