"""Write ``expected.json``: recorded outputs for the requests whose result
has no second formula in the library to be checked against.

Run from the root of a checkout, once, when the request pools in
``workloads.py`` change:

    PYTHONPATH=src python3 perfbench/record_expected.py

Every value is cross-checked before it is recorded wherever an independent
route exists: the oracle fiber series against the sum of squared fake
degrees (type A up to rank 16), the oracle base series against the fiber numerator over the BG
denominator, the BG series against the free-algebra product, the fake-degree
sum against major-index pairs and the oracle, and canonical chain classes
against brute-force orbit splitting.  A mismatch stops the recording.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import workloads
import comlie.cli
from comlie import coinvariants, poincare, repa, toriposet
from comlie.poincare import GroupSpec
from comlie.qseries import QPoly, RationalSeries, product_series


def series_keys() -> list[tuple]:
    keys = set()
    for family, ranks in workloads.BG_RANKS.items():
        for n in ranks:
            keys.add((family, n, "bg", max(2, workloads.top_degree(family, n)),
                      False))
    for family, _ in workloads.STABLE_STRATA:
        for maxdeg in workloads.STABLE_DEGREES:
            keys.add((family, None, "stable", maxdeg, False))
    for _, target, ranks, strata in workloads.SERIES_ORACLE_BANDS:
        for family, what, _ in strata:
            keys.update(workloads.oracle_pool(family, ranks[family], what, target))
    for _, pool, _, _ in workloads.CACHED_STRATA:
        keys.update(pool)
    return sorted((k for k in keys if checks.needs_record(k)),
                  key=lambda k: (k[0], k[1] or 0, k[2], k[3]))


_NUMERATORS: dict = {}


def fiber_numerator(family: str, n: int) -> QPoly:
    """The whole fiber numerator: the squared fake degrees for type A up to
    rank 16, else the top-degree oracle."""
    key = ("A" if family != "Sp" else "C", n)
    if key not in _NUMERATORS:
        if family != "Sp" and n <= 16:
            q = repa.fiber_numerator_series(n)
            _NUMERATORS[key] = QPoly({2 * e: c for e, c in q.items()})
        else:
            group = GroupSpec(family, n)
            top = coinvariants.oracle_ecom(group, group.top_ecom_degree)
            _NUMERATORS[key] = QPoly.from_coeffs(top.coeffs)
    return _NUMERATORS[key]


def record_series(key: tuple) -> list[int]:
    family, n, what, maxdeg, _ = key
    if what == "stable":
        return list(poincare.stable_bcom(family, maxdeg).coeffs)
    group = GroupSpec(family, n)
    if what == "bg":
        coeffs = list(poincare.bg_series(group).expand(maxdeg).coeffs)
        weights: dict[int, int] = {}
        for exp, mult in group.bg_denominator_factors:
            weights[exp] = weights.get(exp, 0) + mult
        other = list(product_series(weights, maxdeg).coeffs)
    elif what == "ecom":
        coeffs = list(coinvariants.oracle_ecom(group, maxdeg).coeffs)
        other = fiber_numerator(family, n).coefficients_through(maxdeg)
    else:
        coeffs = list(coinvariants.oracle_bcom(group, maxdeg).coeffs)
        other = list(RationalSeries(fiber_numerator(family, n),
                                    group.bg_denominator_factors)
                     .expand(maxdeg).coeffs)
    if coeffs != other:
        raise SystemExit(f"cross-check failed for {checks.series_id(key)}")
    return coeffs


def pool_entries(op: str) -> list[tuple]:
    return sorted(key[1:] for key in workloads.COMBINATORICS_COSTS if key[0] == op)


def record_fiber(n: int) -> list[int]:
    q = repa.fiber_numerator_series(n)
    coeffs = [q.coefficient(e) for e in range(q.degree + 1)]
    oracle = coinvariants.oracle_ecom(GroupSpec("U", n), 2 * n * (n - 1))
    if n <= 8 and q != repa.major_index_pair_series(n):
        raise SystemExit(f"fake degrees != major index pairs at n={n}")
    if list(oracle.coeffs[::2]) != coeffs:
        raise SystemExit(f"fake degrees != oracle at n={n}")
    return coeffs


def record_chains(n: int, ivals: tuple) -> int:
    count = len(toriposet.chain_classes(n, ivals))
    if count != toriposet.chain_class_count_bruteforce(n, ivals):
        raise SystemExit(f"chain classes != brute force at {n} {ivals}")
    return count


def main() -> int:
    def poset_output(n: int, fmt: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            comlie.cli.main(["poset", "--rank", str(n), "--format", fmt])
        return out.getvalue()

    expected = {
        "series": {checks.series_id(k): checks.digest(record_series(k))
                   for k in series_keys()},
        "poset": {f"{n}/{fmt}": checks.digest(poset_output(n, fmt))
                  for (n,) in pool_entries("poset") for fmt in workloads.FORMATS},
        "fiber": {str(n): checks.digest(record_fiber(n))
                  for (n,) in pool_entries("fiber")},
        "chains": {f"{n}/{','.join(map(str, iv))}": record_chains(n, iv)
                   for n, iv in pool_entries("chains") + pool_entries("bruteforce")},
    }
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    checks.EXPECTED_PATH.write_text(text)
    print(f"wrote {checks.EXPECTED_PATH} "
          f"({sum(len(v) for v in expected.values())} values)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
