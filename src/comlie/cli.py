"""Command-line front end: compute series, run verification suites, emit
poset and catalog tables, and cache series results as JSON.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap
exceeded (retry with --oracle).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from . import coinvariants, poincare, repa, toriposet
from .poincare import GroupSpec, canonical_family
from .qseries import QPoly, TruncatedSeries
from .reports import CheckReport
from .weylcomb import GroupSizeError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

CACHE_ENV_VAR = "COMLIE_CACHE_DIR"

QUANTITIES = ("ecom", "bcom", "bg", "stable")

#: Schema of the JSON emitted by the series command (and of cache files).
SERIES_SCHEMA = {
    "type": "object",
    "required": ["family", "n", "quantity", "series"],
    "properties": {
        "family": {"enum": ["U", "SU", "Sp"]},
        "n": {"type": ["integer", "null"]},
        "quantity": {"enum": list(QUANTITIES)},
        "series": {
            "type": "object",
            "required": ["var", "trunc", "coeffs"],
            "properties": {
                "var": {"const": "t"},
                "trunc": {"type": "integer", "minimum": 0},
                "coeffs": {"type": "array", "items": {"type": "integer"}},
            },
        },
    },
}


def _dumps(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _group_spec(group: str, rank: int | None) -> GroupSpec:
    """The group named by --group/--rank; ValueError carries the usage error."""
    family = canonical_family(group)
    if rank is None:
        raise ValueError("--rank is required with --group")
    if rank < 1:
        raise ValueError("--rank must be >= 1")
    return GroupSpec(family, rank)


def _compute_series(
    what: str, family: str, group: GroupSpec | None, trunc: int, oracle: bool
) -> TruncatedSeries:
    if what == "stable":
        return poincare.stable_bcom(family, trunc)
    if what == "bg":
        return poincare.bg_series(group).expand(trunc)
    if what == "ecom":
        if oracle:
            return coinvariants.oracle_ecom(group, trunc)
        return poincare.ecom_numerator(group).truncated(trunc)
    if oracle:
        return coinvariants.oracle_bcom(group, trunc)
    return poincare.bcom_series(group).expand(trunc)


def _render_series(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _dumps(payload)
    series = payload["series"]
    header = (
        f"# family={payload['family']} n={payload['n']} "
        f"quantity={payload['quantity']} trunc={series['trunc']}"
    )
    if fmt == "csv":
        lines = ["degree,coefficient"]
        lines += [f"{d},{c}" for d, c in enumerate(series["coeffs"])]
        return "\n".join(lines)
    poly = QPoly.from_coeffs(series["coeffs"])
    return f"{header}\n{poly.to_str('t')}"


def _read_cache(path: Path, header: dict, trunc: int) -> dict | None:
    """The cached payload, or None when the file is missing, unreadable, not
    in canonical form or not the series of ``header`` through ``trunc``;
    such a file is recomputed and overwritten."""
    try:
        text = path.read_text()
        series = TruncatedSeries.from_json(json.loads(text)["series"])
    except (OSError, ValueError, LookupError, TypeError):
        return None
    payload = {**header, "series": series.to_json("t")}
    return payload if series.trunc == trunc and _dumps(payload) == text else None


def _write_cache(path: Path, text: str) -> None:
    """Write through a temporary file renamed over ``path``, so readers and
    concurrent writers never see a partial file.  A cache that cannot be
    written only costs a warning: the result is printed anyway."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"warning: cache not written: {exc}", file=sys.stderr)


def cmd_series(args: argparse.Namespace) -> int:
    try:
        family = canonical_family(args.group)
        group = None if args.what == "stable" else _group_spec(args.group, args.rank)
    except ValueError as exc:
        return _fail_usage(str(exc))
    if args.maxdeg < 0:
        return _fail_usage("--maxdeg must be >= 0")
    rank = group.n if group is not None else None

    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    cache_path = None
    if cache_dir:
        tag = "oracle" if args.oracle else "closed"
        name = (
            f"{family}_{rank if rank is not None else 'stable'}_{args.what}"
            f"_D{args.maxdeg}_{tag}_v{__version__}.json"
        )
        cache_path = Path(cache_dir) / name

    header = {"family": family, "n": rank, "quantity": args.what}
    payload = (_read_cache(cache_path, header, args.maxdeg)
               if cache_path is not None else None)
    if payload is None:
        try:
            series = _compute_series(
                args.what, family, group, args.maxdeg, args.oracle
            )
        except GroupSizeError as exc:
            print(
                f"error: {exc}; rerun with --oracle to use the "
                "conjugacy-class formula",
                file=sys.stderr,
            )
            return EXIT_CAP
        payload = {**header, "series": series.to_json("t")}
        if cache_path is not None:
            _write_cache(cache_path, _dumps(payload))

    print(_render_series(payload, args.format))
    return EXIT_OK


def _series_equal_report(
    name: str, lhs: TruncatedSeries, rhs: TruncatedSeries
) -> CheckReport:
    mismatch = lhs.first_mismatch(rhs)
    return CheckReport(name=name, passed=mismatch is None,
                       first_mismatch=mismatch)


def _oracle_suite(group: GroupSpec, maxdeg: int | None) -> list[CheckReport]:
    trunc = maxdeg if maxdeg is not None else 40
    return [
        _series_equal_report(f"oracle fiber series {group.label}",
                             poincare.ecom_numerator(group).truncated(trunc),
                             coinvariants.oracle_ecom(group, trunc)),
        _series_equal_report(f"oracle base series {group.label}",
                             poincare.bcom_series(group).expand(trunc),
                             coinvariants.oracle_bcom(group, trunc)),
    ]


def _product_suite(group: GroupSpec, maxdeg: int | None) -> list[CheckReport]:
    trunc = maxdeg if maxdeg is not None else 40
    return [poincare.verify_product_relation(group, trunc)]


def _basis_suite(group: GroupSpec, maxdeg: int | None) -> list[CheckReport]:
    # imported here, so commands that skip the basis and generation suites
    # do not load the linear-algebra module at start-up
    from . import multisym

    if maxdeg is None:
        poly_deg = min(group.top_ecom_degree // 2, multisym.MAX_QUOTIENT_DEGREE)
    else:
        poly_deg = maxdeg // 2
    basis = multisym.verify_free_basis(group.weyl_kind, group.n, poly_deg)
    degrees = tuple(2 * d for d in basis.degrees)
    detail = (f"{basis.basis_size} elements, degrees {degrees}"
              if basis.passed else basis.detail)
    return [CheckReport(name=f"descent basis {group.label}",
                        passed=basis.passed, detail=detail)]


def _generation_suite(group: GroupSpec, maxdeg: int | None) -> list[CheckReport]:
    from . import multisym

    poly_deg = maxdeg // 2 if maxdeg is not None else 6
    return [multisym.verify_power_sum_generation(group.weyl_kind, group.n, poly_deg)]


def _fakedeg_suite(group: GroupSpec, maxdeg: int | None) -> list[CheckReport]:
    return [repa.verify_fake_degree_identities(group.n)]


#: Ranks the stable suite checks, its default degree, and the last degree
#: where those ranks agree with the stable series: 2n + 1 for U(n) and
#: SU(n), 4n + 3 for Sp(n), n the smaller rank.
_STABLE_RANKS = {"U": ([8, 9], 16, 17), "SU": ([8, 9], 16, 17), "Sp": ([4, 5], 12, 19)}


def _stable_suite(group: GroupSpec, maxdeg: int | None) -> list[CheckReport]:
    ranks, default, _ = _STABLE_RANKS[group.family]
    trunc = maxdeg if maxdeg is not None else default
    return [poincare.verify_stabilization(group.family, ranks, trunc)]


#: Verification suites, in the order ``--suite all`` runs them.  Each takes
#: the group and the --maxdeg value (None when not given).
VERIFY_SUITES = {
    "oracle": _oracle_suite,
    "product": _product_suite,
    "basis": _basis_suite,
    "generation": _generation_suite,
    "fakedeg": _fakedeg_suite,
    "stable": _stable_suite,
}
SUITES = (*VERIFY_SUITES, "all")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.group is None:
        return _fail_usage(
            f"--group and --rank are required for --suite {args.suite}"
        )
    try:
        group = _group_spec(args.group, args.rank)
    except ValueError as exc:
        return _fail_usage(str(exc))
    names = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    if group.weyl_kind != "sym" and "fakedeg" in names:
        if args.suite == "fakedeg":
            return _fail_usage("fake degrees are implemented for the symmetric "
                               "Weyl groups (families u, su) only")
        names.remove("fakedeg")
    ranks, _, limit = _STABLE_RANKS[group.family]
    if args.maxdeg is not None and args.maxdeg < 0:
        return _fail_usage("--maxdeg must be >= 0")
    if "stable" in names and args.maxdeg is not None and args.maxdeg > limit:
        return _fail_usage(f"--maxdeg {args.maxdeg} is past the stable range "
                           f"of {group.family} ranks {ranks}, which agree with "
                           f"the stable series through degree {limit}")
    try:
        reports = [r for name in names
                   for r in VERIFY_SUITES[name](group, args.maxdeg)]
    except GroupSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        return _fail_usage(str(exc))

    if args.format == "json":
        print(_dumps([dataclasses.asdict(r) for r in reports]))
    else:
        for r in reports:
            print(r.summary())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def cmd_poset(args: argparse.Namespace) -> int:
    if args.rank is None or args.rank < 1:
        return _fail_usage("--rank must be >= 1")
    header = ("shape", "flag_poincare", "real_dimension", "stabilizer_order")
    records = [
        (c.shape, c.flag_poincare.to_str("q"), c.real_dimension, c.stabilizer_order)
        for c in toriposet.components(args.rank)
    ]
    if args.format == "json":
        print(_dumps([dict(zip(header, record)) for record in records]))
        return EXIT_OK
    rows = [
        ("+".join(map(str, shape)), flag, str(dim), str(order))
        for shape, flag, dim, order in records
    ]
    if args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(f'"{cell}"' if "," in cell else cell for cell in row))
    else:
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(4)
        ]
        print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        for row in rows:
            print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    try:
        family = canonical_family(args.family)
    except ValueError as exc:
        return _fail_usage(str(exc))
    if args.maxdeg < 0:
        return _fail_usage("--maxdeg must be >= 0")
    header = ("a", "b", "degree")
    rows = [(a, b, 2 * (a + b))
            for a, b in poincare.generator_catalog(family, args.maxdeg).pairs]
    if args.format == "json":
        print(_dumps([dict(zip(header, row)) for row in rows]))
        return EXIT_OK
    sep = "," if args.format == "csv" else "  "
    print("\n".join(sep.join(map(str, row)) for row in [header, *rows]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comlie",
        description=(
            "Exact Poincare series and verification suites for the spaces "
            "of commuting elements in U(n), SU(n) and Sp(n)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="compute one series")
    p_series.add_argument("--group", required=True, help="u, su or sp")
    p_series.add_argument("--rank", type=int)
    p_series.add_argument("--what", choices=QUANTITIES, default="bcom")
    p_series.add_argument("--maxdeg", type=int, default=40)
    p_series.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    p_series.add_argument("--cache-dir", default=None)
    p_series.add_argument(
        "--oracle",
        action="store_true",
        help="use the conjugacy-class formula instead of the closed form",
    )
    p_series.set_defaults(func=cmd_series)

    p_verify = sub.add_parser("verify", help="run cross-checks")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--group", default=None)
    p_verify.add_argument("--rank", type=int, default=None)
    p_verify.add_argument("--maxdeg", type=int, default=None)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_poset = sub.add_parser("poset", help="table of torus components")
    p_poset.add_argument("--rank", type=int, required=True)
    p_poset.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    p_poset.set_defaults(func=cmd_poset)

    p_catalog = sub.add_parser("catalog", help="stable generator catalog")
    p_catalog.add_argument("--family", required=True, help="u, su or sp")
    p_catalog.add_argument("--maxdeg", type=int, required=True)
    p_catalog.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    p_catalog.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
