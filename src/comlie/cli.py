"""Command-line front end: compute series, run verification suites, emit
poset and catalog tables, and cache series results as JSON.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap
exceeded (retry with --oracle).
"""

from __future__ import annotations

import argparse
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
SUITES = ("oracle", "product", "basis", "generation", "fakedeg", "stable", "all")

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


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _compute_series(
    what: str, family: str, rank: int | None, trunc: int, oracle: bool
) -> TruncatedSeries:
    if what == "stable":
        return poincare.stable_bcom(family, trunc)
    group = GroupSpec(family, rank)
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


def cmd_series(args: argparse.Namespace) -> int:
    try:
        family = canonical_family(args.group)
    except ValueError as exc:
        return _fail_usage(str(exc))
    if args.maxdeg < 0:
        return _fail_usage("--maxdeg must be >= 0")
    rank = args.rank
    if args.what != "stable":
        if rank is None:
            return _fail_usage(f"--rank is required for --what {args.what}")
        if rank < 1:
            return _fail_usage("--rank must be >= 1")
    else:
        rank = None

    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    cache_path = None
    if cache_dir:
        tag = "oracle" if args.oracle else "closed"
        name = (
            f"{family}_{rank if rank is not None else 'stable'}_{args.what}"
            f"_D{args.maxdeg}_{tag}_v{__version__}.json"
        )
        cache_path = Path(cache_dir) / name

    if cache_path is not None and cache_path.exists():
        text = cache_path.read_text()
        payload = json.loads(text)
        if _dumps(payload) != text:
            return _fail_usage(f"corrupt cache file {cache_path}")
    else:
        try:
            series = _compute_series(
                args.what, family, rank, args.maxdeg, args.oracle
            )
        except GroupSizeError as exc:
            print(
                f"error: {exc}; rerun with --oracle to use the "
                "conjugacy-class formula",
                file=sys.stderr,
            )
            return EXIT_CAP
        payload = {
            "family": family,
            "n": rank,
            "quantity": args.what,
            "series": series.to_json("t"),
        }
        if cache_path is not None:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            cache_path.write_text(_dumps(payload))

    print(_render_series(payload, args.format))
    return EXIT_OK


def _series_equal_report(
    name: str, lhs: TruncatedSeries, rhs: TruncatedSeries
) -> CheckReport:
    mismatch = next(
        (k for k in range(lhs.trunc + 1) if lhs.coeffs[k] != rhs.coeffs[k]), None
    )
    return CheckReport(name=name, passed=mismatch is None,
                       first_mismatch=mismatch)


def _default_poly_degree(group: GroupSpec) -> int:
    return group.top_ecom_degree // 2


def _verify_reports(
    suite: str, group: GroupSpec | None, maxdeg: int | None
) -> list[CheckReport]:
    reports: list[CheckReport] = []
    suites = (
        ["oracle", "product", "basis", "generation", "fakedeg", "stable"]
        if suite == "all"
        else [suite]
    )
    for item in suites:
        if item == "oracle":
            if group is None:
                raise ValueError("--group/--rank required for the oracle suite")
            trunc = maxdeg if maxdeg is not None else 40
            reports.append(
                _series_equal_report(
                    f"oracle fiber series {group.label}",
                    poincare.ecom_numerator(group).truncated(trunc),
                    coinvariants.oracle_ecom(group, trunc),
                )
            )
            reports.append(
                _series_equal_report(
                    f"oracle base series {group.label}",
                    poincare.bcom_series(group).expand(trunc),
                    coinvariants.oracle_bcom(group, trunc),
                )
            )
        elif item == "product":
            if group is None:
                raise ValueError("--group/--rank required for the product suite")
            trunc = maxdeg if maxdeg is not None else 40
            reports.append(poincare.verify_product_relation(group, trunc))
        elif item == "basis":
            if group is None:
                raise ValueError("--group/--rank required for the basis suite")
            poly_deg = (
                maxdeg // 2 if maxdeg is not None else _default_poly_degree(group)
            )
            # imported here, so commands that skip the basis and generation
            # suites do not load the linear-algebra module at start-up
            from . import multisym

            basis = multisym.verify_free_basis(group.weyl_kind, group.n, poly_deg)
            degrees = tuple(2 * d for d in basis.degrees)
            reports.append(
                CheckReport(
                    name=f"descent basis {group.label}",
                    passed=basis.passed,
                    detail=(
                        f"{basis.basis_size} elements, degrees {degrees}"
                        if basis.passed
                        else basis.detail
                    ),
                )
            )
        elif item == "generation":
            if group is None:
                raise ValueError(
                    "--group/--rank required for the generation suite"
                )
            poly_deg = maxdeg // 2 if maxdeg is not None else 6
            from . import multisym

            reports.append(
                multisym.verify_power_sum_generation(
                    group.weyl_kind, group.n, poly_deg
                )
            )
        elif item == "fakedeg":
            if group is None:
                raise ValueError("--group/--rank required for the fakedeg suite")
            if group.weyl_kind != "sym":
                if suite == "all":
                    continue
                raise ValueError(
                    "fake degrees are implemented for the symmetric Weyl "
                    "groups (families u, su) only"
                )
            reports.append(repa.verify_fake_degree_identities(group.n))
        elif item == "stable":
            if group is None:
                raise ValueError("--group required for the stable suite")
            if group.family == "Sp":
                ranks, trunc = [4, 5], 12
            else:
                ranks, trunc = [8, 9], 16
            if maxdeg is not None:
                trunc = maxdeg
            reports.append(
                poincare.verify_stabilization(group.family, ranks, trunc)
            )
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    group = None
    if args.group is not None:
        try:
            family = canonical_family(args.group)
        except ValueError as exc:
            return _fail_usage(str(exc))
        if args.rank is None:
            return _fail_usage("--rank is required with --group")
        if args.rank < 1:
            return _fail_usage("--rank must be >= 1")
        group = GroupSpec(family, args.rank)
    try:
        reports = _verify_reports(args.suite, group, args.maxdeg)
    except GroupSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        return _fail_usage(str(exc))

    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                        "first_mismatch": r.first_mismatch,
                    }
                    for r in reports
                ],
                sort_keys=True,
            )
        )
    else:
        for r in reports:
            print(r.summary())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def cmd_poset(args: argparse.Namespace) -> int:
    if args.rank is None or args.rank < 1:
        return _fail_usage("--rank must be >= 1")
    comps = toriposet.components(args.rank)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "shape": list(c.shape),
                        "flag_poincare": c.flag_poincare.to_str("q"),
                        "real_dimension": c.real_dimension,
                        "stabilizer_order": c.stabilizer_order,
                    }
                    for c in comps
                ],
                sort_keys=True,
            )
        )
        return EXIT_OK
    rows = [
        (
            "+".join(map(str, c.shape)),
            c.flag_poincare.to_str("q"),
            str(c.real_dimension),
            str(c.stabilizer_order),
        )
        for c in comps
    ]
    header = ("shape", "flag_poincare", "real_dimension", "stabilizer_order")
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
    catalog = poincare.generator_catalog(family, args.maxdeg)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"a": a, "b": b, "degree": 2 * (a + b)}
                    for a, b in catalog.pairs
                ],
                sort_keys=True,
            )
        )
        return EXIT_OK
    lines = ["a,b,degree"] if args.format == "csv" else ["a  b  degree"]
    for a, b in catalog.pairs:
        if args.format == "csv":
            lines.append(f"{a},{b},{2 * (a + b)}")
        else:
            lines.append(f"{a}  {b}  {2 * (a + b)}")
    print("\n".join(lines))
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
        help="use the conjugacy-class formula instead of enumeration",
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
