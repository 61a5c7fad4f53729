"""Command-line front end: compute series, run verification suites, emit
poset and catalog tables, and cache series results as JSON.

Each command imports the library modules it uses when it runs, so start-up
loads no math module.  A ``series`` cache hit is served from the JSON file
alone and loads no math module; the text format prints the polynomial
through ``polytext``, which imports nothing.

``main`` builds the argument parser on its first call and reuses it for
every later call in the process.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap
exceeded (retry with --oracle, except past the oracle's own cost bound).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; each command imports what it uses
    from .poincare import GroupSpec
    from .qseries import TruncatedSeries
    from .reports import CheckReport

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

CACHE_ENV_VAR = "COMLIE_CACHE_DIR"

QUANTITIES = ("ecom", "bcom", "bg", "stable")

#: Largest --maxdeg any command accepts, far above every degree in use; a
#: larger value is refused up front, not left to overflow a list size.
MAX_DEGREE = 100_000

#: Largest --maxdeg of the stable catalog and series.  The catalog lists
#: about D^2/8 generator pairs and the series expands one factor pass per
#: pair, so the series grows about as D^3: 0.6 and 3.8 s at D = 500 and
#: 1000 on a 2-core host.
MAX_STABLE_DEGREE = 1000

#: Largest --rank of the poset table.  Its rows and their flag polynomials
#: grow about 4.5x per 5 ranks: rank 25 took 1.4 s and 64 MB, rank 30
#: 6.2 s, 248 MB and 48 MB of CSV on a 2-core host.
MAX_POSET_RANK = 30

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


def _maxdeg_error(maxdeg: int | None, stable: bool = False) -> str | None:
    """The usage error of a --maxdeg outside 0..MAX_DEGREE, or past
    MAX_STABLE_DEGREE for a ``stable`` catalog or series, else None."""
    if maxdeg is None:
        return None
    if maxdeg < 0:
        return "--maxdeg must be >= 0"
    if maxdeg > MAX_DEGREE:
        return f"--maxdeg must be <= {MAX_DEGREE}"
    if stable and maxdeg > MAX_STABLE_DEGREE:
        return (f"--maxdeg must be <= {MAX_STABLE_DEGREE} "
                "(MAX_STABLE_DEGREE) for the stable catalog")
    return None


def _checked_rank(rank: int | None) -> int:
    """--rank of a command that names a group; ValueError carries the usage
    error."""
    if rank is None:
        raise ValueError("--rank is required with --group")
    if rank < 1:
        raise ValueError("--rank must be >= 1")
    return rank


def _group_spec(group: str, rank: int | None) -> GroupSpec:
    """The group named by --group/--rank; ValueError carries the usage error."""
    from .families import canonical_family
    from .poincare import GroupSpec

    family = canonical_family(group)
    return GroupSpec(family, _checked_rank(rank))


def _compute_series(
    what: str, family: str, rank: int | None, trunc: int, oracle: bool
) -> TruncatedSeries:
    from . import poincare

    if what == "stable":
        return poincare.stable_bcom(family, trunc)
    if what == "bg":
        # a factor (1 - t^(2d)) with 2d > trunc is 1 through trunc, and the
        # first trunc // 2 + 1 ranks hold every invariant degree d <= trunc / 2
        # in each family, so the series needs no more
        low = poincare.GroupSpec(family, min(rank, trunc // 2 + 1))
        return poincare.bg_series(low).expand(trunc)
    group = poincare.GroupSpec(family, rank)
    if oracle:
        from . import coinvariants
        from .weylcomb import GroupSizeError

        bound = coinvariants.MAX_ORACLE_COST
        if coinvariants._oracle_cost(group, trunc) > bound:
            raise GroupSizeError(
                f"--oracle for {group.label} through degree {trunc} is "
                f"estimated past {bound} steps (MAX_ORACLE_COST)")

        if what == "ecom":
            return coinvariants.oracle_ecom(group, trunc)
        return coinvariants.oracle_bcom(group, trunc)
    if what == "ecom":
        return poincare.ecom_numerator(group).truncated(trunc)
    return poincare.bcom_series(group).expand(trunc)


def _print_table(header: tuple[str, ...], records: list[tuple], fmt: str) -> None:
    """Print ``records`` under ``header``: json as a list of objects keyed by
    the header, csv as comma-joined rows, text as columns padded to their
    widest cell and joined by two spaces.  A tuple cell prints joined by
    ``+`` in csv and text."""
    if fmt == "json":
        print(_dumps([dict(zip(header, record)) for record in records]))
        return
    rows = [header] + [
        tuple("+".join(map(str, cell)) if isinstance(cell, tuple) else str(cell)
              for cell in record)
        for record in records
    ]
    if fmt == "csv":
        print("\n".join(",".join(row) for row in rows))
        return
    widths = [max(map(len, column)) for column in zip(*rows)]
    print("\n".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths))
                    for row in rows))


def _print_series(payload: dict, fmt: str) -> None:
    series = payload["series"]
    if fmt == "json":
        print(_dumps(payload))
    elif fmt == "csv":
        _print_table(("degree", "coefficient"), list(enumerate(series["coeffs"])), fmt)
    else:
        from .polytext import poly_text

        print(f"# family={payload['family']} n={payload['n']} "
              f"quantity={payload['quantity']} trunc={series['trunc']}")
        print(poly_text(series["coeffs"], "t"))


def _series_payload(header: dict, coeffs: list[int]) -> dict:
    """The JSON object that ``series`` prints and caches: ``header`` and the
    series in t with coefficients ``coeffs``, through degree len - 1."""
    return {**header,
            "series": {"var": "t", "trunc": len(coeffs) - 1, "coeffs": coeffs}}


def _read_cache(path: Path, header: dict, trunc: int) -> dict | None:
    """The cached payload, or None when the file is missing, unreadable, not
    in canonical form or not the series of ``header`` through ``trunc``;
    such a file is recomputed and overwritten.  Canonical form is the
    serialisation of the payload with int coefficients, byte for byte."""
    try:
        text = path.read_text()
        coeffs = json.loads(text)["series"]["coeffs"]
    except (OSError, ValueError, LookupError, TypeError):
        return None
    if (type(coeffs) is not list or len(coeffs) != trunc + 1
            or any(type(c) is not int for c in coeffs)):
        return None
    payload = _series_payload(header, coeffs)
    return payload if _dumps(payload) == text else None


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
        try:
            tmp.unlink()
        except OSError:
            pass  # never written: the directory is missing or unusable
        print(f"warning: cache not written: {exc}", file=sys.stderr)


def cmd_series(args: argparse.Namespace) -> int:
    from .families import canonical_family

    if args.oracle and args.what not in ("ecom", "bcom"):
        return _fail_usage("--oracle applies to --what ecom|bcom")
    try:
        family = canonical_family(args.group)
        rank = None if args.what == "stable" else _checked_rank(args.rank)
    except ValueError as exc:
        return _fail_usage(str(exc))
    error = _maxdeg_error(args.maxdeg, args.what == "stable")
    if error:
        return _fail_usage(error)

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
        from .weylcomb import GroupSizeError

        try:
            series = _compute_series(
                args.what, family, rank, args.maxdeg, args.oracle
            )
        except GroupSizeError as exc:
            hint = ("" if args.oracle else "; rerun with --oracle to use the "
                    "conjugacy-class formula")
            print(f"error: {exc}{hint}", file=sys.stderr)
            return EXIT_CAP
        payload = _series_payload(header, list(series.coeffs))
        if cache_path is not None:
            _write_cache(cache_path, _dumps(payload))

    _print_series(payload, args.format)
    return EXIT_OK


def _series_equal_report(
    name: str, lhs: TruncatedSeries, rhs: TruncatedSeries
) -> CheckReport:
    from .reports import CheckReport

    mismatch = lhs.first_mismatch(rhs)
    return CheckReport(name=name, passed=mismatch is None,
                       first_mismatch=mismatch)


def _oracle_suite(group: GroupSpec, maxdeg: int | None) -> list[CheckReport]:
    from . import coinvariants, poincare

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
    from . import poincare

    trunc = maxdeg if maxdeg is not None else 40
    return [poincare.verify_product_relation(group, trunc)]


def _basis_suite(group: GroupSpec, maxdeg: int | None) -> list[CheckReport]:
    from . import multisym
    from .reports import CheckReport

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
    from . import repa

    return [repa.verify_fake_degree_identities(group.n)]


#: Ranks the stable suite checks, its default degree, and the last degree
#: where those ranks agree with the stable series: 2n + 1 for U(n) and
#: SU(n), 4n + 3 for Sp(n), n the smaller rank.
_STABLE_RANKS = {"U": ([8, 9], 16, 17), "SU": ([8, 9], 16, 17), "Sp": ([4, 5], 12, 19)}


def _stable_suite(group: GroupSpec, maxdeg: int | None) -> list[CheckReport]:
    from . import poincare

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
    from .weylcomb import GroupSizeError

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
    error = _maxdeg_error(args.maxdeg)
    if error:
        return _fail_usage(error)
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
        print(_dumps([r._asdict() for r in reports]))
    else:
        for r in reports:
            print(r.summary())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def cmd_poset(args: argparse.Namespace) -> int:
    from . import toriposet

    if args.rank < 1:
        return _fail_usage("--rank must be >= 1")
    if args.rank > MAX_POSET_RANK:
        return _fail_usage(f"--rank must be <= {MAX_POSET_RANK} "
                           "(MAX_POSET_RANK) for the poset table")
    records = [
        (c.shape, c.flag_poincare.to_str("q"), c.real_dimension, c.stabilizer_order)
        for c in toriposet.components(args.rank)
    ]
    _print_table(("shape", "flag_poincare", "real_dimension", "stabilizer_order"),
                 records, args.format)
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    from . import poincare
    from .families import canonical_family

    try:
        family = canonical_family(args.family)
    except ValueError as exc:
        return _fail_usage(str(exc))
    error = _maxdeg_error(args.maxdeg, stable=True)
    if error:
        return _fail_usage(error)
    records = [(a, b, 2 * (a + b))
               for a, b in poincare.generator_catalog(family, args.maxdeg).pairs]
    _print_table(("a", "b", "degree"), records, args.format)
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
        help="use the conjugacy-class formula instead of the closed form "
        "(--what ecom|bcom only)",
    )

    p_verify = sub.add_parser("verify", help="run cross-checks")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--group", default=None)
    p_verify.add_argument("--rank", type=int, default=None)
    p_verify.add_argument("--maxdeg", type=int, default=None)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_poset = sub.add_parser("poset", help="table of torus components")
    p_poset.add_argument("--rank", type=int, required=True)
    p_poset.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )

    p_catalog = sub.add_parser("catalog", help="stable generator catalog")
    p_catalog.add_argument("--family", required=True, help="u, su or sp")
    p_catalog.add_argument("--maxdeg", type=int, required=True)
    p_catalog.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )

    return parser


#: The parser of this process, built by the first ``main`` call.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up per call, so a command patched after the first call runs
    commands = {"series": cmd_series, "verify": cmd_verify,
                "poset": cmd_poset, "catalog": cmd_catalog}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
