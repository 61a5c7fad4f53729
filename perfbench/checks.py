"""Correctness checks of request outcomes, run outside the timed region.

Series outputs are compared with the other formula (closed form against
the class-sum oracle) where both exist, and with recorded values
(``expected.json``, written by ``record_expected.py``) otherwise.  Verify
requests must print only PASS lines and exit 0; quotient dimensions must
equal the halved-degree coefficients of the closed-form series.  A wrong
exit code, an unexpected exception or a wrong output is a failure.
"""

from __future__ import annotations

import hashlib
import json
from math import factorial
from pathlib import Path

import workloads
from comlie import coinvariants, poincare
from comlie.poincare import GroupSpec

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def series_id(key: tuple) -> str:
    family, n, what, maxdeg, oracle = key
    return f"{family}/{n}/{what}/{maxdeg}/{'oracle' if oracle else 'closed'}"


def needs_record(key: tuple) -> bool:
    """Series with no second formula in the library: the base space series,
    the stable series and the oracle above the enumeration cap."""
    family, n, what, _, _ = key
    return what in ("bg", "stable") or workloads.over_cap(family, n)


def reference_series(key: tuple) -> list[int]:
    """The series a request must print, from the formula it did not use."""
    family, n, what, maxdeg, oracle = key
    group = GroupSpec(family, n)
    if what == "ecom":
        series = (poincare.ecom_numerator(group).truncated(maxdeg) if oracle
                  else coinvariants.oracle_ecom(group, maxdeg))
    elif oracle:
        series = poincare.bcom_series(group).expand(maxdeg)
    else:
        series = coinvariants.oracle_bcom(group, maxdeg)
    return list(series.coeffs)


def _parse_poly(text: str, trunc: int) -> list[int]:
    coeffs = [0] * (trunc + 1)
    if text == "0":
        return coeffs
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "t" not in term:
            coeffs[0] += sign * int(term)
            continue
        mag, _, power = term.rpartition("t")
        exp = int(power[1:]) if power else 1
        coeffs[exp] += sign * (int(mag.rstrip("*")) if mag else 1)
    return coeffs


def parse_series(stdout: str, fmt: str) -> tuple[dict | None, list[int]]:
    """(header fields or None for csv, coefficients) of a series output."""
    text = stdout.rstrip("\n")
    if fmt == "json":
        payload = json.loads(text)
        series = payload["series"]
        header = {"family": payload["family"], "n": payload["n"],
                  "quantity": payload["quantity"], "trunc": series["trunc"]}
        return header, series["coeffs"]
    lines = text.split("\n")
    if fmt == "csv":
        if lines[0] != "degree,coefficient":
            raise ValueError("missing csv header")
        rows = [line.split(",") for line in lines[1:]]
        if [int(d) for d, _ in rows] != list(range(len(rows))):
            raise ValueError("csv degrees out of order")
        return None, [int(c) for _, c in rows]
    fields = dict(item.split("=") for item in lines[0].lstrip("# ").split())
    header = {"family": fields["family"],
              "n": None if fields["n"] == "None" else int(fields["n"]),
              "quantity": fields["quantity"], "trunc": int(fields["trunc"])}
    if len(lines) != 2:
        raise ValueError("text output is not one header and one series line")
    return header, _parse_poly(lines[1], header["trunc"])


class Checker:
    """Checks outcomes; reference values are memoised per key."""

    def __init__(self, expected: dict | None = None) -> None:
        if expected is None:
            expected = json.loads(EXPECTED_PATH.read_text())
        self.expected = expected
        self._memo: dict = {}

    def _memoised(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def check(self, request: dict, outcome: dict) -> str | None:
        """None when the outcome is right, else why it is wrong.

        ``outcome`` has ``exit`` (CLI requests), ``stdout``, ``error`` (the
        name of an exception raised, or None) and ``value`` (library calls).
        """
        expect = request["expect"]
        if isinstance(expect, str):
            if outcome["error"] != expect:
                return f"expected {expect}, got {outcome['error'] or 'a result'}"
            return None
        if outcome["error"] is not None:
            return f"raised {outcome['error']}"
        if "call" in request:
            try:
                return self._check_call(request, outcome["value"])
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                return f"unreadable result: {exc!r}"
        if outcome["exit"] != expect:
            return f"exit {outcome['exit']}, expected {expect}"
        if expect != 0:
            return "output on a refused request" if outcome["stdout"] else None
        argv = request.get("cli") or request["proc"]
        try:
            if argv[0] == "series":
                return self._check_series(argv, outcome["stdout"])
            if argv[0] == "verify":
                return self._check_verify(outcome["stdout"])
            return self._check_poset(argv, outcome["stdout"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _check_series(self, argv: list[str], stdout: str) -> str | None:
        key = workloads.series_key(argv)
        family, n, what, maxdeg, _ = key
        header, coeffs = parse_series(stdout, workloads.flags(argv)["format"])
        if header is not None and header != {"family": family, "n": n,
                                              "quantity": what, "trunc": maxdeg}:
            return f"header {header} does not match the request"
        if len(coeffs) != maxdeg + 1:
            return f"{len(coeffs)} coefficients through degree {maxdeg}"
        if needs_record(key):
            recorded = self.expected["series"].get(series_id(key))
            if recorded is None:
                return f"no recorded value for {series_id(key)}"
            return None if digest(coeffs) == recorded else "differs from record"
        reference = self._memoised(key, lambda: reference_series(key))
        if coeffs != reference:
            first = next(k for k, (a, b) in enumerate(zip(coeffs, reference))
                         if a != b)
            return f"differs from the other formula at degree {first}"
        return None

    @staticmethod
    def _check_verify(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines or any(not line.startswith("PASS ") for line in lines):
            return f"not all PASS: {stdout.strip()[:200]!r}"
        return None

    def _check_poset(self, argv: list[str], stdout: str) -> str | None:
        f = workloads.flags(argv)
        rows = workloads.partition_count(int(f["rank"]))
        fmt = f["format"]
        count = (len(json.loads(stdout)) if fmt == "json"
                 else len(stdout.splitlines()) - 1)
        if count != rows:
            return f"{count} components, expected {rows}"
        recorded = self.expected["poset"].get(f"{f['rank']}/{fmt}")
        return None if digest(stdout) == recorded else "differs from record"

    def _check_call(self, request: dict, value) -> str | None:
        name, args = request["call"], request["args"]
        if name == "multisym.quotient_graded_dims":
            family, n, ideal, degree = args
            group = GroupSpec(family, n)
            if ideal == "ecom":
                numerator = self._memoised(
                    ("ecom", family, n), lambda: poincare.ecom_numerator(group))
                want = [numerator.coefficient(2 * d) for d in range(degree + 1)]
            else:
                series = poincare.bcom_series(group).expand(2 * degree)
                want = [series.coeffs[2 * d] for d in range(degree + 1)]
            got = [value[d] for d in range(degree + 1)]
            if len(value) != degree + 1 or got != want:
                return f"quotient dims {got} != halved series {want}"
            return None
        if name == "repa.fiber_numerator_series":
            n = args[0]
            coeffs = [value.coefficient(e) for e in range(value.degree + 1)]
            if value.value_at_one() != factorial(n) or coeffs != coeffs[::-1]:
                return "not a palindrome summing to n!"
            recorded = self.expected["fiber"].get(str(n))
            return None if digest(coeffs) == recorded else "differs from record"
        n, ivals = args
        count = self.expected["chains"].get(f"{n}/{','.join(map(str, ivals))}")
        if name == "toriposet.chain_classes":
            blocks = tuple(i + 1 for i in ivals)
            if any(c.block_counts != blocks or len(c.representative) != len(blocks)
                   for c in value):
                return "class of the wrong chain type"
            value = len(value)
        return None if value == count else f"{value} classes, expected {count}"
