"""Uniform result object for the verification routines."""

from __future__ import annotations

from typing import NamedTuple


class CheckReport(NamedTuple):
    """Outcome of one verification check.

    ``first_mismatch`` carries the smallest degree where two series disagree,
    when that is the mode of failure.
    """

    name: str
    passed: bool
    detail: str = ""
    first_mismatch: int | None = None

    def __bool__(self) -> bool:
        return self.passed

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.name}"
        if self.detail:
            text += f": {self.detail}"
        if self.first_mismatch is not None:
            text += f" (first mismatch at degree {self.first_mismatch})"
        return text
