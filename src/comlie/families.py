"""Names of the classical group families, shared by the series code and the
command line; importing this module loads nothing else from comlie."""

FAMILIES = ("U", "SU", "Sp")

_CANONICAL_FAMILY = {"u": "U", "su": "SU", "sp": "Sp"}


def canonical_family(family: str) -> str:
    try:
        return _CANONICAL_FAMILY[family.lower()]
    except KeyError:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
