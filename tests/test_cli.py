import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from comlie import cli, poincare
from comlie.reports import CheckReport


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_json_betti_pattern(capsys):
    code, out, _ = run(
        capsys,
        ["series", "--group", "su", "--rank", "2", "--what", "bcom",
         "--maxdeg", "12", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, cli.SERIES_SCHEMA)
    assert payload["series"]["coeffs"] == [1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2]
    assert payload["family"] == "SU" and payload["n"] == 2


def test_series_text_u3_fiber(capsys):
    code, out, _ = run(
        capsys,
        ["series", "--group", "u", "--rank", "3", "--what", "ecom",
         "--maxdeg", "12"],
    )
    assert code == 0
    assert "1 + t^4 + 2*t^6 + t^8 + t^12" in out


def test_series_sp1_fiber(capsys):
    code, out, _ = run(
        capsys,
        ["series", "--group", "sp", "--rank", "1", "--what", "ecom",
         "--maxdeg", "8", "--format", "csv"],
    )
    assert code == 0
    assert out.splitlines()[0] == "degree,coefficient"
    assert out.splitlines()[5] == "4,1"
    assert out == "degree,coefficient\n" + "".join(
        f"{d},{int(d in (0, 4))}\n" for d in range(9))


def test_series_stable(capsys):
    code, out, _ = run(
        capsys,
        ["series", "--group", "u", "--what", "stable", "--maxdeg", "4",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, cli.SERIES_SCHEMA)
    assert payload["n"] is None
    assert payload["series"]["coeffs"] == [1, 0, 1, 0, 3]


def test_series_usage_errors(capsys):
    code, _, err = run(capsys, ["series", "--group", "so", "--rank", "3"])
    assert code == 2 and "family" in err
    code, _, err = run(capsys, ["series", "--group", "u"])
    assert code == 2 and "--rank" in err


def test_series_cap_exceeded_suggests_oracle(capsys):
    code, _, err = run(
        capsys, ["series", "--group", "u", "--rank", "10", "--what", "ecom"]
    )
    assert code == 3
    assert "--oracle" in err


def test_series_oracle_passes_the_cap(capsys):
    code, out, _ = run(
        capsys,
        ["series", "--group", "u", "--rank", "10", "--what", "bcom",
         "--maxdeg", "8", "--format", "json", "--oracle"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["coeffs"][0] == 1


def test_cache_round_trip(capsys, tmp_path):
    argv = ["series", "--group", "su", "--rank", "2", "--what", "bcom",
            "--maxdeg", "12", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code1, out1, _ = run(capsys, argv)
    cached_files = list(tmp_path.iterdir())
    assert code1 == 0 and len(cached_files) == 1
    code2, out2, _ = run(capsys, argv)
    assert code2 == 0
    assert out1 == out2
    assert cached_files[0].read_text() == out1.strip()


def test_corrupt_cache_file_is_recomputed(capsys, tmp_path):
    argv = ["series", "--group", "sp", "--rank", "2", "--what", "bcom",
            "--maxdeg", "16"]
    fresh = {fmt: run(capsys, argv + ["--format", fmt])[1]
             for fmt in ("text", "json")}
    argv += ["--cache-dir", str(tmp_path)]
    run(capsys, argv)
    (cache_file,) = tmp_path.iterdir()
    canonical = cache_file.read_text()
    payload = json.loads(canonical)
    series = payload["series"]
    coeffs = series["coeffs"]

    def with_series(**changes):
        return cli._dumps(dict(payload, series=dict(series, **changes)))

    malformed = [
        canonical[:20],
        '{"a": 1}',
        with_series(coeffs=coeffs[:5]),
        cli._dumps(dict(payload, family="U")),
        with_series(coeffs=[float(c) for c in coeffs]),
        with_series(coeffs=[str(c) for c in coeffs]),
        with_series(coeffs=[bool(c) for c in coeffs]),
        with_series(coeffs=[float("inf")] * len(coeffs)),
        with_series(trunc=series["trunc"] - 1),
        with_series(trunc=series["trunc"] + 1),
        with_series(var="q"),
        cli._dumps(dict(payload, extra=1)),
        cli._dumps(dict(payload, series=coeffs)),
        cli._dumps(dict(payload, series=canonical)),
    ]
    for text in malformed:
        for fmt, expected in fresh.items():
            cache_file.write_text(text)
            code, out, err = run(capsys, argv + ["--format", fmt])
            assert code == 0 and out == expected and err == "", text
            assert [p.name for p in tmp_path.iterdir()] == [cache_file.name]
            assert cache_file.read_text() == canonical


def test_unusable_cache_location_warns(capsys, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    argv = ["series", "--group", "u", "--rank", "3", "--what", "ecom",
            "--maxdeg", "12"]
    _, fresh, _ = run(capsys, argv)
    code, out, err = run(capsys, argv + ["--cache-dir", str(afile)])
    assert code == 0 and out == fresh
    assert len(err.splitlines()) == 1 and err.startswith("warning:")
    assert afile.read_text() == "not a directory"


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(tmp_path))
    argv = ["series", "--group", "u", "--rank", "2", "--what", "bg",
            "--maxdeg", "6", "--format", "json"]
    code, out1, _ = run(capsys, argv)
    assert code == 0 and len(list(tmp_path.iterdir())) == 1
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_verify_product_suite(capsys):
    code, out, _ = run(
        capsys, ["verify", "--suite", "product", "--group", "su", "--rank", "2"]
    )
    assert code == 0
    assert out.startswith("PASS")


def test_verify_oracle_suite(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--suite", "oracle", "--group", "u", "--rank", "6",
         "--maxdeg", "40"],
    )
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_basis_suite_sp2(capsys):
    code, out, _ = run(
        capsys, ["verify", "--suite", "basis", "--group", "sp", "--rank", "2"]
    )
    assert code == 0
    assert "8 elements" in out
    for degree in (0, 4, 8, 12, 16):
        assert str(degree) in out


def test_verify_json_format(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--suite", "fakedeg", "--group", "u", "--rank", "4",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["passed"] is True


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "oracle"])
    assert code == 2
    code, _, err = run(
        capsys, ["verify", "--suite", "fakedeg", "--group", "sp", "--rank", "2"]
    )
    assert code == 2 and "symmetric" in err
    for suite in cli.SUITES:
        code, out, err = run(capsys, ["verify", "--suite", suite, "--group",
                                      "u", "--rank", "2", "--maxdeg", "-1"])
        assert (code, out, err) == (2, "", "error: --maxdeg must be >= 0\n")


@pytest.mark.parametrize("family, maxdeg, code", [
    ("u", 17, 0), ("u", 18, 2), ("su", 17, 0), ("su", 18, 2),
    ("sp", 19, 0), ("sp", 20, 2),
])
def test_verify_stable_refuses_degrees_past_the_stable_range(
    capsys, family, maxdeg, code
):
    argv = ["verify", "--suite", "stable", "--group", family, "--rank", "1",
            "--maxdeg", str(maxdeg)]
    got, out, err = run(capsys, argv)
    assert got == code
    if code == 0:
        assert out.startswith("PASS stabilization")
    else:
        limit = 19 if family == "sp" else 17
        assert out == "" and f"through degree {limit}" in err


@pytest.mark.parametrize("suite, family, rank", [
    ("basis", "u", 5),
    ("fakedeg", "u", 10),
    ("generation", "sp", 4),
])
def test_verify_cap_exceeded_exit_code(capsys, suite, family, rank):
    code, out, err = run(
        capsys,
        ["verify", "--suite", suite, "--group", family, "--rank", str(rank)],
    )
    assert code == 3
    assert out == "" and err.startswith("error:")


def test_verify_sp3_default_basis_degree_within_cap(capsys):
    code, out, _ = run(
        capsys, ["verify", "--suite", "all", "--group", "sp", "--rank", "3"]
    )
    assert code == 0
    assert "PASS descent basis Sp(3): 48 elements" in out
    assert "fake degree" not in out
    code, out, err = run(
        capsys,
        ["verify", "--suite", "basis", "--group", "sp", "--rank", "3",
         "--maxdeg", "26"],
    )
    assert code == 3 and out == "" and err.startswith("error:")


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = CheckReport(name="forced", passed=False, detail="forced failure")
    monkeypatch.setattr(
        poincare, "verify_product_relation", lambda group, trunc: failing
    )
    code, out, _ = run(
        capsys, ["verify", "--suite", "product", "--group", "u", "--rank", "2"]
    )
    assert code == 1
    assert out.startswith("FAIL")


POSET_RANK_3 = {
    "text": (
        "shape  flag_poincare          real_dimension  stabilizer_order\n"
        "3      1                      0               1               \n"
        "2+1    1 + q + q^2            4               1               \n"
        "1+1+1  1 + 2*q + 2*q^2 + q^3  6               6               \n"
    ),
    "csv": (
        "shape,flag_poincare,real_dimension,stabilizer_order\n"
        "3,1,0,1\n"
        "2+1,1 + q + q^2,4,1\n"
        "1+1+1,1 + 2*q + 2*q^2 + q^3,6,6\n"
    ),
    "json": (
        '[{"flag_poincare": "1", "real_dimension": 0, "shape": [3], '
        '"stabilizer_order": 1}, {"flag_poincare": "1 + q + q^2", '
        '"real_dimension": 4, "shape": [2, 1], "stabilizer_order": 1}, '
        '{"flag_poincare": "1 + 2*q + 2*q^2 + q^3", "real_dimension": 6, '
        '"shape": [1, 1, 1], "stabilizer_order": 6}]\n'
    ),
}


def test_poset_table(capsys):
    code, out, _ = run(capsys, ["poset", "--rank", "3"])
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 4  # header plus one row per partition of 3
    code, out, _ = run(capsys, ["poset", "--rank", "2", "--format", "json"])
    rows = json.loads(out)
    assert {"shape": [2], "flag_poincare": "1", "real_dimension": 0,
            "stabilizer_order": 1} in rows
    for fmt, expected in POSET_RANK_3.items():
        assert run(capsys, ["poset", "--rank", "3", "--format", fmt]) == (
            0, expected, "")


def test_catalog_tables(capsys):
    code, out, _ = run(capsys, ["catalog", "--family", "sp", "--maxdeg", "8",
                                "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1:] == [
        "0,2,4", "1,1,4", "0,4,8", "1,3,8", "2,2,8", "3,1,8",
    ]
    code, out, _ = run(capsys, ["catalog", "--family", "su", "--maxdeg", "2",
                                "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1:] == []
    code, out, _ = run(capsys, ["catalog", "--family", "su", "--maxdeg", "2"])
    assert (code, out) == (0, "a  b  degree\n")
    code, out, _ = run(capsys, ["catalog", "--family", "u", "--maxdeg", "24"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 78  # header plus one row per a + b <= 12, b >= 1
    assert lines[0] == "a   b   degree"
    assert lines[1] == "0   1   2     "
    assert lines[-2] == "10  2   24    "
    assert {len(line) for line in lines} == {14}


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["series", "--group", "u", "--what", "nonsense"])
    assert excinfo.value.code == 2


MATH_MODULES = {f"comlie.{name}" for name in (
    "poincare", "coinvariants", "qseries", "repa", "toriposet", "weylcomb",
    "multisym")}

_FOOTPRINT_PROBE = """
import json, sys
import comlie.cli
argv = json.loads(sys.argv[1])
if argv is not None:
    try:
        comlie.cli.main(argv)
    except SystemExit:
        pass
sys.stderr.write(json.dumps(sorted(sys.modules)))
"""


def _math_modules_loaded(argv: list[str] | None) -> set[str]:
    """Math modules a fresh interpreter holds after importing comlie.cli and,
    unless ``argv`` is None, running the command ``argv``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(cli.CACHE_ENV_VAR, None)
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, json.dumps(argv)], env=env,
        capture_output=True, text=True, check=True)
    return MATH_MODULES.intersection(json.loads(result.stderr))


def test_cli_import_leaves_multisym_unloaded():
    assert _math_modules_loaded(None) == set()
    assert _math_modules_loaded(["--version"]) == set()


@pytest.mark.parametrize("fmt, loaded", [
    ("json", set()), ("csv", set()), ("text", set()),
])
def test_cache_hit_reads_json_without_the_math_modules(capsys, tmp_path, fmt,
                                                       loaded):
    argv = ["series", "--group", "sp", "--rank", "2", "--what", "bcom",
            "--maxdeg", "16", "--format", fmt, "--cache-dir", str(tmp_path)]
    assert run(capsys, argv)[0] == 0
    (cache_file,) = tmp_path.iterdir()
    written = cache_file.stat().st_mtime_ns
    assert _math_modules_loaded(argv) == loaded
    assert cache_file.stat().st_mtime_ns == written


def test_closed_form_miss_loads_no_oracle_poset_or_linear_algebra():
    loaded = _math_modules_loaded(["series", "--group", "u", "--rank", "4",
                                   "--what", "bcom", "--maxdeg", "20"])
    assert "comlie.poincare" in loaded
    assert not loaded & {"comlie.coinvariants", "comlie.toriposet",
                         "comlie.multisym"}


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, expected output lines) of every ``$ comlie ...`` example."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples, lines = [], None
    for line in readme.read_text().splitlines():
        if line.startswith("$ comlie "):
            lines = []
            examples.append((shlex.split(line)[2:], lines))
        elif lines is not None and line.strip() and not line.startswith("```"):
            lines.append(line)
        else:
            lines = None
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv, expected", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples_print_what_they_show(capsys, argv, expected):
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    if expected[-1] == "...":
        expected = expected[:-1]
        lines = lines[: len(expected)]
    assert lines == expected


def test_readme_suite_synopsis_matches_cli():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (listed,) = re.findall(r"--suite \{([^}]*)\}", readme.read_text())
    assert tuple(listed.split("|")) == cli.SUITES
