import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from comlie import cli, poincare, repa, toriposet
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


@pytest.mark.parametrize("what", ["bg", "stable"])
def test_series_oracle_outside_ecom_bcom_is_refused_before_computing(
        capsys, tmp_path, monkeypatch, what):
    def refuse(*args):
        raise AssertionError("computed a series")

    for name in ("bg_series", "stable_bcom"):
        monkeypatch.setattr(poincare, name, refuse)
    code, out, err = run(capsys, ["series", "--group", "u", "--rank", "3",
                                  "--what", what, "--oracle",
                                  "--cache-dir", str(tmp_path)])
    assert (code, out) == (2, "")
    assert "--oracle applies to --what ecom|bcom" in err
    assert list(tmp_path.iterdir()) == []


def test_series_cap_exceeded_suggests_oracle(capsys):
    code, _, err = run(
        capsys, ["series", "--group", "u", "--rank", "10", "--what", "ecom"]
    )
    assert code == 3
    assert "--oracle" in err


@pytest.mark.parametrize("group", ["u", "su", "sp"])
def test_series_bg_at_a_huge_rank_expands_only_the_low_degrees(capsys, group):
    # no invariant degree beyond maxdeg / 2 reaches the series, so a rank
    # of 10**8 costs what rank 20 does and prints the same coefficients
    def coeffs(rank):
        code, out, _ = run(capsys, ["series", "--group", group, "--rank",
                                    str(rank), "--what", "bg", "--maxdeg",
                                    "40", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == rank
        return payload["series"]["coeffs"]

    assert coeffs(100_000_000) == coeffs(20)


@pytest.mark.parametrize("group, rank, maxdeg", [
    ("u", 52, 0),          # p(52) = 281 589 classes at the least truncation
    ("su", 10**6, 0),      # counting stops long before the rank
    ("sp", 28, 2),
    ("u", 25, 52_000),     # 1 958 classes at a large truncation
])
def test_oracle_past_its_cost_bound_is_refused_before_any_class(
    capsys, monkeypatch, group, rank, maxdeg
):
    from comlie import coinvariants

    made = []

    def spy(group_spec):
        made.append(group_spec)
        return iter(())

    monkeypatch.setattr(coinvariants, "conjugacy_classes", spy)
    code, out, err = run(capsys, [
        "series", "--group", group, "--rank", str(rank), "--what", "ecom",
        "--maxdeg", str(maxdeg), "--oracle"])
    assert (code, out, made) == (3, "", [])
    assert err.endswith(f"is estimated past {coinvariants.MAX_ORACLE_COST} steps "
                        "(MAX_ORACLE_COST)\n")
    assert "rerun" not in err


def test_oracle_cost_counts_the_classes_the_oracle_sums():
    from comlie import coinvariants

    for family, ranks in (("u", range(1, 13)), ("sp", range(1, 7))):
        for n in ranks:
            group = poincare.GroupSpec(family, n)
            classes = sum(1 for _ in coinvariants.conjugacy_classes(group))
            assert coinvariants._oracle_cost(group, 7) == classes * 203, group
    # just inside and outside the bound at the least truncation
    cost, bound = coinvariants._oracle_cost, coinvariants.MAX_ORACLE_COST
    assert cost(poincare.GroupSpec("u", 51), 0) <= bound
    assert cost(poincare.GroupSpec("u", 52), 0) > bound
    # the largest oracle request of the benchmark streams is far inside it
    assert cost(poincare.GroupSpec("u", 19), 478) <= bound // 100
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert ("(`coinvariants.MAX_ORACLE_COST`)"
            in " ".join(readme.read_text().split()))


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
    argv = ["series", "--group", "u", "--rank", "3", "--what", "ecom",
            "--maxdeg", "12"]
    _, fresh, _ = run(capsys, argv)
    # the cache directory is a file
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    # the cache path is a directory, so renaming the temporary file fails
    cache_dir = tmp_path / "cache"
    run(capsys, argv + ["--cache-dir", str(cache_dir)])
    (cache_file,) = cache_dir.iterdir()
    cache_file.unlink()
    cache_file.mkdir()
    for location in (afile, cache_dir):
        code, out, err = run(capsys, argv + ["--cache-dir", str(location)])
        assert code == 0 and out == fresh, location
        assert len(err.splitlines()) == 1 and err.startswith("warning:")
        assert list(tmp_path.rglob("*.tmp")) == [], location
    assert afile.read_text() == "not a directory"
    assert [p.name for p in cache_dir.iterdir()] == [cache_file.name]
    assert cache_file.is_dir() and not any(cache_file.iterdir())


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
    # _dumps sorts keys; the record itself lists its fields in order
    assert out == ('[{"detail": "both identities exact", "first_mismatch": null, '
                   '"name": "fake degree identities n=4", "passed": true}]\n')
    assert list(json.loads(out)[0]) == ["detail", "first_mismatch", "name",
                                        "passed"]
    assert list(CheckReport("x", True)._asdict()) == [
        "name", "passed", "detail", "first_mismatch"]


def test_verify_json_failure_carries_the_first_mismatch(capsys, monkeypatch):
    from comlie import coinvariants
    from comlie.qseries import TruncatedSeries

    oracle_bcom = coinvariants.oracle_bcom

    def off_at_degree_6(group, trunc):
        coeffs = list(oracle_bcom(group, trunc).coeffs)
        coeffs[6] += 1
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(coinvariants, "oracle_bcom", off_at_degree_6)
    argv = ["verify", "--suite", "oracle", "--group", "u", "--rank", "2",
            "--maxdeg", "10"]
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 1
    assert out == (
        '[{"detail": "", "first_mismatch": null, '
        '"name": "oracle fiber series U(2)", "passed": true}, '
        '{"detail": "", "first_mismatch": 6, '
        '"name": "oracle base series U(2)", "passed": false}]\n')
    assert [CheckReport(**obj) for obj in json.loads(out)] == [
        CheckReport("oracle fiber series U(2)", True),
        CheckReport("oracle base series U(2)", False, first_mismatch=6)]
    assert run(capsys, argv) == (1, (
        "PASS oracle fiber series U(2)\n"
        "FAIL oracle base series U(2) (first mismatch at degree 6)\n"), "")


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


@pytest.mark.parametrize("maxdeg", ["99999999999999999999", "10000000000",
                                    str(cli.MAX_DEGREE + 1)])
@pytest.mark.parametrize("argv", [
    ["series", "--group", "u", "--rank", "2", "--what", "ecom"],
    ["catalog", "--family", "u"],
    ["verify", "--suite", "oracle", "--group", "u", "--rank", "2"],
], ids=lambda argv: argv[0])
def test_maxdeg_past_the_bound_is_a_usage_error(capsys, argv, maxdeg):
    code, out, err = run(capsys, argv + ["--maxdeg", maxdeg])
    assert (code, out, err) == (
        2, "", f"error: --maxdeg must be <= {cli.MAX_DEGREE}\n")


def test_maxdeg_bound_is_accepted_and_documented(capsys):
    code, out, _ = run(capsys, ["series", "--group", "u", "--rank", "2",
                                "--what", "ecom", "--format", "json",
                                "--maxdeg", str(cli.MAX_DEGREE)])
    assert code == 0
    assert json.loads(out)["series"]["trunc"] == cli.MAX_DEGREE
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert (f"above {cli.MAX_DEGREE} (`cli.MAX_DEGREE`)"
            in " ".join(readme.read_text().split()))


@pytest.mark.parametrize("argv", [
    ["series", "--group", "u", "--what", "stable"],
    ["catalog", "--family", "sp"],
], ids=lambda argv: argv[0])
def test_stable_maxdeg_past_its_bound_is_refused_before_the_catalog(
    capsys, monkeypatch, argv
):
    catalog = poincare.generator_catalog
    built = []

    def small_catalog(family, max_degree):
        built.append(max_degree)
        return catalog(family, 8)

    monkeypatch.setattr(poincare, "generator_catalog", small_catalog)
    bound = cli.MAX_STABLE_DEGREE
    code, out, err = run(capsys, argv + ["--maxdeg", str(bound + 1)])
    assert (code, out, built) == (2, "", [])
    assert err == (f"error: --maxdeg must be <= {bound} (MAX_STABLE_DEGREE) "
                   "for the stable catalog\n")
    code, _, _ = run(capsys, argv + ["--maxdeg", str(bound)])
    assert (code, built) == (0, [bound])
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert (f"above {bound} (`cli.MAX_STABLE_DEGREE`)"
            in " ".join(readme.read_text().split()))


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


def test_fakedeg_above_the_cap_refuses_before_any_fake_degree(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(repa, "fake_degree",
                        lambda shape: built.append(shape))
    code, out, err = run(
        capsys, ["verify", "--suite", "fakedeg", "--group", "u", "--rank", "30"])
    assert (code, out, built) == (3, "", [])
    assert err == ("error: 'sym' enumeration supports 1 <= n <= 9, got n=30; "
                   "the coinvariants oracle covers larger ranks\n")


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


def test_poset_rank_past_its_bound_is_refused_before_the_table(
    capsys, monkeypatch
):
    components = toriposet.components
    built = []

    def small_components(n):
        built.append(n)
        return components(2)

    monkeypatch.setattr(toriposet, "components", small_components)
    bound = cli.MAX_POSET_RANK
    code, out, err = run(capsys, ["poset", "--rank", str(bound + 1)])
    assert (code, out, built) == (2, "", [])
    assert err == (f"error: --rank must be <= {bound} (MAX_POSET_RANK) "
                   "for the poset table\n")
    code, _, _ = run(capsys, ["poset", "--rank", str(bound), "--format", "csv"])
    assert (code, built) == (0, [bound])
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert (f"above {bound} (`cli.MAX_POSET_RANK`)"
            in " ".join(readme.read_text().split()))


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


#: In-process calls that reuse one parser: argparse usage errors, --version,
#: a series in each format, a verify, and a usage error of a command.
REUSE_ARGVS = [
    ["series", "--group", "u", "--what", "nonsense"],
    ["--version"],
    *(["series", "--group", "sp", "--rank", "2", "--what", "bcom",
       "--maxdeg", "12", "--format", fmt] for fmt in ("json", "csv", "text")),
    ["verify", "--suite", "oracle", "--group", "su", "--rank", "3",
     "--maxdeg", "20"],
    ["bogus"],
    ["series", "--group", "u"],
    ["series", "--group", "sp", "--rank", "2", "--what", "bcom",
     "--maxdeg", "12", "--format", "json"],
]


def _run_catching_exit(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call_as_a_fresh_process(capsys, monkeypatch):
    # argparse wraps usage lines to the terminal width; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    in_process = [_run_catching_exit(capsys, argv) for argv in REUSE_ARGVS]
    assert len(built) == 1
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0, 0, 0, 2, 2, 0]

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv, got in zip(REUSE_ARGVS, in_process):
        proc = subprocess.run([sys.executable, "-m", "comlie", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv


@pytest.mark.parametrize("suite, group, rank, maxdeg, smaller", [
    ("basis", "u", 3, 12, 6),
    ("basis", "sp", 2, 16, 10),
    ("generation", "su", 3, 10, 4),
    ("generation", "sp", 2, 12, 8),
])
def test_verify_in_one_process_matches_fresh_processes(
        capsys, suite, group, rank, maxdeg, smaller):
    # cold, warm and after a smaller --maxdeg, the memoised ranks give what
    # a fresh process prints
    from comlie import multisym

    for obj in vars(multisym).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for deg in (maxdeg, maxdeg, smaller):
        argv = ["verify", "--suite", suite, "--group", group, "--rank",
                str(rank), "--maxdeg", str(deg)]
        code, out, _ = run(capsys, argv)
        proc = subprocess.run([sys.executable, "-m", "comlie", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (code, out) == (proc.returncode, proc.stdout), argv
        assert code == 0 and out.startswith("PASS")


def test_commands_are_looked_up_at_call_time(capsys, monkeypatch):
    argv = ["series", "--group", "u", "--rank", "2", "--maxdeg", "4"]
    assert run(capsys, argv)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_series", lambda args: seen.append(args) or 7)
    assert run(capsys, argv) == (7, "", "")
    assert [(a.command, a.group, a.rank) for a in seen] == [("series", "u", 2)]


MATH_MODULES = {f"comlie.{name}" for name in (
    "poincare", "coinvariants", "qseries", "repa", "toriposet", "weylcomb",
    "multisym")}

#: Costly standard-library modules no command needs: ``dataclasses`` pulls
#: in ``inspect``, ``ast``, ``dis`` and ``tokenize``.
HEAVY_STDLIB = {"dataclasses", "inspect"}

# the snapshot leaves out whatever the interpreter's ``site`` preloaded
_FOOTPRINT_PROBE = """
import json, sys
before = set(sys.modules)
import comlie.cli
argv = json.loads(sys.argv[1])
if argv is not None:
    try:
        comlie.cli.main(argv)
    except SystemExit:
        pass
sys.stderr.write(json.dumps(sorted(set(sys.modules) - before)))
"""


def _math_modules_loaded(argv: list[str] | None) -> set[str]:
    """Math modules, and the costly standard-library ones, that a fresh
    interpreter loads by importing comlie.cli and, unless ``argv`` is None,
    running the command ``argv``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(cli.CACHE_ENV_VAR, None)
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, json.dumps(argv)], env=env,
        capture_output=True, text=True, check=True)
    return (MATH_MODULES | HEAVY_STDLIB).intersection(json.loads(result.stderr))


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


@pytest.mark.parametrize("argv", [
    ["series", "--group", "u", "--rank", "4", "--what", "bcom"],
    ["series", "--group", "su", "--rank", "12", "--what", "ecom", "--oracle"],
    ["series", "--group", "sp", "--rank", "3", "--what", "bg"],
    ["series", "--group", "u", "--what", "stable"],
    ["verify", "--suite", "all", "--group", "u", "--rank", "3",
     "--format", "json"],
    ["poset", "--rank", "5"],
    ["catalog", "--family", "u", "--maxdeg", "10"],
], ids=["closed-miss", "oracle-miss", "bg-miss", "stable-miss", "verify",
        "poset", "catalog"])
def test_commands_load_neither_dataclasses_nor_inspect(tmp_path, argv):
    if argv[0] == "series":
        argv = argv + ["--maxdeg", "20", "--cache-dir", str(tmp_path)]
    assert not _math_modules_loaded(argv) & HEAVY_STDLIB
    if argv[0] == "series":
        assert len(list(tmp_path.iterdir())) == 1  # a miss, and written


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
