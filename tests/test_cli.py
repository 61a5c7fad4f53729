import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from comlie import cli
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
            "--maxdeg", "16", "--cache-dir", str(tmp_path)]
    _, fresh, _ = run(capsys, argv)
    (cache_file,) = tmp_path.iterdir()
    canonical = cache_file.read_text()
    cache_file.write_text(canonical[:20])
    code, out, err = run(capsys, argv)
    assert code == 0 and out == fresh and err == ""
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
        cli.poincare, "verify_product_relation", lambda group, trunc: failing
    )
    code, out, _ = run(
        capsys, ["verify", "--suite", "product", "--group", "u", "--rank", "2"]
    )
    assert code == 1
    assert out.startswith("FAIL")


def test_poset_table(capsys):
    code, out, _ = run(capsys, ["poset", "--rank", "3"])
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 4  # header plus one row per partition of 3
    code, out, _ = run(capsys, ["poset", "--rank", "2", "--format", "json"])
    rows = json.loads(out)
    assert {"shape": [2], "flag_poincare": "1", "real_dimension": 0,
            "stabilizer_order": 1} in rows


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


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["series", "--group", "u", "--what", "nonsense"])
    assert excinfo.value.code == 2


def test_cli_import_leaves_multisym_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, comlie.cli; print('comlie.multisym' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_readme_suite_synopsis_matches_cli():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (listed,) = re.findall(r"--suite \{([^}]*)\}", readme.read_text())
    assert tuple(listed.split("|")) == cli.SUITES
