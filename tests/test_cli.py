import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasifix
from oracles import oracle_quasi_fixed
from quasifix import dynamics, gf, poly
from quasifix.certify import certificate_from_bytes, verify_certificate
from quasifix.cli import build_parser, main
from quasifix.poly import PolyMap


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quasifixed_matches_oracle(capsys):
    code, out, _ = run_cli(capsys, "quasifixed", "--p", "2", "--n", "1",
                           "--map", "x1^2", "--smax", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == len(data["witnesses"])
    got = {(w["s"], w["m"], tuple(tuple(c) for c in w["point"]))
           for w in data["witnesses"]}
    expected = oracle_quasi_fixed(PolyMap.parse(["x1^2"], 1, 2), 3)
    assert got == expected


def test_quasifixed_identity_lists_all_points(capsys):
    code, out, _ = run_cli(capsys, "quasifixed", "--p", "2", "--n", "1",
                           "--map", "x1", "--smax", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 10  # 2 + 2 + 6 minimal-degree points


def test_quasifixed_malformed_polynomial(capsys):
    code, _, err = run_cli(capsys, "quasifixed", "--p", "2", "--n", "1",
                           "--map", "x1^^2")
    assert code == 2
    assert "error:" in err


def test_quasifixed_map_echo_reparses(capsys):
    code, out, _ = run_cli(capsys, "quasifixed", "--p", "3", "--n", "2",
                           "--map", "x1*x2+2, x2^2", "--smax", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    echoed = PolyMap.parse(data["map"], 2, 3)
    assert echoed == PolyMap.parse(["x1*x2+2", "x2^2"], 2, 3)


def test_density_identity_map(capsys):
    code, out, _ = run_cli(capsys, "density", "--p", "3", "--n", "1",
                           "--map", "x1", "--w", "x1", "--smax", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["found"] and data["witness"]["point"] == [[1]]


def test_density_not_found_reports_frontier(capsys):
    code, out, _ = run_cli(capsys, "density", "--p", "3", "--n", "1",
                           "--map", "x1^2", "--w", "x1^2+2*x1", "--smax", "3",
                           "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert not data["found"] and data["frontier"]["smax_scanned"] == 3


def test_density_squaring_found_at_degree_four(capsys):
    code, out, _ = run_cli(capsys, "density", "--p", "3", "--n", "1",
                           "--map", "x1^2", "--w", "x1^2+2*x1", "--smax", "4",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["witness"]["s"] == 4 and data["witness"]["m"] == 3


def test_iq_command(capsys):
    code, out, _ = run_cli(capsys, "iq", "--p", "2", "--n", "1",
                           "--map", "x1^2", "--q", "4", "--j", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 4
    assert data["congruence"] == {"1": True, "2": True}


def test_iq_two_variables(capsys):
    code, out, _ = run_cli(capsys, "iq", "--p", "3", "--n", "2",
                           "--map", "x1*x2,x1+x2", "--q", "3", "--j", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 9 and all(data["congruence"].values())


def test_iq_rejects_small_q(capsys):
    code, _, err = run_cli(capsys, "iq", "--p", "2", "--n", "1",
                           "--map", "x1^2", "--q", "2")
    assert code == 2 and "error:" in err


def test_iq_q_zero_is_a_usage_error():
    # in a child process, so a hang fails after 10 s instead of stalling the suite
    env = dict(os.environ, PYTHONPATH=str(Path(quasifix.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "quasifix.cli", "iq", "--p", "2", "--n", "1",
         "--map", "x1", "--q", "0"],
        capture_output=True, text=True, timeout=10, env=env)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: Q = 0 is not a positive power of the characteristic 2\n"


def test_import_builds_no_parser_and_no_field():
    # the benchmark's setup_s times `import quasifix.cli` in a fresh interpreter:
    # the parser and the fields are built on first use, never at import
    env = dict(os.environ, PYTHONPATH=str(Path(quasifix.__file__).resolve().parents[1]))
    probe = ("import quasifix.cli, quasifix.gf; "
             "print(quasifix.cli.build_parser.cache_info().currsize, "
             "len(quasifix.gf._FIELDS))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, timeout=30, env=env)
    assert (result.returncode, result.stdout) == (0, "0 0\n"), result.stderr


def test_iq_term_budget_is_a_usage_error(capsys, monkeypatch):
    # products in the quotient of this system reach 7 x 7 terms, past a budget of 32
    monkeypatch.setattr(poly, "DEFAULT_TERM_BUDGET", 32)
    code, out, err = run_cli(capsys, "iq", "--p", "2", "--n", "1",
                             "--map", "x1^7+x1^3+1", "--q", "8", "--j", "5")
    assert code == 2 and out == "" and err.startswith("error:") and "over budget" in err


def test_iq_fifth_iterate_within_default_budget(capsys):
    # unreduced, the fifth iterate has degree 7^5 and its product overran the budget
    code, out, _ = run_cli(capsys, "iq", "--p", "2", "--n", "1", "--map", "x1^7+x1^3+1",
                           "--q", "8", "--j", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["congruence"] == {str(j): True for j in range(1, 6)}


def test_fold_command(capsys):
    code, out, _ = run_cli(capsys, "fold", "--k", "2", "ab", "ba",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_fold_noninjective_example(capsys):
    code, out, _ = run_cli(capsys, "fold", "--k", "2", "a", "a",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["rank"] == 1


def test_certify_and_verify_roundtrip(capsys, tmp_path):
    endo = tmp_path / "bs12.json"
    endo.write_text(json.dumps({"rank": 1, "images": ["aa"]}))
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "--endo", str(endo),
                           "--word", "a", "--out", str(cert_path),
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["found"] and data["verdict"]["passed"]
    cert = certificate_from_bytes(cert_path.read_bytes())
    assert verify_certificate(cert).passed

    code, out, _ = run_cli(capsys, "verify", str(cert_path), "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"]["passed"]
    # certify reports the search's verdict; it must be the one verify gives
    assert json.loads(out)["verdict"] == data["verdict"]


def test_certify_deterministic_bytes(capsys, tmp_path):
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps({"rank": 2, "images": ["ab", "ba"]}))
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        code, _, _ = run_cli(capsys, "certify", "--endo", str(endo),
                             "--word", "ab", "--seed", "7", "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_tampered_exit_code(capsys, tmp_path):
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps({"rank": 1, "images": ["aa"]}))
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--endo", str(endo), "--word", "a",
            "--out", str(cert_path))
    data = json.loads(cert_path.read_text())
    data["period"] += 1
    cert_path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(cert_path), "--format", "json")
    assert code == 1
    assert not json.loads(out)["verdict"]["passed"]


def test_verify_malformed_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2 and "error:" in err


def test_certify_refuses_noninjective(capsys, tmp_path):
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps({"rank": 2, "images": ["a", "a"]}))
    code, _, err = run_cli(capsys, "certify", "--endo", str(endo), "--word", "a",
                           "--out", str(tmp_path / "c.json"))
    assert code == 2 and "not injective" in err


def test_certify_refuses_a_word_past_the_work_cap(capsys, tmp_path):
    # no certificate for this word could pass the verifier's work cap
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps({"rank": 1, "images": ["a"]}))
    code, _, err = run_cli(capsys, "certify", "--endo", str(endo), "--word", "a" * 2**18,
                           "--out", str(tmp_path / "c.json"))
    assert code == 2 and "work cap 262144" in err
    assert not (tmp_path / "c.json").exists()


def test_certify_rejects_malformed_endo(capsys, tmp_path):
    # a string of images is refused, not split into one-letter images
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps({"rank": 2, "images": "ab"}))
    code, _, err = run_cli(capsys, "certify", "--endo", str(endo), "--word", "a",
                           "--out", str(tmp_path / "c.json"))
    assert code == 2 and "error:" in err
    assert not (tmp_path / "c.json").exists()


def test_certify_rejects_deeply_nested_endo(capsys, tmp_path):
    endo = tmp_path / "endo.json"
    endo.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run_cli(capsys, "certify", "--endo", str(endo), "--word", "a",
                           "--out", str(tmp_path / "c.json"))
    assert code == 2 and "nested too deeply" in err


@pytest.mark.parametrize("argv", [
    ["quasifixed", "--p", "2", "--n", "1", "--map", "x1", "--smax", "-3"],
    ["density", "--p", "2", "--n", "1", "--map", "x1", "--smax", "0", "--w", "x1"],
    ["certify", "--word", "a", "--smax", "0"],
    ["certify", "--word", "a", "--seeds", "0"],
    ["certify", "--word", "a", "--budget", "-5"],
    ["iq", "--p", "2", "--n", "1", "--map", "x1", "--q", "4", "--j", "-2"],
    ["fold", "--k", "-1", ""],
    ["fold", "--k", "0", ""],
], ids=["quasifixed--3", "density-0", "certify-smax-0", "certify-seeds-0",
        "certify-budget--5", "iq-j--2", "fold-k--1", "fold-k-0"])
def test_smax_below_one_rejected(capsys, tmp_path, argv):
    # a count option below 1 is a usage error, never an empty or "not found" answer
    if argv[0] == "certify":
        endo = tmp_path / "endo.json"
        endo.write_text(json.dumps({"rank": 2, "images": ["ab", "ba"]}))
        argv = argv + ["--endo", str(endo), "--out", str(tmp_path / "c.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and ">= 1" in err
    assert not (tmp_path / "c.json").exists()


def test_text_format_mirrors_json(capsys):
    code, text_out, _ = run_cli(capsys, "iq", "--p", "2", "--n", "1",
                                "--map", "x1^2", "--q", "4", "--j", "1")
    assert code == 0
    assert "dimension: 4" in text_out
    assert "congruence:" in text_out and "1: true" in text_out


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QUASIFIX_CAP", "4")
    code, _, err = run_cli(capsys, "quasifixed", "--p", "2", "--n", "1",
                           "--map", "x1^2", "--smax", "3")
    assert code == 2 and "cap" in err

    monkeypatch.setenv("QUASIFIX_CAP", "not-a-number")
    code, _, err = run_cli(capsys, "quasifixed", "--p", "2", "--n", "1",
                           "--map", "x1^2", "--smax", "1")
    assert code == 2


def test_verify_honours_cap_env_above_default(capsys, monkeypatch, tmp_path):
    # a valid certificate over F_{1031^2} (order above the default cap 2^20):
    # identity endomorphism of rank 1, w = a, period 1
    one, zero, x = [1, 0], [0, 0], [0, 1]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({
        "format_version": 1, "rank": 1, "images": ["a"], "word": "a",
        "p": 1031, "s": 2, "period": 1, "tuple": [[one, x, zero, one]],
        "trace": [[[one, x, zero, one]]], "metadata": {"seed": 0}}))
    monkeypatch.setenv("QUASIFIX_CAP", "4194304")
    code, out, _ = run_cli(capsys, "verify", str(cert_path), "--format", "json")
    assert code == 0 and json.loads(out)["verdict"]["passed"]


def test_output_file_option(capsys, tmp_path):
    out_file = tmp_path / "witnesses.json"
    code, out, _ = run_cli(capsys, "quasifixed", "--p", "2", "--n", "1",
                           "--map", "x1^2", "--smax", "2", "--format", "json",
                           "--out", str(out_file))
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())["count"] >= 1


def test_quasifixed_refuses_past_cap_before_enumerating(capsys, monkeypatch):
    # every degree up to --smax is checked against the caps before any field
    # is built, so nothing is enumerated only to be thrown away
    created = []
    real = dynamics.field_create
    monkeypatch.setattr(dynamics, "field_create",
                        lambda p, s, *rest: created.append((p, s)) or real(p, s, *rest))
    monkeypatch.setenv("QUASIFIX_CAP", "343")
    code, out, err = run_cli(capsys, "quasifixed", "--p", "7", "--n", "1",
                             "--map", "x1", "--smax", "8")
    assert code == 2 and out == "" and err == "error: field order 7^4 exceeds cap 343\n"
    assert created == []


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quasifixed", "--p", "2"])  # missing required flags
    assert exc.value.code == 2


def test_density_stops_at_first_degree_past_cap(capsys, monkeypatch):
    # no witness avoids W = {x1 = 0}, and F_{2^7} is past the cap: the scan of
    # degrees 1..6 is reported as not found instead of thrown away
    monkeypatch.setenv("QUASIFIX_CAP", "64")
    code, out, err = run_cli(capsys, "density", "--p", "2", "--n", "1", "--map", "x1",
                             "--w", "0", "--smax", "8", "--format", "json")
    assert code == 1 and err == ""
    data = json.loads(out)
    assert not data["found"] and data["smax"] == 8
    assert data["frontier"] == {"smax_scanned": 6, "order_cap": 64,
                                "stopped_by": "field order 2^7 exceeds cap 64"}

    monkeypatch.setenv("QUASIFIX_CAP", "2")  # F_3 itself is past the cap
    code, out, _ = run_cli(capsys, "density", "--p", "3", "--n", "1", "--map", "x1",
                           "--w", "0", "--smax", "2", "--format", "json")
    assert code == 1
    assert json.loads(out)["frontier"] == {"smax_scanned": 0, "order_cap": 2,
                                           "stopped_by": "field order 3^1 exceeds cap 2"}


def test_parser_keeps_no_state_between_calls(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("endo.json").write_text(json.dumps({"rank": 2, "images": ["ab", "ba"]}))
    certify = ["certify", "--endo", "endo.json", "--word", "a"]
    assert run_cli(capsys, *certify, "--seed", "5", "--out", "a.json")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--seed", "x"])
    assert exc.value.code == 2
    assert run_cli(capsys, *certify)[0] == 0
    assert json.loads(Path("a.json").read_text())["metadata"]["seed"] == 5
    assert json.loads(Path("certificate.json").read_text())["metadata"]["seed"] == 0

    assert run_cli(capsys, "verify", "a.json", "--out", "f") == (0, "", "")
    with pytest.raises(SystemExit):
        main(["verify"])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "verify", "a.json")
    assert code == 0 and out == Path("f").read_text()


def test_help_text_unchanged(capsys, monkeypatch):
    # the top-level help and that of every subcommand, as the CLI printed them
    # when it still built a new parser on every call (Python 3.11)
    monkeypatch.setenv("COLUMNS", "80")
    h = hashlib.sha256()
    for cmd in ([], ["quasifixed"], ["density"], ["iq"], ["fold"], ["certify"], ["verify"]):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--help"])
        assert exc.value.code == 0
        h.update(capsys.readouterr().out.encode() + b"\0")
    assert h.hexdigest() == (
        "87db9bb035a17d483091a56b7e41a8df03605bf4b70bed23ccdc9dab1b01541f")


# (QUASIFIX_CAP or None, argv) steps; a step's files are read back after its unit
WARM_UNITS = [
    [(None, ["quasifixed", "--p", "3", "--n", "2", "--map", "x1*x2+2,x2^2",
             "--smax", "2", "--format", "json"])],
    [(None, ["density", "--p", "3", "--n", "1", "--map", "x1^2",
             "--w", "x1^2+2*x1", "--smax", "4"])],
    [(None, ["certify", "--endo", "endo.json", "--word", "ab", "--seed", "3",
             "--out", "cert.json"]),
     (None, ["verify", "cert.json", "--format", "json"])],
    [(None, ["iq", "--p", "3", "--n", "2", "--map", "x1*x2,x1+x2", "--q", "3",
             "--j", "2"])],
    [(None, ["quasifixed", "--p", "2", "--n", "1", "--map", "x1^3+x1", "--smax", "6"])],
    # caps are checked on every call, also against fields kept from earlier jobs
    [(None, ["certify", "--endo", "endo.json", "--word", "a", "--out", "capped.json"]),
     ("4", ["verify", "capped.json"]),
     ("4", ["quasifixed", "--p", "2", "--n", "1", "--map", "x1", "--smax", "3"]),
     ("64", ["density", "--p", "2", "--n", "1", "--map", "x1", "--w", "0",
             "--smax", "8"])],
]


def _run_unit(capsys, monkeypatch, unit):
    results = []
    for cap, argv in unit:
        if cap is None:
            monkeypatch.delenv("QUASIFIX_CAP", raising=False)
        else:
            monkeypatch.setenv("QUASIFIX_CAP", cap)
        results.append(run_cli(capsys, *argv))
    monkeypatch.delenv("QUASIFIX_CAP", raising=False)
    for name in ("cert.json", "capped.json"):
        path = Path(name)
        if path.exists():
            results.append((name, path.read_bytes()))
            path.unlink()
    return results


def test_warm_process_matches_fresh_calls(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("endo.json").write_text(json.dumps({"rank": 2, "images": ["ab", "ba"]}))
    fresh = []
    for unit in WARM_UNITS:
        build_parser.cache_clear()
        gf._FIELDS.clear()
        fresh.append(_run_unit(capsys, monkeypatch, unit))
    assert [unit[0][0] for unit in fresh] == [0] * len(WARM_UNITS)
    capped = fresh[-1]
    assert [step[0] for step in capped[1:4]] == [1, 2, 1]
    assert capped[2][2] == "error: field order 2^3 exceeds cap 4\n"
    for order in (range(len(WARM_UNITS)), reversed(range(len(WARM_UNITS)))):
        for i in order:
            assert _run_unit(capsys, monkeypatch, WARM_UNITS[i]) == fresh[i], WARM_UNITS[i]
