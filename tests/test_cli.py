import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import quasifix
from oracles import naive_eval, naive_frobenius, oracle_quasi_fixed
from quasifix import cli, dynamics, gf, poly
from quasifix.certify import (MAX_CERTIFICATE_BYTES, MAX_VERIFY_WORK, certificate_from_bytes,
                              verify_certificate, verify_work)
from quasifix.cli import SUBCOMMANDS, _reader, _render_json, build_parser, main
from quasifix.poly import MPoly, PolyMap


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


def test_quasifixed_refuses_a_space_between_digits(capsys):
    # read with the space dropped, the map would be x1^10
    code, out, err = run_cli(capsys, "quasifixed", "--p", "2", "--n", "1",
                             "--map", "x1^1 0", "--smax", "2")
    assert (code, out) == (2, "")
    assert err == "error: space between digits in factor 'x1^1 0' of 'x1^1 0'\n"


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


def test_density_answers_for_a_huge_exponent_in_w_and_v(capsys):
    # evaluating x1^e at a point used to build every power up to e first
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "density", "--p", "2", "--n", "1", "--map", "x1",
                           "--w", "x1^99999999999+1", "--v", "x1^99999999999+x1",
                           "--smax", "2", "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["witness"]["point"] == [[0]]


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


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("extra", [["quasifixed"], ["density", "--w", "0"], ["iq", "--q", "4"]],
                         ids=["quasifixed", "density", "iq"])
def test_variable_count_below_one_is_named(capsys, extra, n):
    code, out, err = run_cli(capsys, extra[0], "--p", "2", "--n", n, "--map", "x1", *extra[1:])
    assert (code, out, err) == (2, "", f"error: number of variables must be >= 1, got {n}\n")


@pytest.mark.parametrize("bits", [7000, 7200])
def test_iq_dimension_past_the_digit_limit_is_refused_first(capsys, monkeypatch, bits):
    # Q^2 = 2^14000 has 4215 digits and is printed; 2^14400 has 4335, past Python's
    # 4300-digit limit, and is refused before any congruence is checked
    checked = []
    check = poly.IqSystem.iterate_congruence_check
    monkeypatch.setattr(poly.IqSystem, "iterate_congruence_check",
                        lambda system, j: checked.append(j) or check(system, j))
    code, out, err = run_cli(capsys, "iq", "--p", "2", "--n", "2", "--map", "x1,x2",
                             "--q", str(2**bits), "--j", "2", "--format", "json")
    if bits == 7000:
        assert (code, err, checked) == (0, "", [1, 2])
        assert json.loads(out)["dimension"] == 2**14000
    else:
        assert (code, out, checked) == (2, "", [])
        assert err == ("error: the dimension Q^n has more than 4300 digits, the interpreter's "
                       "limit for printing an integer (sys.get_int_max_str_digits())\n")


def test_iq_q_zero_is_a_usage_error():
    # in a child process, so a hang fails after 10 s instead of stalling the suite
    env = dict(os.environ, PYTHONPATH=str(Path(quasifix.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "quasifix.cli", "iq", "--p", "2", "--n", "1",
         "--map", "x1", "--q", "0"],
        capture_output=True, text=True, timeout=10, env=env)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: Q = 0 is not a positive power of the characteristic 2\n"


BIG_PRIME = "1000000000000000003"


@pytest.mark.parametrize("argv", [
    ("quasifixed", "--p", "100000000000000003", "--n", "1", "--map", "x1", "--smax", "1"),
    ("quasifixed", "--p", BIG_PRIME, "--n", "1", "--map", "x1", "--smax", "1"),
    ("iq", "--p", BIG_PRIME, "--n", "1", "--map", "x1", "--q", "4"),
])
def test_large_characteristic_is_refused_in_bounded_time(capsys, argv):
    # the primality test of --p used to run trial division to sqrt(p) first
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.startswith("error:")


def test_iq_answers_for_a_large_characteristic(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "iq", "--p", BIG_PRIME, "--n", "1", "--map", "x1",
                           "--q", BIG_PRIME, "--j", "2", "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["congruence"] == {"1": True, "2": True}


def test_characteristic_past_the_bound_is_refused(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "quasifixed", "--p", str(2**89 - 1), "--n", "1",
                             "--map", "x1", "--smax", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "2^64" in err


def test_import_builds_no_parser_and_no_field(tmp_path):
    # the benchmark's setup_s times `import quasifix.cli` in a fresh interpreter:
    # the parser tree and the fields are built on first use, never at import; a
    # canonical argv builds no parser and loads neither argparse nor the gettext
    # it imports, and any other builds the one tree
    (tmp_path / "endo.json").write_text(json.dumps({"rank": 2, "images": ["ab", "ba"]}))
    env = dict(os.environ, PYTHONPATH=str(Path(quasifix.__file__).resolve().parents[1]))
    probe = ("import contextlib, io, sys, quasifix.cli as cli, quasifix.gf as gf\n"
             "def built(): return cli.build_parser.cache_info().currsize\n"
             "def loaded(): return sorted({'argparse', 'gettext'} & set(sys.modules))\n"
             "print(built(), len(gf._FIELDS), loaded())\n"
             "iq = ['iq', '--p', '2', '--n', '1', '--map', 'x1', '--q', '4']\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(iq)\n"
             "print(code, built(), loaded())\n"
             "jobs = [['quasifixed', '--p', '3', '--n', '1', '--map', 'x1^2', '--smax', '2'],\n"
             "        ['density', '--p', '3', '--n', '1', '--map', 'x1^2', '--w', 'x1'],\n"
             "        ['certify', '--endo', 'endo.json', '--word', 'ab', '--out', 'c.json'],\n"
             "        ['verify', 'c.json', '--format', 'json']]\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [cli.main(job) for job in jobs]\n"
             "print(codes, built(), loaded())\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(iq + ['--format=json'])\n"
             "print(code, built(), 'argparse' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, timeout=30, env=env, cwd=tmp_path)
    assert (result.returncode, result.stdout) == (
        0, "0 0 []\n0 0 []\n[0, 0, 0, 0] 0 []\n0 1 True\n"), result.stderr


def test_iq_term_budget_is_a_usage_error(capsys, monkeypatch):
    # the composition multiplies powers of f of up to 7 terms by f's 3, past a budget of 16
    monkeypatch.setattr(poly, "DEFAULT_TERM_BUDGET", 16)
    code, out, err = run_cli(capsys, "iq", "--p", "2", "--n", "1",
                             "--map", "x1^7+x1^3+1", "--q", "8", "--j", "5")
    assert code == 2 and out == "" and err.startswith("error:") and "over budget" in err


def test_iq_fifth_iterate_within_default_budget(capsys):
    # unreduced, the fifth iterate has degree 7^5 and its product overran the budget
    code, out, _ = run_cli(capsys, "iq", "--p", "2", "--n", "1", "--map", "x1^7+x1^3+1",
                           "--q", "8", "--j", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["congruence"] == {str(j): True for j in range(1, 6)}


def test_iq_large_q_within_default_budget(capsys):
    # squaring x_i^(Q^(j-1)) to the power 64 multiplied 1095 x 1095 terms, past the budget;
    # the p-th powers of the Frobenius route multiply nothing
    code, out, err = run_cli(capsys, "iq", "--p", "2", "--n", "2",
                             "--map", "x1^3+x2+x1*x2,x1*x2^2+x1+1", "--q", "64", "--j", "5",
                             "--format", "json")
    assert (code, err) == (0, "")
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


def test_fold_of_long_powers_in_bounded_time(capsys):
    # the fold used to re-sort every edge after each merge: 3,000 merges here
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "fold", "--k", "2", "a" * 3000, "a" * 3001,
                           "--format", "json")
    assert time.perf_counter() - start < 2
    assert code == 0 and json.loads(out)["rank"] == 1


def test_fold_refuses_words_past_the_work_cap():
    # the fold holds hundreds of bytes per letter; in a child capped at 64 MB of
    # address space, 2^18 + 1 characters must be refused by name before any
    # word is parsed, not fold until memory runs out
    env = dict(os.environ, PYTHONPATH=str(Path(quasifix.__file__).resolve().parents[1]))
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))\n"
             "from quasifix.cli import main\n"
             "sys.exit(main(['fold', '--k', '2'] + ['ab' * 2**15] * 4 + ['a']))\n")
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, timeout=10, env=env)
    assert time.perf_counter() - start < 1
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("error: words total 262145 characters, past the work cap "
                             "MAX_VERIFY_WORK = 262144\n")


def test_fold_refuses_one_word_past_the_work_cap(capsys):
    code, out, err = run_cli(capsys, "fold", "--k", "1", "a" * (MAX_VERIFY_WORK + 1))
    assert (code, out) == (2, "")
    assert err == ("error: words total 262145 characters, past the work cap "
                   "MAX_VERIFY_WORK = 262144\n")


def test_certify_refuses_raw_text_past_the_work_cap(tmp_path):
    # an image padded with 2^20 cancelling pairs reduces to `a`, but its text is past
    # the work cap: it is refused by that text, before any word is parsed, in a child
    # capped at 64 MB of address space (without the check, all 2^21 + 1 letters were
    # parsed, and the reduced endomorphism searched for and certified)
    (tmp_path / "endo.json").write_text(json.dumps({"rank": 2, "images": ["a" + "bB" * 2**20,
                                                                          "b"]}))
    env = dict(os.environ, PYTHONPATH=str(Path(quasifix.__file__).resolve().parents[1]))
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))\n"
             "from quasifix.cli import main\n"
             "sys.exit(main(['certify', '--endo', 'endo.json', '--word', 'a', "
             "'--out', 'cert.json']))\n")
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, timeout=10, env=env, cwd=tmp_path)
    assert time.perf_counter() - start < 1
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: images and word exceed the verifier's work cap 262144\n"
    assert not (tmp_path / "cert.json").exists()


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


def _capped_child(argv: list[str], cwd, address_space: int) -> tuple:
    """Run the CLI on argv in a child that caps its own address space; its exit
    code, stdout and stderr, wall time and peak RSS in MB (VmHWM, which exec
    resets, unlike the rusage of a child forked from a large process)."""
    env = dict(os.environ, PYTHONPATH=str(Path(quasifix.__file__).resolve().parents[1]))
    probe = ("import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))\n"
             "from quasifix.cli import main\n"
             "try:\n"
             f"    code = main({argv!r})\n"
             "finally:\n"
             "    with open('/proc/self/status') as status:\n"
             "        hwm = next(line for line in status if line.startswith('VmHWM'))\n"
             "    sys.stderr.write(f'{int(hwm.split()[1]) / 1024:.0f}\\n')\n"
             "sys.exit(code)\n")
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=300,
                            env=env, cwd=cwd)
    elapsed = time.perf_counter() - start
    err, _, peak = result.stderr.decode().rstrip("\n").rpartition("\n")
    return result.returncode, result.stdout, err, elapsed, float(peak)


def test_verify_refuses_a_file_past_the_byte_cap(tmp_path):
    # a sparse file one byte past the cap is refused by its size, before a byte
    # of it is read, within 1 s in a child capped at 64 MB of address space
    limit = MAX_CERTIFICATE_BYTES
    assert limit == 67_632_894
    with open(tmp_path / "big.json", "wb") as handle:
        handle.truncate(limit + 1)
    code, out, err, elapsed, _ = _capped_child(["verify", "big.json"], tmp_path, 64 << 20)
    assert elapsed < 1
    assert (code, out) == (2, b"")
    assert err == f"error: certificate file exceeds the byte cap of {limit} bytes"


def test_the_byte_cap_admits_a_file_at_the_cap(capsys, monkeypatch, tmp_path):
    # at the cap a file is read and parsed; a device with no size is read one
    # byte past the cap, and refused by the cap
    monkeypatch.setattr(cli, "MAX_CERTIFICATE_BYTES", 20)
    (tmp_path / "at.json").write_bytes(b"{}" + b" " * 18)
    (tmp_path / "past.json").write_bytes(b"{}" + b" " * 19)
    assert run_cli(capsys, "verify", str(tmp_path / "at.json")) == (
        2, "", "error: malformed certificate: missing key 'format_version'\n")
    refused = (2, "", "error: certificate file exceeds the byte cap of 20 bytes\n")
    assert run_cli(capsys, "verify", str(tmp_path / "past.json")) == refused
    assert run_cli(capsys, "verify", "/dev/zero") == refused


def _rank1_certificate(path, p: int, s: int, entries: list[bytes], word: bytes = b"a") -> None:
    """A rank-1 certificate file, image `a` and the word spelled `word`, of the
    given trace entries; canonical when the word is spelled `a`."""
    path.write_bytes(b'{"format_version":1,"images":["a"],"metadata":{"seed":0},"p":%d,'
                     b'"period":%d,"rank":1,"s":%d,"trace":[%s],"tuple":%s,"word":"%s"}\n'
                     % (p, len(entries), s, b",".join(entries), entries[0], word))


@pytest.mark.slow
@pytest.mark.parametrize("name,failures,digest", [
    # 10^6 entries over F_5 in 20 MB: past the work cap, so it fails structure
    ("hostile", ["structure"],
     "64a5c86dae0190e85cd0325842f86cb95f0ddd191259d0279e67028c5b39db3a"),
    # the largest trace the work cap admits (45 MB): 2^18 - 1 distinct invertible
    # F_{2^20} matrices [[1, b], [0, 1]], which the identity map does not step
    ("valid_shape", ["condition_ii", "wreath_relations"],
     "a7887938129f6d90024febdc0105eeebce1d45e329a22f2a0e066072ad54b0f3"),
    # the same two files with the word spelled as the JSON escape \u0061: the
    # backslash sends each to json.loads and certificate_from_dict
    ("hostile_json", ["structure"],
     "951772cbb70868c129fbb6c065c1e821498a06fcbc24fd8b81548e35e17edcbe"),
    ("valid_json", ["condition_ii", "wreath_relations"],
     "1e931835ea27fd055b92e973f3e90e5b92fa290393c62865b8148743b3a4e90f"),
])
def test_large_certificates_keep_their_outcome(tmp_path, name, failures, digest):
    # stdout is pinned from the reader that parsed every file with json.loads.
    # The peaks measured 431 and 460 MB (VmHWM, CPython 3.11) once the fold went
    # a chunk of rows at a time; folding the 45 MB trace whole peaked at 1,026 MB.
    # Through json.loads the same files peaked at 946 and 619 MB, and at 915
    # and 612 MB once the fallback became one walk in file order
    peak_mb = {"hostile": 500, "valid_shape": 530, "hostile_json": 1090, "valid_json": 710}[name]
    word = rb"\u0061" if name.endswith("_json") else b"a"
    if name.startswith("hostile"):
        _rank1_certificate(tmp_path / f"{name}.json", 5, 1, [b"[[[1],[0],[0],[1]]]"] * 10**6,
                           word)
    else:
        one, zero = b"[1" + b",0" * 19 + b"]", b"[0" + b",0" * 19 + b"]"
        _rank1_certificate(tmp_path / f"{name}.json", 2, 20, [
            b"[[%s,[%s],%s,%s]]" % (one, ",".join(format(b, "020b")).encode(), zero, one)
            for b in range(1, 2**18)], word)
    code, out, err, elapsed, peak = _capped_child(
        ["verify", f"{name}.json", "--format", "json"], tmp_path, 3 << 29)
    print(f"{name}: {(tmp_path / f'{name}.json').stat().st_size} bytes, "
          f"{elapsed:.2f} s, peak RSS {peak:.0f} MB")
    assert (code, err) == (1, "")
    assert [c["name"] for c in json.loads(out)["verdict"]["checks"]
            if c["status"] == "fail"] == failures
    assert hashlib.sha256(out).hexdigest() == digest
    assert peak <= peak_mb, f"peak RSS {peak:.0f} MB"


def test_certify_refuses_noninjective(capsys, tmp_path):
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps({"rank": 2, "images": ["a", "a"]}))
    code, _, err = run_cli(capsys, "certify", "--endo", str(endo), "--word", "a",
                           "--out", str(tmp_path / "c.json"))
    assert code == 2 and "not injective" in err


def test_certify_refuses_long_noninjective_images_in_bounded_time(capsys, tmp_path):
    # 8,001 letters, well under the work cap, all folded into one loop
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps({"rank": 2, "images": ["a" * 4000, "a" * 4001]}))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "certify", "--endo", str(endo), "--word", "a",
                           "--out", str(tmp_path / "c.json"))
    assert time.perf_counter() - start < 2
    assert code == 2 and "endomorphism is not injective" in err
    assert not (tmp_path / "c.json").exists()


def test_certify_not_found_names_what_stopped_the_search(capsys, tmp_path):
    # under the identity every walk finds a fixed point in one step, and its
    # word value is scalar: nothing ran out of budget
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps({"rank": 1, "images": ["a"]}))
    code, out, _ = run_cli(capsys, "certify", "--endo", str(endo), "--word", "a" * 5040,
                           "--smax", "1", "--seeds", "1", "--format", "json",
                           "--out", str(tmp_path / "c.json"))
    assert code == 1
    assert json.loads(out) == {
        "command": "certify", "found": False,
        "reason": "cycles with a scalar word at every rotation: 6",
        "frontier": [{"p": p, "s": 1, "seeds": 1} for p in (11, 13, 17, 19, 23, 29)]}
    assert not (tmp_path / "c.json").exists()


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


def _padded_endo(path, size: int) -> None:
    """An endomorphism file of `size` bytes: a ↦ aa, then spaces."""
    text = json.dumps({"rank": 1, "images": ["aa"]}).encode()
    path.write_bytes(text + b" " * (size - len(text)))


def test_certify_refuses_an_endo_file_past_the_byte_cap(tmp_path):
    # one byte past the cap is refused by its size, and a device with no size
    # once one byte past the cap is read, before any JSON is parsed: within 1 s
    # in a child capped at 64 MB of address space
    _padded_endo(tmp_path / "past.json", cli.MAX_ENDO_BYTES + 1)
    for endo in ("past.json", "/dev/zero"):
        code, out, err, elapsed, _ = _capped_child(
            ["certify", "--endo", endo, "--word", "a", "--out", "c.json"], tmp_path, 64 << 20)
        assert elapsed < 1
        assert (code, out) == (2, b"")
        assert err == f"error: endomorphism file exceeds the byte cap of {cli.MAX_ENDO_BYTES} bytes"
    assert not (tmp_path / "c.json").exists()


def test_the_largest_admitted_endo_file_certifies_as_before(capsys, tmp_path):
    (tmp_path / "endo.json").write_text(json.dumps({"rank": 1, "images": ["aa"]}))
    _padded_endo(tmp_path / "at.json", cli.MAX_ENDO_BYTES)
    results = []
    for name in ("endo", "at"):
        code, out, err = run_cli(capsys, "certify", "--endo", str(tmp_path / f"{name}.json"),
                                 "--word", "a", "--out", str(tmp_path / f"{name}.cert"))
        results.append((code, out.replace(f"{name}.cert", "?"), err,
                        (tmp_path / f"{name}.cert").read_bytes()))
    assert results[0][0] == 0 and results[1] == results[0]


@pytest.mark.parametrize("indent", [None, 0, 2, 4])
def test_the_endo_byte_cap_admits_every_file_within_the_work_cap(indent):
    # the files json.dumps writes of the images with the most bytes a letter
    # of work: an empty image counts as one letter, and so does a one-letter one
    work = MAX_VERIFY_WORK - 1  # the word has a letter at least
    for images in ([""] * work, ["a"] + [""] * (work - 1), ["a" * work],
                   list("abcdefghijklmnopqrstuvwxyz") + [""] * (work - 26)):
        assert verify_work(1, images, "a") == MAX_VERIFY_WORK
        size = len(json.dumps({"rank": len(images), "images": images}, indent=indent))
        assert size <= 13 * MAX_VERIFY_WORK + 64 <= cli.MAX_ENDO_BYTES


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


JSON_LEAVES = (st.none() | st.booleans()
               | st.integers(min_value=-2**80, max_value=2**80)
               | st.floats() | st.text())
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], [{}]]})
@example([[1, [2, [3]]], [True, False, None, 0.5, -0.0, 10**30]])
@example({"\u00e9\u2603\U0001f600": "\x00\x1f\x7f\u2028 \"quoted\" \\", "": ""})
@example([float("nan"), float("inf"), float("-inf"), 1e300, 2**63, -2**64])
def test_json_writer_matches_json_dumps(value):
    assert _render_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_text_format_mirrors_json(capsys):
    code, text_out, _ = run_cli(capsys, "iq", "--p", "2", "--n", "1",
                                "--map", "x1^2", "--q", "4", "--j", "1")
    assert code == 0
    assert "dimension: 4" in text_out
    assert "congruence:" in text_out and "1: true" in text_out


def _with_cap_env(capsys, monkeypatch, value, *argv):
    """run_cli on argv with QUASIFIX_CAP unset and with it set to value."""
    monkeypatch.delenv("QUASIFIX_CAP", raising=False)
    unset = run_cli(capsys, *argv)
    monkeypatch.setenv("QUASIFIX_CAP", value)
    return unset, run_cli(capsys, *argv)


def test_cap_env_override(capsys, monkeypatch):
    # no code reads QUASIFIX_CAP: a value below the order of F_{2^3} leaves
    # the output and the exit code as they are without it
    unset, capped = _with_cap_env(capsys, monkeypatch, "4", "quasifixed", "--p", "2",
                                  "--n", "1", "--map", "x1^2", "--smax", "3")
    assert unset[0] == 0 and unset[2] == ""
    assert capped == unset


# forms Python's int() reads as a number but the CLI refuses rather than reinterprets:
# digit separators, non-ASCII digits, a sign or padding, and past the 4300-digit limit
NOT_ASCII_INTS = ["1_009", "\u0663", "-\u0663", "\uff13", "+3", " 3", "3 ", "3\n", "",
                  "1" * 4301]


@pytest.mark.parametrize("text", NOT_ASCII_INTS)
def test_int_options_accept_ascii_digits_only(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["quasifixed", "--p", text, "--n", "1", "--map", "x1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"quasifix quasifixed: error: argument --p: invalid int value: {text!r}\n")


@pytest.mark.parametrize("text", NOT_ASCII_INTS)
def test_cap_env_accepts_ascii_digits_only(capsys, monkeypatch, text):
    # no code reads QUASIFIX_CAP, so no text of it, digits or not, is an error
    unset, capped = _with_cap_env(capsys, monkeypatch, text,
                                  "quasifixed", "--p", "2", "--n", "1", "--map", "x1")
    assert unset[0] == 0 and capped == unset


# a valid certificate but for its field F_{1031^2}, of order 1,062,961 > 2^20:
# identity endomorphism of rank 1, w = a, period 1
OVER_CAP_CERTIFICATE = json.dumps({
    "format_version": 1, "rank": 1, "images": ["a"], "word": "a",
    "p": 1031, "s": 2, "period": 1, "tuple": [[[1, 0], [0, 1], [0, 0], [1, 0]]],
    "trace": [[[[1, 0], [0, 1], [0, 0], [1, 0]]]], "metadata": {"seed": 0}})


def test_verify_honours_cap_env_above_default(capsys, monkeypatch, tmp_path):
    # the cap is 2^20 whatever QUASIFIX_CAP says, even when it says 2^22
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(OVER_CAP_CERTIFICATE)
    unset, capped = _with_cap_env(capsys, monkeypatch, "4194304",
                                  "verify", str(cert_path), "--format", "json")
    assert capped == unset
    code, out, _ = capped
    checks = json.loads(out)["verdict"]["checks"]
    assert code == 1 and [c["status"] for c in checks] == ["fail"] + ["skipped"] * 5
    assert checks[0]["detail"] == "field order 1031^2 exceeds cap 1048576"


def test_output_file_option(capsys, tmp_path):
    out_file = tmp_path / "witnesses.json"
    code, out, _ = run_cli(capsys, "quasifixed", "--p", "2", "--n", "1",
                           "--map", "x1^2", "--smax", "2", "--format", "json",
                           "--out", str(out_file))
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())["count"] >= 1


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@st.composite
def writer_maps(draw, points=4096):
    """Maps of A^n over F_p, n <= 4, and an s_max with p^(s_max n) <= points (or 1)."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    coords = [MPoly(n, p, draw(st.dictionaries(exponents, st.integers(1, p - 1), max_size=3)))
              for _ in range(n)]
    s_max = max(s for s in range(1, 13) if s == 1 or p ** (s * n) <= points)
    return PolyMap(coords), draw(st.integers(1, s_max))


@settings(max_examples=60, deadline=None)
@given(writer_maps())
@example((PolyMap.parse(["x1+1"], 1, 2), 1))                      # no witness
@example((PolyMap.parse(["x1+1", "x2"], 2, 3), 2))                  # no witness, two degrees
@example((PolyMap.parse(["x1"], 1, 2), 12))                         # 4,094 witnesses, pieces
@example((PolyMap.parse(["x1^2", "x2", "x1*x2*x3", "x4+1"], 4, 2), 3))
@example((PolyMap.parse(["2*x1^3+x1"], 1, 7), 4))
def test_witness_writer_matches_the_library_payload(case):
    # the witness list is written from the scan's keys in pieces; it must be
    # the payload of the library's witnesses as both writers lay it out
    pmap, s_max = case
    witnesses = [w.to_dict() for w in quasifix.enumerate_quasi_fixed(pmap, s_max)]
    payload = {"command": "quasifixed", "p": pmap.p, "nvars": pmap.nvars,
               "map": [f.to_text() for f in pmap.coords], "smax": s_max,
               "count": len(witnesses), "witnesses": witnesses}
    argv = ["quasifixed", "--p", str(pmap.p), "--n", str(pmap.nvars),
            "--map", ",".join(payload["map"]), "--smax", str(s_max)]
    assert _cli_stdout(argv + ["--format", "json"]) == (
        0, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    assert _cli_stdout(argv + ["--format", "text"]) == (
        0, "\n".join(cli._render_text(payload)) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("json", "text"):
            path = os.path.join(tmp, f"out.{fmt}")
            assert _cli_stdout(argv + ["--format", fmt, "--out", path]) == (0, "")
            with open(path, encoding="utf-8", newline="") as handle:
                assert handle.read() == _cli_stdout(argv + ["--format", fmt])[1]


def test_large_witness_list_is_written_in_pieces(tmp_path):
    # 8,032 witnesses of the identity map of A^1 over F_{2^t}, t <= 12: 1.96 MB
    # of JSON.  Writing it from the scan's keys in pieces peaked at 0.87 MiB of
    # tracemalloc (CPython 3.11), a quarter more is allowed; holding the list
    # as dicts and the text whole, as before, peaked at 7.7-8.3 MiB
    out = tmp_path / "witnesses.json"
    argv = ["quasifixed", "--p", "2", "--n", "1", "--map", "x1", "--smax", "12",
            "--format", "json", "--out", str(out)]
    assert main(argv) == 0  # builds and keeps the fields, as a warm process holds them
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(out.read_text())["count"] == 8032
    assert peak <= 1.25 * 0.87 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@settings(max_examples=60, deadline=None)
@given(writer_maps(512), st.data())
@example((PolyMap.parse(["x1"], 1, 2), 4), None)
def test_density_finds_the_first_oracle_witness_off_w(case, data):
    # W, the minimal polynomial over F_p of the first witness's first coordinate,
    # vanishes on the first witnesses in order, so the search passes over them;
    # V is nonempty text, the whole space ("0") or not.  The witness found is
    # the first of the oracle's, in (s, m, coordinates) order, on V and off W;
    # none found leaves the frontier at --smax.
    pmap, s_max = case
    n, p = pmap.nvars, pmap.p
    keys = sorted(oracle_quasi_fixed(pmap, s_max))
    fields = {s: gf.field_create(p, s) for s in range(1, s_max + 1)}
    w_terms = {(1,) + (0,) * (n - 1): 1}
    if keys:
        a = fields[keys[0][0]].element(keys[0][2][0])
        zero, conjugates = a.field.zero(), [a]
        while (b := naive_frobenius(conjugates[-1], 1)) != a:
            conjugates.append(b)
        coeffs = [a.field.one()]
        for b in conjugates:  # times (x - b), constant term first
            coeffs = [x - b * y for x, y in zip([zero] + coeffs, coeffs + [zero])]
        w_terms = {(k,) + (0,) * (n - 1): c.coeffs[0] for k, c in enumerate(coeffs)}
    w_spec = MPoly(n, p, w_terms)
    v_choices = (["0"], [f"x{n}^{p}+{p - 1}*x{n}"],
                 [f"x1^{p * p}+{p - 1}*x1", f"x{n}^{p}+{p - 1}*x{n}"])
    v_texts = v_choices[1] if data is None else data.draw(st.sampled_from(v_choices))
    v = dynamics.VarietySpec.parse(v_texts, n, p)

    def on_v_off_w(point):
        return (all(naive_eval(f, point).is_zero() for f in v.polys)
                and not naive_eval(w_spec, point).is_zero())

    expected = next((key for key in keys
                     if on_v_off_w([fields[key[0]].element(c) for c in key[2]])), None)
    code, out = _cli_stdout(["density", "--p", str(p), "--n", str(n), "--map",
                             ",".join(f.to_text() for f in pmap.coords), "--v", ",".join(v_texts),
                             "--w", w_spec.to_text(), "--smax", str(s_max), "--format", "json"])
    result = json.loads(out)
    event("found" if expected else "not found")
    if expected is None:
        assert code == 1 and result["frontier"] == {"smax_scanned": s_max,
                                                     "order_cap": gf.DEFAULT_ORDER_CAP}
    else:
        w = result["witness"]
        assert code == 0 and (w["s"], w["m"], tuple(map(tuple, w["point"]))) == expected


def test_quasifixed_refuses_past_cap_before_enumerating(capsys, monkeypatch):
    # every degree up to --smax is checked against the caps before any field
    # is built, so nothing is enumerated only to be thrown away
    created = []
    real = dynamics.field_create
    monkeypatch.setattr(dynamics, "field_create",
                        lambda p, s, *rest: created.append((p, s)) or real(p, s, *rest))
    code, out, err = run_cli(capsys, "quasifixed", "--p", "1031", "--n", "1",
                             "--map", "x1", "--smax", "8")
    assert code == 2 and out == ""
    assert err == "error: field order 1031^2 exceeds cap 1048576\n"
    assert created == []


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quasifixed", "--p", "2"])  # missing required flags
    assert exc.value.code == 2


def test_density_stops_at_first_degree_past_cap(capsys):
    # no witness avoids W = {x1 = 0}, and F_{1031^2} is past the cap: the scan of
    # degree 1 is reported as not found instead of thrown away
    code, out, err = run_cli(capsys, "density", "--p", "1031", "--n", "1", "--map", "x1",
                             "--w", "0", "--smax", "3", "--format", "json")
    assert code == 1 and err == ""
    data = json.loads(out)
    assert not data["found"] and data["smax"] == 3
    assert data["frontier"] == {"smax_scanned": 1, "order_cap": 1048576,
                                "stopped_by": "field order 1031^2 exceeds cap 1048576"}

    # F_p itself is past the cap: 1048583 is the least prime above 2^20
    code, out, _ = run_cli(capsys, "density", "--p", "1048583", "--n", "1", "--map", "x1",
                           "--w", "0", "--smax", "2", "--format", "json")
    assert code == 1
    assert json.loads(out)["frontier"] == {
        "smax_scanned": 0, "order_cap": 1048576,
        "stopped_by": "field order 1048583^1 exceeds cap 1048576"}


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


def _nested_parser() -> argparse.ArgumentParser:
    # the parser tree `main` ran on before it dispatched on the first token:
    # one subparser per entry of SUBCOMMANDS under the top-level parser
    parser = argparse.ArgumentParser(prog="quasifix", description=build_parser().description)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, handler, arguments) in cli.SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            subparser.add_argument(flag, **options)
        subparser.set_defaults(func=handler)
    return parser


def _parse_outcome(parse, argv):
    """The attributes of the namespace `parse` gives for argv, or its (exit code,
    stdout, stderr); `main` hands its handlers a `SimpleNamespace`, and
    `argparse.Namespace` compares equal on these too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


FLAGS = sorted({flag for _, _, arguments in SUBCOMMANDS.values()
                for flag, _ in arguments if flag.startswith("-")})
VALUES = st.sampled_from(["3", "0", "-2", "x", "x1", "1_009", "\u0663", "json", "text", ""])
FLAG_PREFIXES = st.sampled_from(FLAGS).flatmap(
    lambda flag: st.integers(2, len(flag)).map(lambda k: flag[:k]))
TOKENS = st.one_of(
    st.sampled_from(FLAGS), FLAG_PREFIXES, VALUES,
    st.tuples(FLAG_PREFIXES, VALUES).map("=".join),
    st.sampled_from(["--", "-h", "--help", "--he", "-x", "extra", *SUBCOMMANDS]))
NOT_SUBCOMMANDS = st.sampled_from(["-h", "--help", "--he", "-x", "--x=1", "--", "", "iqq",
                                   "IQ", "--format"])


@st.composite
def cli_argvs(draw):
    """A subcommand with its required arguments, some of them dropped, then noise;
    or noise with a first token that is not a subcommand."""
    if draw(st.integers(0, 4)) == 0:
        return [draw(NOT_SUBCOMMANDS), *draw(st.lists(TOKENS, max_size=10))]
    name = draw(st.sampled_from(list(SUBCOMMANDS)))
    required = [[flag, "3" if options.get("type") else "x1"] if flag.startswith("-")
                else ["a"] for flag, options in SUBCOMMANDS[name][2]
                if options.get("required") or not flag.startswith("-")]
    kept = draw(st.permutations(required))
    if draw(st.booleans()):
        kept = kept[:draw(st.integers(0, len(kept)))]
    return [name, *(token for pair in kept for token in pair),
            *draw(st.lists(TOKENS, max_size=6))]


@settings(max_examples=400, deadline=None)
@given(cli_argvs())
@example([])
@example(["-x", "iq", "--p", "3", "--n", "1", "--map", "x1", "--q", "9"])
@example(["iq", "--p", "3", "--n", "1", "--map", "x1", "--q", "9", "extra", "--", "-h"])
@example(["certify", "--s", "1", "--endo", "e", "--word", "a"])
@example(["fold", "--k=2", "--", "-a", "b"])
@example(["certify", "--endo", "e", "--word", "a", "--seed", "-2"])
@example(["certify", "--endo", "e", "--word", "a", "--allow-noninjective", "yes"])
@example(["certify", "--endo", "e", "--word", "a", "--allow-noninjective"])
@example(["verify", "a", "b"])
@example(["verify", "--format", "json", "a"])
@example(["iq", "--p", "3", "--p", "2", "--n", "1", "--map", "x1", "--q", "4"])
@example(["iq", "--p", "3", "--n", "1", "--map", "", "--q", "9"])
@example(["iq", "--p", "3", "--n", "1", "--map", "x1", "--q", "9", "--format", "jso"])
@example(["iq", "--p", "3", "--n", "1", "--map", "x1", "--q", "9", "--j"])
@example(["iq", "--p", "3", "--n", "1", "--map", "x1", "--q", "9", "--format", "text"])
@example(["fold", "--k", "2", "ab", "ba"])
def test_dispatch_matches_the_nested_parser(argv):
    # `main` reads a canonical argv itself and hands any other to `build_parser`; it must
    # give the namespace, exit code and output of the nested tree in every case
    parsed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        mp.setattr(cli, "SUBCOMMANDS", {
            name: (help_text, lambda args: parsed.append(args) or 0, arguments)
            for name, (help_text, _, arguments) in SUBCOMMANDS.items()})
        build_parser.cache_clear()
        _reader.cache_clear()
        try:
            got = _parse_outcome(lambda argv: main(argv) or parsed.pop(), argv)
            expected = _parse_outcome(_nested_parser().parse_args, argv)
        finally:
            build_parser.cache_clear()
            _reader.cache_clear()
    assert got == expected


def test_benchmark_shaped_argv_never_reaches_argparse(tmp_path, monkeypatch):
    # argv as the benchmark writes it: every option spelled out and followed by its value
    monkeypatch.chdir(tmp_path)
    Path("endo.json").write_text(json.dumps({"rank": 2, "images": ["ab", "ba"]}))
    jobs = [
        ["quasifixed", "--p", "3", "--n", "1", "--map", "x1^2", "--smax", "2",
         "--format", "json"],
        ["density", "--p", "3", "--n", "1", "--map", "x1^2", "--smax", "2",
         "--w", "x1", "--format", "json"],
        ["iq", "--p", "2", "--n", "1", "--map", "x1^3+1", "--q", "4", "--j", "2",
         "--format", "json"],
        ["certify", "--endo", "endo.json", "--word", "ab", "--out", "cert_000.json",
         "--format", "json"],
        ["verify", "cert_000.json", "--format", "json"],
    ]

    def refuse(*args):
        raise AssertionError("canonical argv reached argparse")

    monkeypatch.setattr(cli, "build_parser", refuse)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv) for argv in jobs]
    assert codes == [0] * len(jobs)


# argv steps; a step's files are read back after its unit
WARM_UNITS = [
    [["quasifixed", "--p", "3", "--n", "2", "--map", "x1*x2+2,x2^2", "--smax", "2",
      "--format", "json"]],
    [["density", "--p", "3", "--n", "1", "--map", "x1^2", "--w", "x1^2+2*x1", "--smax", "4"]],
    [["certify", "--endo", "endo.json", "--word", "ab", "--seed", "3", "--out", "cert.json"],
     ["verify", "cert.json", "--format", "json"]],
    [["iq", "--p", "3", "--n", "2", "--map", "x1*x2,x1+x2", "--q", "3", "--j", "2"]],
    [["quasifixed", "--p", "2", "--n", "1", "--map", "x1^3+x1", "--smax", "6"]],
    # the cap is checked on every call, also after a field of the prime is kept
    [["quasifixed", "--p", "1031", "--n", "1", "--map", "x1", "--smax", "1"],
     ["verify", "over.json"],
     ["quasifixed", "--p", "1031", "--n", "1", "--map", "x1", "--smax", "2"],
     ["density", "--p", "1031", "--n", "1", "--map", "x1", "--w", "0", "--smax", "3"]],
]


def _run_unit(capsys, unit):
    results = [run_cli(capsys, *argv) for argv in unit]
    path = Path("cert.json")
    if path.exists():
        results.append(("cert.json", path.read_bytes()))
        path.unlink()
    return results


def test_warm_process_matches_fresh_calls(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("endo.json").write_text(json.dumps({"rank": 2, "images": ["ab", "ba"]}))
    Path("over.json").write_text(OVER_CAP_CERTIFICATE)
    fresh = []
    for unit in WARM_UNITS:
        build_parser.cache_clear()
        _reader.cache_clear()
        gf._FIELDS.clear()
        fresh.append(_run_unit(capsys, unit))
    assert [unit[0][0] for unit in fresh] == [0] * len(WARM_UNITS)
    capped = fresh[-1]
    assert [step[0] for step in capped[1:4]] == [1, 2, 1]
    assert capped[2][2] == "error: field order 1031^2 exceeds cap 1048576\n"
    for order in (range(len(WARM_UNITS)), reversed(range(len(WARM_UNITS)))):
        for i in order:
            assert _run_unit(capsys, WARM_UNITS[i]) == fresh[i], WARM_UNITS[i]
