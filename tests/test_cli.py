import hashlib
import json
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from rainbowindex import bounds, cli
from rainbowindex.cli import main
from rainbowindex.colorings import (
    CompleteGraphColoring,
    SeededStream,
    random_coloring,
    read_coloring,
    write_coloring,
)
from rainbowindex.trees import OracleMode, verify_coloring

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(name: str, text: str) -> dict:
    doc = json.loads(text)
    jsonschema.validate(doc, load_schema(name))
    return doc


# --- bounds -----------------------------------------------------------------

def test_bounds_basic(capsys):
    code, out, err = run(capsys, "bounds", "-k", "3", "-l", "1")
    assert code == 0
    doc = validate("bound_report", out)
    assert doc["N1"] == 572
    assert doc["N2"]["value"] == 6
    assert doc["N"] == 572
    assert "N1" in err  # human table on stderr


def test_bounds_with_eps(capsys):
    code, out, _ = run(capsys, "bounds", "-k", "3", "-l", "100", "--eps", "1/2")
    assert code == 0
    doc = validate("bound_report", out)
    assert doc["n_threshold"] == 894
    assert doc["N"] == 894


def test_bounds_rejects_small_k(capsys):
    code, _, err = run(capsys, "bounds", "-k", "2", "-l", "1")
    assert code == 2
    assert "error" in err


def test_bounds_rejects_malformed_eps(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "bounds", "-k", "3", "-l", "1", "--eps", "half")
    assert exc.value.code == 2


# --- verify -----------------------------------------------------------------

def test_verify_pass_and_fail(capsys, tmp_path):
    mono = tmp_path / "mono.coloring"
    write_coloring(CompleteGraphColoring(6, 3, (1,) * 15), mono)
    code, out, _ = run(capsys, "verify", str(mono), "-k", "3", "-l", "1")
    assert code == 1
    doc = validate("verification_report", out)
    assert doc["pass"] is False
    assert doc["witness_S"] == [1, 2, 3]

    found = tmp_path / "found.coloring"
    code, out, _ = run(capsys, "search", "-n", "6", "-k", "3", "-l", "1",
                       "-t", "3", "--seed", "4", "-o", str(found))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(found), "-k", "3", "-l", "1",
                       "--mode", "full")
    assert code == 0
    doc = validate("verification_report", out)
    assert doc["pass"] is True


def test_verify_json_text_is_the_indent_encoding():
    # the direct encoder against the JSON encoder it replaces: k = 2..5 (k = n
    # included), a vacuous, a passing and a failing demand, both oracle modes
    for n, t in ((5, 3), (7, 4)):
        coloring = random_coloring(n, t, SeededStream(n))
        for k in range(2, min(n, 5) + 1):
            for mode in (OracleMode.star(), OracleMode.full(1)):
                low = min(c for _, c in verify_coloring(
                    coloring, k, 0, mode, per_set_counts=True).per_set_counts)
                for ell, workers in ((0, 1), (low, 1), (low + 1, 1), (low + 1, 2)):
                    for counts in (False, True):
                        report = verify_coloring(coloring, k, ell, mode,
                                                 per_set_counts=counts, workers=workers)
                        assert (report.witness_count is None) == (ell <= low)
                        text = report.to_json_text()
                        assert text == json.dumps(report.to_json_dict(), indent=2) + "\n"
                        validate("verification_report", text)


def test_verify_json_text_memory():
    # K_80, k = 3: 82,160 entries; the indent encoder peaks near 83 MiB
    report = verify_coloring(random_coloring(80, 3, SeededStream(5)), 3, 3, per_set_counts=True)
    tracemalloc.start()
    try:
        report.to_json_text()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_verify_truncated_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.coloring"
    bad.write_text("6 3\n1 2 3\n")
    code, _, err = run(capsys, "verify", str(bad), "-k", "3", "-l", "1")
    assert code == 2
    assert "error" in err


def test_verify_missing_file_is_usage_error(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", str(tmp_path / "nope"), "-k", "3", "-l", "1")
    assert code == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_are_usage_errors(capsys, tmp_path, workers):
    path = tmp_path / "k6.coloring"
    write_coloring(random_coloring(6, 3, SeededStream(2)), path)
    for argv in (("verify", str(path), "-k", "3", "-l", "1"),
                 ("mc", "as-all", "-n", "6", "-k", "3", "-l", "1", "-t", "3", "--samples", "5"),
                 ("mc", "sweep", "-k", "3", "-l", "1", "-t", "3", "--n", "6:7:1",
                  "--samples", "5")):
        code, out, err = run(capsys, *argv, "--workers", workers)
        assert code == 2, argv
        assert out == ""
        assert "workers must be at least 1" in err


# --- search -----------------------------------------------------------------

def test_search_writes_coloring_and_witness(capsys, tmp_path):
    out_file = tmp_path / "k6.coloring"
    witness = tmp_path / "k6.witness"
    code, out, _ = run(capsys, "search", "-n", "6", "-k", "3", "-l", "2", "-t", "3",
                       "--strategy", "local", "--mode", "full", "--seed", "2",
                       "-o", str(out_file), "--witness-out", str(witness))
    assert code == 0
    doc = validate("search_report", out)
    assert doc["found"] is True
    coloring = read_coloring(out_file)
    assert coloring.n == 6
    dump = witness.read_text()
    assert "# S = {1,2,3}" in dump
    assert "T: (" in dump


def test_search_budget_exhaustion_exits_3(capsys):
    code, out, _ = run(capsys, "search", "-n", "6", "-k", "3", "-l", "6", "-t", "3",
                       "--strategy", "random", "--search-budget", "5", "--seed", "1")
    assert code == 3
    doc = validate("search_report", out)
    assert doc["found"] is False
    assert doc["definitive_nonexistence"] is False


def test_search_exhaustive_refutation(capsys):
    code, out, _ = run(capsys, "search", "-n", "4", "-k", "3", "-l", "1", "-t", "1",
                       "--strategy", "exhaustive", "--search-budget", "10")
    assert code == 3
    doc = validate("search_report", out)
    assert doc["definitive_nonexistence"] is True


# --- oracle -----------------------------------------------------------------

def test_oracle_k4_example(capsys, tmp_path):
    path = tmp_path / "k4.coloring"
    write_coloring(CompleteGraphColoring(4, 3, (1, 2, 1, 3, 2, 3)), path)
    code, out, _ = run(capsys, "oracle", str(path), "-S", "1,2,3", "--mode", "full")
    assert code == 0
    doc = validate("oracle_report", out)
    assert doc["max"] == 2
    assert len(doc["witness"]) == 2


def test_oracle_budget_exceeded_is_usage_error(capsys, tmp_path):
    path = tmp_path / "k9.coloring"
    import rainbowindex
    write_coloring(rainbowindex.random_coloring(9, 3, rainbowindex.SeededStream(0)), path)
    code, _, err = run(capsys, "oracle", str(path), "-S", "1,2,3",
                       "--mode", "full", "--budget", "6")
    assert code == 2
    assert "candidate" in err


def test_oracle_packs_thousands_of_candidates(capsys, tmp_path):
    # 2,312 candidates once raised RecursionError, which exited 1
    path = tmp_path / "k9.coloring"
    import rainbowindex
    write_coloring(rainbowindex.random_coloring(9, 9, rainbowindex.SeededStream(3)), path)
    code, out, _ = run(capsys, "oracle", str(path), "-S", "1,2,3,4", "--budget", "3")
    assert code == 0
    doc = validate("oracle_report", out)
    assert doc["max"] == len(doc["witness"])


# --- tail -------------------------------------------------------------------

def test_tail_report(capsys):
    code, out, _ = run(capsys, "tail", "-n", "7", "-k", "3", "-l", "1")
    assert code == 0
    doc = validate("tail_report", out)
    assert doc["exact_tail"]["rational"] == "2401/6561"
    assert doc["anomaly"] is False


def test_tail_prints_rationals_past_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "tail", "-n", "8000", "-k", "3", "-l", "20")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    numerator, denominator = validate("tail_report", out)["exact_tail"]["rational"].split("/")
    assert len(denominator) > 4300
    # int(str) would hit the same limit; Decimal parses exactly
    printed = Fraction(int(Decimal(numerator)), int(Decimal(denominator)))
    assert printed == bounds.binomial_upper_vs_union(8000, 3, 20).exact


# --- mc ---------------------------------------------------------------------

def test_mc_bs(capsys):
    code, out, _ = run(capsys, "mc", "bs", "-n", "7", "-k", "3", "-l", "1",
                       "--samples", "20000", "--seed", "1")
    assert code == 0
    doc = validate("trial_summary", out)
    assert abs(doc["estimate"] - 0.366) < 0.02
    assert doc["comparators"]["exact_tail"] == pytest.approx(0.3659503124523701)


def test_mc_bs_zero_samples_rejected(capsys):
    code, _, err = run(capsys, "mc", "bs", "-n", "7", "-k", "3", "-l", "1",
                       "--samples", "0")
    assert code == 2
    assert "error" in err


def test_mc_as_all_saves_witness(capsys, tmp_path):
    witness = tmp_path / "witness.coloring"
    code, out, _ = run(capsys, "mc", "as-all", "-n", "6", "-k", "3", "-l", "1",
                       "-t", "3", "--samples", "50", "--seed", "3",
                       "--save-witness", str(witness))
    assert code == 0
    doc = validate("trial_summary", out)
    if doc["successes"]:
        assert witness.exists()
        saved = read_coloring(witness)
        assert saved.n == 6


def test_mc_sweep_csv(capsys):
    code, out, err = run(capsys, "mc", "sweep", "-k", "3", "-l", "1", "-t", "3",
                         "--n", "6:12:3", "--samples", "80", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("n,samples,successes,estimate,wilson_lo,wilson_hi,"
                        "exact_tail,chernoff,union_bound")
    assert len(lines) == 4
    assert "threshold" in err


def test_mc_sweep_bad_range(capsys):
    code, _, _ = run(capsys, "mc", "sweep", "-k", "3", "-l", "1", "-t", "3",
                     "--n", "12:6:2", "--samples", "10")
    assert code == 2


def test_mc_bs_k2_reports_exact_tail_only(capsys):
    # the Chernoff and union bounds need k >= 3, so only the exact tail is reported
    code, out, _ = run(capsys, "mc", "bs", "-n", "6", "-k", "2", "-l", "1", "--samples", "10")
    assert code == 0
    doc = validate("trial_summary", out)
    assert list(doc["comparators"]) == ["exact_tail"]


def test_mc_sweep_vacuous_demand(capsys):
    # no Chernoff or union bound exists for ell = 0; every sample passes
    code, out, _ = run(capsys, "mc", "sweep", "-k", "3", "-l", "0", "-t", "3",
                       "--n", "6:8:1", "--samples", "5")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["5", "5", "5"]
    assert all(row.endswith(",0.0,,") for row in rows)


# --- pinned output bytes ----------------------------------------------------

# stdout SHA-256 of small runs: a change to any of these bytes breaks the
# replay of existing manifests. "{coloring}" is a random 4-coloring of K_6.
PINNED_RUNS = [
    (("mc", "bs", "-n", "7", "-k", "3", "-l", "1", "--samples", "2000", "--seed", "1"),
     "bceee5968deac965448d5ef495d29fa038dac7527e5c142981f1952bd426df97"),
    (("mc", "sweep", "-k", "3", "-l", "1", "-t", "3", "--n", "6:12:3", "--samples", "20",
      "--seed", "5"),
     "b0341e140bfddd031a6fbbfb3bf601d7e5e306ed5236fe6d71644f30da24baf7"),
    (("mc", "as-all", "-n", "6", "-k", "3", "-l", "1", "-t", "3", "--samples", "30",
      "--seed", "3", "--workers", "1"),
     "fac4294ee70c6c1a592b28664bff28d2e6888d2b63c23bf6eeb3211260ea3afe"),
    (("mc", "as-all", "-n", "6", "-k", "3", "-l", "1", "-t", "3", "--samples", "30",
      "--seed", "3", "--workers", "2"),
     "fac4294ee70c6c1a592b28664bff28d2e6888d2b63c23bf6eeb3211260ea3afe"),
    (("tail", "-n", "20", "-k", "3", "-l", "2"),
     "d11aa71ec6bb05bf2dbf875a070a0d5d1a042af5e6065f487628d964860d8dc1"),
    (("verify", "{coloring}", "-k", "4", "-l", "1", "--per-s-counts"),
     "be202010c02e216fa53d544055400ad38c6d75552fda4838eea5a9b020f619ac"),
    (("verify", "{coloring}", "-k", "4", "-l", "1", "--per-s-counts", "--mode", "full"),
     "e5f4ad1f42dc989829b170865f3cb2938e57563bd708324c3c604a7745121db1"),
    (("oracle", "{coloring}", "-S", "1,2,3", "--mode", "full"),
     "0017c722f7706ade3618bf564aaf9e1e899491cbb229d2c8184341d5eeec8c6d"),
    (("verify", "{coloring}", "-k", "3", "-l", "0", "--per-s-counts"),
     "cfb2356fb7a1eb6fd210d23131989abe76006ee2e5bac9b8024a7457e92e30c3"),
    (("verify", "{coloring}", "-k", "3", "-l", "3", "--per-s-counts"),
     "c3fdda3e0216a6c223645a49bff98b3948eafe89e0eee4e9f24800a95306021c"),
    (("verify", "{coloring}", "-k", "3", "-l", "3", "--per-s-counts", "--workers", "2"),
     "c3fdda3e0216a6c223645a49bff98b3948eafe89e0eee4e9f24800a95306021c"),
]


def test_pinned_output_digests(capsys, tmp_path):
    path = tmp_path / "k6.coloring"
    write_coloring(random_coloring(6, 4, SeededStream(21)), path)
    for argv, sha in PINNED_RUNS:
        code, out, _ = run(capsys, *(str(path) if tok == "{coloring}" else tok for tok in argv))
        assert code in (0, 1), argv
        assert hashlib.sha256(out.encode()).hexdigest() == sha, argv


# exit code and stdout SHA-256 of local searches: the walk, and so the bytes,
# must not depend on how the objective of each move is evaluated
PINNED_SEARCH_RUNS = [
    (("-n", "6", "-k", "3", "-l", "2", "-t", "3", "--mode", "full", "--budget", "1",
      "--seed", "13"),
     0, "7c2c6e1e5f073c743d54397bad5de6bcd1a81e0715df47dd404128ae96938c8e"),
    (("-n", "8", "-k", "3", "-l", "4", "-t", "3", "--mode", "full", "--search-budget", "50"),
     3, "ca673f764388a9386a853f06ed7b63ea4413ea086e087b3b4a1970050d65e630"),
    (("-n", "7", "-k", "4", "-l", "2", "-t", "5", "--search-budget", "300", "--seed", "3"),
     0, "792fd9fd14eaadc4996b368ae1c787dfbb78465c455fc08321d20b2f2a975767"),
    # k = 4 in full mode: default budget 2, so every move re-decides every set
    (("-n", "7", "-k", "4", "-l", "2", "-t", "4", "--mode", "full", "--search-budget", "150"),
     0, "8ca092ec1aaee70a9ad5f99e0c5c30c63e7281bb5fa17136e795c8030be2fec9"),
]


def test_pinned_local_search_digests(capsys):
    for argv, expected_code, sha in PINNED_SEARCH_RUNS:
        code, out, _ = run(capsys, "search", "--strategy", "local", *argv)
        assert code == expected_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == sha, argv


# --- manifest / replay ------------------------------------------------------

def test_manifest_written_and_replay_identical(capsys, tmp_path):
    manifest = tmp_path / "run.json"
    code, out, _ = run(capsys, "--manifest", str(manifest),
                       "bounds", "-k", "3", "-l", "2")
    assert code == 0
    doc = validate("run_manifest", manifest.read_text())
    assert doc["subcommand"] == "bounds"
    code, replay_out, err = run(capsys, "replay", str(manifest))
    assert code == 0
    assert replay_out == out
    assert "byte-identical" in err


def test_replay_detects_drift(capsys, tmp_path):
    manifest = tmp_path / "run.json"
    code, _, _ = run(capsys, "--manifest", str(manifest), "bounds", "-k", "3", "-l", "2")
    doc = json.loads(manifest.read_text())
    doc["output_sha256"] = "0" * 64
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, "replay", str(manifest))
    assert code == 1
    assert "DIFFERS" in err


def test_unexpected_exception_exits_4_with_manifest(capsys, tmp_path, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "bounds", broken)
    manifest = tmp_path / "run.json"
    code, out, err = run(capsys, "--manifest", str(manifest), "bounds", "-k", "3", "-l", "2")
    assert code == 4
    assert out == ""
    assert "RuntimeError: boom" in err
    doc = validate("run_manifest", manifest.read_text())
    assert doc["exit_code"] == 4
    code, _, err = run(capsys, "replay", str(manifest))
    assert code == 0
    assert "exit 4" in err


# --- repro ------------------------------------------------------------------

def test_repro_theta(capsys):
    code, out, _ = run(capsys, "repro", "theta")
    assert code == 0
    assert out.count("[PASS]") == 2


def test_repro_thresholds(capsys):
    code, out, _ = run(capsys, "repro", "thresholds")
    assert code == 0
    assert out.count("[PASS]") == 4


def test_repro_averaging(capsys):
    code, out, _ = run(capsys, "repro", "averaging", "-n", "8", "--samples", "60")
    assert code == 0
    assert out.count("[PASS]") == 2


def test_repro_k6(capsys, tmp_path):
    code, out, _ = run(capsys, "repro", "k6", "--out-dir", str(tmp_path / "certs"))
    assert code == 0
    assert out.count("[PASS]") == 2
    saved = sorted(p.name for p in (tmp_path / "certs").iterdir())
    assert saved == ["k6_ell1.coloring", "k6_ell2.coloring"]
