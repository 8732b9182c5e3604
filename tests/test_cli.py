import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from rainbowindex import bounds, cli, montecarlo
from rainbowindex.cli import main
from rainbowindex.colorings import (
    CompleteGraphColoring,
    SeededStream,
    enumeration_state_count,
    random_coloring,
    read_coloring,
    write_coloring,
)
from rainbowindex.trees import OracleMode, verify_coloring

from conftest import burnside_orbit_count

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


def test_bounds_theta_tolerance_is_not_an_option(capsys):
    # a loose tolerance used to stop the bisection early: theta 486.0 and
    # ell_min 55 instead of 712.415 and 80
    with pytest.raises(SystemExit) as exc:
        run(capsys, "bounds", "-k", "3", "-l", "100", "--eps", "1/2", "--theta-tol", "1e9")
    assert exc.value.code == 2
    code, out, err = run(capsys, "bounds", "-k", "4", "-l", "3", "--eps", "2/3")
    assert (code, out) == (2, "")
    assert "need ell >= 45" in err



def test_bounds_never_exits_4_up_to_k60(capsys):
    # p = k!/k^k falls below 1e-20 from k = 48, where 1 - p at a fixed 60
    # digits left the ceiling of N1 (about 10^42) unstable; from k = 52 the
    # multinomial N2 has more digits than int-to-str allows, a usage error
    for k in range(3, 61):
        code, out, err = run(capsys, "bounds", "-k", str(k), "-l", "1")
        if k <= 51:
            assert code == 0, k
            doc = validate("bound_report", out)
            p = math.factorial(k) / k ** k
            root = (k / math.log1p(-p)) ** 2  # N1 = 4 ceil(root)
            assert root * (1 - 1e-9) <= doc["N1"] / 4 < root * (1 + 1e-9) + 1
        else:
            assert code == 2 and out == "", k
            assert "error: " in err

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
    # included), a vacuous, a passing and a failing demand, both oracle modes;
    # K_14 with 20 colors has two-digit vertices and counts
    for n, t, top in ((5, 3, 5), (7, 4, 5), (14, 20, 3)):
        coloring = random_coloring(n, t, SeededStream(n))
        for k in range(2, min(n, top) + 1):
            for mode in (OracleMode.star(), OracleMode.full(1)):
                rows = verify_coloring(coloring, k, 0, mode, per_set_counts=True).per_set_counts
                assert (rows[:, -1].max() >= 10) == (n == 14)
                low = int(rows[:, -1].min())
                for ell, workers in ((0, 1), (low, 1), (low + 1, 1), (low + 1, 2)):
                    for counts in (False, True):
                        report = verify_coloring(coloring, k, ell, mode,
                                                 per_set_counts=counts, workers=workers)
                        assert (report.witness_count is None) == (ell <= low)
                        text = report.to_json_text()
                        assert text == json.dumps(report.to_json_dict(), indent=2) + "\n"
                        validate("verification_report", text)


def test_verify_counts_memory():
    # K_80, k = 3: the 82,160 rows of (*S, count) hold 2.5 MiB as one array
    coloring = random_coloring(80, 3, SeededStream(5))
    tracemalloc.start()
    try:
        verify_coloring(coloring, 3, 3, per_set_counts=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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


def test_search_exhaustive_past_the_enumeration_budget_exits_2(capsys):
    code, out, err = run(capsys, "search", "-n", "7", "-k", "3", "-l", "1", "-t", "3",
                         "--strategy", "exhaustive")
    assert code == 2
    assert out == ""
    assert "enumeration space has 1743392201 colorings" in err
    # the count takes no recursion, so C(n,2) edges of any size are priced
    for n in (32, 40):
        code, out, err = run(capsys, "search", "-n", str(n), "-k", "3", "-l", "1", "-t", "3",
                             "--strategy", "exhaustive")
        assert code == 2
        assert out == ""
        assert f"enumeration space has {burnside_orbit_count(n * (n - 1) // 2, 3)} colorings" in err
    # past 4,300 digits the count is still named in full
    code, out, err = run(capsys, "search", "-n", "150", "-k", "3", "-l", "1", "-t", "3",
                         "--strategy", "exhaustive")
    assert code == 2
    assert out == ""
    assert f"enumeration space has {str(Decimal(enumeration_state_count(150, 3)))} colorings" in err


def test_search_exhaustive_refutation(capsys):
    # a drained space refutes only under an exact oracle: full mode with a
    # budget of at least n - k (here 1); star mode counts fewer trees
    argv = ("search", "-n", "4", "-k", "3", "-l", "1", "-t", "1",
            "--strategy", "exhaustive", "--search-budget", "10")
    for extra, refuted in (((), False), (("--mode", "full", "--budget", "1"), True)):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 3
        doc = validate("search_report", out)
        assert doc["exhausted"] is True
        assert doc["definitive_nonexistence"] is refuted


# --- oracle -----------------------------------------------------------------

def test_oracle_k4_example(capsys, tmp_path):
    path = tmp_path / "k4.coloring"
    write_coloring(CompleteGraphColoring(4, 3, (1, 2, 1, 3, 2, 3)), path)
    code, out, _ = run(capsys, "oracle", str(path), "-S", "1,2,3", "--mode", "full")
    assert code == 0
    doc = validate("oracle_report", out)
    assert doc["max"] == 2
    assert len(doc["witness"]) == 2


def test_star_mode_with_a_budget_is_usage_error(capsys, tmp_path):
    path = tmp_path / "k6.coloring"
    write_coloring(random_coloring(6, 3, SeededStream(4)), path)
    for argv in (("verify", str(path), "-k", "3", "-l", "1", "--budget", "2"),
                 ("oracle", str(path), "-S", "1,2,3", "--mode", "star", "--budget", "3"),
                 ("search", "-n", "6", "-k", "3", "-l", "1", "-t", "3", "--budget", "1"),
                 ("mc", "as-all", "-n", "6", "-k", "3", "-l", "1", "-t", "3", "--samples", "5",
                  "--mode", "star", "--budget", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "star mode takes no budget" in err, argv


def test_oracle_budget_exceeded_is_usage_error(capsys, tmp_path):
    # with 8 colors the reach of budget 6 on K_13 is 6 external vertices, and
    # the candidate table would hold 7,488,433 trees
    path = tmp_path / "k13.coloring"
    import rainbowindex
    write_coloring(rainbowindex.random_coloring(13, 8, rainbowindex.SeededStream(0)), path)
    code, _, err = run(capsys, "oracle", str(path), "-S", "1,2,3",
                       "--mode", "full", "--budget", "6")
    assert code == 2
    assert "candidate" in err


def test_oracle_budget_past_the_reach_answers_at_the_reach(capsys, tmp_path):
    # with 3 colors no rainbow tree of a triple has two external vertices, so
    # budget 6 scans, prices and answers as budget 1
    path = tmp_path / "k9.coloring"
    write_coloring(random_coloring(9, 3, SeededStream(0)), path)
    docs = []
    for budget in ("1", "6"):
        code, out, _ = run(capsys, "oracle", str(path), "-S", "1,2,3", "--mode", "full", "--budget", budget)
        assert code == 0
        docs.append(validate("oracle_report", out))
    assert docs[0].pop("mode") == "full:1" and docs[1].pop("mode") == "full:6"
    assert docs[0] == docs[1]


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



@pytest.mark.parametrize("n, ell", [(1500, 150), (2000, 200), (3000, 300)])
def test_tail_prints_bounds_past_the_float_range_as_infinity(capsys, monkeypatch, n, ell):
    # the power bound is about 10^460 at n = 2000, ell = 200; the exact tail,
    # the costly part, is computed once per run
    tails = []
    real_tail = bounds.binomial_tail_below

    def counted_tail(*args):
        tails.append(args)
        return real_tail(*args)

    monkeypatch.setattr(bounds, "binomial_tail_below", counted_tail)
    monkeypatch.setattr(montecarlo, "binomial_tail_below", counted_tail)
    code, out, _ = run(capsys, "tail", "-n", str(n), "-k", "3", "-l", str(ell))
    assert code == 0
    doc = validate("tail_report", out)
    assert doc["power_bound"] == math.inf
    assert '"power_bound": Infinity' in out
    assert 0 < doc["chernoff_tail"] < 1
    assert len(tails) == 1

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
# replay of existing manifests. "{coloring}" is a random 4-coloring of K_6,
# "{k12}" a random 3-coloring and "{k12r}" a random 10-coloring of K_12, and
# "{k9}" a random 30-coloring and "{k9c3}" a random 3-coloring of K_9.
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
    # full mode at k <= 3 with budget 1, recorded while each set still went
    # through the branch and bound
    (("verify", "{coloring}", "-k", "3", "-l", "0", "--per-s-counts", "--mode", "full"),
     "0a3cbf61ad6d66c032574ae0cfe294fe1d71e532012b4e3da47f6ecb8fc88d82"),
    (("verify", "{coloring}", "-k", "3", "-l", "3", "--per-s-counts", "--mode", "full"),
     "52cc615e07f2f4c5aea0670e3ba3016d626cf28affb66c0e95ee3b8a6b3fdddc"),
    (("verify", "{coloring}", "-k", "2", "-l", "2", "--per-s-counts", "--mode", "full"),
     "4080afd864018284f551dcfecf90e44554048cd97c3d7fc0fe25dd4471747e77"),
    (("verify", "{k12}", "-k", "3", "-l", "4", "--mode", "full"),
     "3d5f01b6997f0b09c3cd5d35fc1b1969c3cba0da1a0456e4824fea897af229b2"),
    (("verify", "{k12}", "-k", "3", "-l", "3", "--per-s-counts", "--mode", "full"),
     "9e456ac716bbefd65c5b8bba4d442a1d35fc0c5d67af346bf3cb09aed1ed7470"),
    (("verify", "{k12}", "-k", "2", "-l", "3", "--per-s-counts", "--mode", "full"),
     "a7660f6ca4af749e334c0132e127909d529b984ad6d1d540440649729324ba80"),
    (("mc", "as-all", "-n", "7", "-k", "3", "-l", "1", "-t", "3", "--mode", "full",
      "--samples", "20"),
     "78cb6552f77d1b5fb9ef497d7d387209b8485249511ac714cba4c3a8af2eb00a"),
    (("mc", "as-all", "-n", "7", "-k", "3", "-l", "2", "-t", "3", "--mode", "full",
      "--samples", "20"),
     "051ae4f65da6662d0d8ac0c544734e53585006b8da2217ffa26549d47d83fe54"),
    (("mc", "as-all", "-n", "8", "-k", "3", "-l", "2", "-t", "3", "--mode", "full",
      "--samples", "10", "--workers", "2"),
     "8f4e0e0db8e7e63d98f0f9b09255ca856c26899046a342b0e18b5c5217b63200"),
    # star mode, recorded while the branch and bound still searched over the stars
    (("oracle", "{k12}", "-S", "1,2,3", "--mode", "star"),
     "d2719312aa4bac31a6b90972158cab1958b802e0c11b6e531793afeec85e1ca4"),
    (("oracle", "{k12}", "-S", "2,5,7,11", "--mode", "star"),
     "17590c42f567d9782e635c03aa78f3e9a1c029dd78aadb377682d77725975964"),
    (("verify", "{k12}", "-k", "4", "-l", "0", "--per-s-counts"),
     "966c33af871094a3bd7643cf9c93896dcfdcfae0c6bec2d4f6f532d8ca30ccfa"),
    # full mode where the clique-cover bound prunes, recorded under the two
    # fixed covers the greedy cover replaced
    (("oracle", "{k12r}", "-S", "1,2,3", "--mode", "full", "--budget", "2"),
     "a38351d4b2ba82142af5da660069017d6e671a040f10d5572eb8112e93c651f1"),
    (("oracle", "{k12r}", "-S", "2,5,7,11", "--mode", "full"),
     "e5e7a9091c93d21d51ddaf9a9ad03a8e71b7c337585ed48e87f8845a569e3282"),
    (("oracle", "{k12r}", "-S", "1,4,6,9,12", "--mode", "full", "--budget", "1"),
     "659ce6eb79d8a3694248cd75e3dbc5154c59d2c55f1e0d603a2dd70d5298f6c1"),
    # a many-color full-mode witness whose maximum, 7, is the bound
    # k // 2 + n - k at which the search stops; recorded before it stopped there
    (("oracle", "{k9}", "-S", "2,5,8", "--mode", "full", "--budget", "2"),
     "270cee90621e22ae1b5fd2cbf6e0a1cef5911e623d593027fdbe4fb6ac86ea4b"),
    # 3 colors hold budget 6 at a reach of one external vertex: the max and
    # witness of --budget 1, where the run was once refused for its price
    (("oracle", "{k9c3}", "-S", "1,2,3", "--mode", "full", "--budget", "6"),
     "80e855ce699a1786a5ba5b8b5f2de4da93a3bdf47602d1fe4b04b59f8498d9cc"),
    # recorded while the theta tolerance was still an option, at its default
    (("bounds", "-k", "3", "-l", "100", "--eps", "1/2"),
     "b330bf40ad1d91594def49eb3778dd386421b7b3310874eef728f8e9bb000b1c"),
    (("bounds", "-k", "4", "-l", "50", "--eps", "2/3"),
     "783e183dad482fe381a50d5cf00f18ed0bbc0b76c011e287f74b4ae568846ca7"),
]


def test_pinned_output_digests(capsys, tmp_path):
    files = {"{coloring}": tmp_path / "k6.coloring", "{k12}": tmp_path / "k12.coloring",
             "{k12r}": tmp_path / "k12r.coloring", "{k9}": tmp_path / "k9.coloring",
             "{k9c3}": tmp_path / "k9c3.coloring"}
    write_coloring(random_coloring(6, 4, SeededStream(21)), files["{coloring}"])
    write_coloring(random_coloring(12, 3, SeededStream(21)), files["{k12}"])
    write_coloring(random_coloring(12, 10, SeededStream(1)), files["{k12r}"])
    write_coloring(random_coloring(9, 30, SeededStream(1)), files["{k9}"])
    write_coloring(random_coloring(9, 3, SeededStream(0)), files["{k9c3}"])
    for argv, sha in PINNED_RUNS:
        code, out, _ = run(capsys, *(str(files.get(tok, tok)) for tok in argv))
        assert code in (0, 1), argv
        assert hashlib.sha256(out.encode()).hexdigest() == sha, argv


# exit code and stdout SHA-256 of searches (local unless the row picks another
# strategy): the walk, and so the bytes, must not depend on how the objective
# of each move is evaluated
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
    # k = 4 in full mode with budget 1, recorded while moves reused the oracle
    # counts of the sets off the moved edge
    (("-n", "7", "-k", "4", "-l", "2", "-t", "4", "--mode", "full", "--budget", "1",
      "--search-budget", "150"),
     0, "f2b472218ae294d06433539e291528cc2c04420a87cdc16d3d5dc23fa8a030c4"),
    (("-n", "6", "-k", "3", "-l", "1", "-t", "3", "--strategy", "exhaustive",
      "--search-budget", "100000"),
     0, "07bd691f1df9c35229f068a018a66e589eb4402dbb3f27ec5b2218f9af074ce6"),
    # every 3-coloring of K_5 fails ell = 3, and at t = 3 full mode reaches
    # every rainbow tree, so the drained scan prints definitive_nonexistence true
    (("-n", "5", "-k", "3", "-l", "3", "-t", "3", "--strategy", "exhaustive", "--mode", "full",
      "--search-budget", "20000"),
     3, "3a53b8f22a92559d885766e42a43c7e7e42d59b7c27b8ee4901b50460264a003"),
]


def test_pinned_local_search_digests(capsys):
    for argv, expected_code, sha in PINNED_SEARCH_RUNS:
        code, out, _ = run(capsys, "search", "--strategy", "local", *argv)
        assert code == expected_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == sha, argv


# numpy is the only runtime dependency: these runs must give the same exit
# code and stdout bytes in a process where mpmath cannot be imported
RUNTIME_ONLY_RUNS = [
    ("bounds", "-k", "3", "-l", "1"),
    ("bounds", "-k", "3", "-l", "100", "--eps", "1/2"),
    ("tail", "-n", "700", "-k", "3", "-l", "80"),
    ("mc", "bs", "-n", "7", "-k", "3", "-l", "1", "--samples", "1000", "--seed", "1"),
    ("repro", "theta"),
]

_WITHOUT_MPMATH = """
import contextlib, hashlib, io, json, sys
sys.modules["mpmath"] = None  # every import of mpmath now raises ImportError
from rainbowindex.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, hashlib.sha256(out.getvalue().encode()).hexdigest()]))
"""


def test_runs_without_mpmath(capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _WITHOUT_MPMATH, json.dumps(RUNTIME_ONLY_RUNS)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    expected = []
    for argv in RUNTIME_ONLY_RUNS:
        code, out, _ = run(capsys, *argv)
        expected.append([code, hashlib.sha256(out.encode()).hexdigest()])
    assert [json.loads(line) for line in done.stdout.splitlines()] == expected


def test_cli_import_loads_no_process_pool():
    # concurrent.futures.process is imported only when parallel_map starts a pool
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rainbowindex.cli; "
         "print('concurrent.futures.process' in sys.modules, 'multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


# --- manifest / replay ------------------------------------------------------

def test_manifest_written_and_replay_identical(capsys, tmp_path):
    manifest = tmp_path / "run.json"
    code, out, _ = run(capsys, "--manifest", str(manifest),
                       "bounds", "-k", "3", "-l", "2")
    assert code == 0
    doc = validate("run_manifest", manifest.read_text())
    assert doc["subcommand"] == "bounds"
    assert list(doc) == ["subcommand", "argv", "seed", "version", "exit_code",
                         "wall_time_s", "output_sha256"]
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


@pytest.mark.parametrize("kind, message", [("missing", "cannot read manifest"),
                                           ("malformed", "cannot read manifest"),
                                           ("unsigned", "has no 'output_sha256' field"),
                                           ("replay", "records a replay"),
                                           ("argv-int", "cannot read manifest"),
                                           ("argv-items", "cannot read manifest")])
def test_replay_of_an_unreadable_manifest_is_usage_error(capsys, tmp_path, kind, message):
    path = tmp_path / f"{kind}.json"
    if kind == "malformed":
        path.write_text("{not json")
    elif kind.startswith("argv-"):
        argv = 5 if kind == "argv-int" else ["bounds", 3]
        path.write_text(json.dumps({"argv": argv, "output_sha256": "0" * 64, "exit_code": 0}))
    elif kind == "unsigned":
        run(capsys, "--manifest", str(path), "bounds", "-k", "3", "-l", "2")
        doc = json.loads(path.read_text())
        del doc["output_sha256"]
        path.write_text(json.dumps(doc))
    elif kind == "replay":
        run(capsys, "--manifest", str(path), "bounds", "-k", "3", "-l", "2")
        doc = json.loads(path.read_text())
        doc["argv"] = ["replay", str(path)]
        path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "replay", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err



def test_manifest_flag_is_refused_for_replay(capsys, tmp_path, tmp_path_factory):
    # replay writes no manifest, so --manifest PATH before it is a usage error
    recorded = tmp_path_factory.mktemp("recorded") / "run.json"
    assert run(capsys, "--manifest", str(recorded), "bounds", "-k", "3", "-l", "1")[0] == 0
    code, out, err = run(capsys, "--manifest", str(tmp_path / "m.json"), "replay", str(recorded))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--manifest" in err
    assert list(tmp_path.iterdir()) == []

def test_unwritable_manifest_is_usage_error(capsys, tmp_path):
    _, report, _ = run(capsys, "bounds", "-k", "3", "-l", "1")
    manifest = tmp_path / "missing" / "m.json"
    code, out, err = run(capsys, "--manifest", str(manifest), "bounds", "-k", "3", "-l", "1")
    assert code == 2
    assert out == report
    # bounds writes its table to stderr first; the error is the last line
    assert err.splitlines()[-1].startswith(f"error: cannot write manifest {manifest}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("sink", [
    pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    "closed", "pipe"])
def test_unwritable_output_is_usage_error(capsys, tmp_path, sink):
    # a passing run whose report cannot be written (a full device, a closed
    # stdout, a pipe with no reader) exits 2 with one error line and no
    # traceback, and its manifest records the run's own code and digest
    coloring, manifest = tmp_path / "rainbow.coloring", tmp_path / "run.json"
    write_coloring(CompleteGraphColoring(6, 15, tuple(range(1, 16))), coloring)
    argv = ["verify", str(coloring), "-k", "3", "-l", "1"]
    _, report, _ = run(capsys, *argv)
    command = [sys.executable, "-m", "rainbowindex", "--manifest", str(manifest), *argv]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    if sink == "full":
        with open("/dev/full", "w") as full:
            done = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        code, err = done.returncode, done.stderr
    elif sink == "closed":
        done = subprocess.run(command, stderr=subprocess.PIPE, text=True, env=env, preexec_fn=lambda: os.close(1))
        code, err = done.returncode, done.stderr
    else:
        process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        process.stdout.close()  # no reader: the first write is a broken pipe
        err, code = process.stderr.read(), process.wait()
        process.stderr.close()
    assert code == 2, err
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write output: ")
    doc = json.loads(manifest.read_text())
    assert (doc["exit_code"], doc["output_sha256"]) == (0, hashlib.sha256(report.encode()).hexdigest())


class _FailingStderr:
    """A stderr whose every write raises, as a full device or a closed pipe does."""

    closed = False

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass

    def close(self):
        self.closed = True


def test_unwritable_stderr_fails_only_the_manifest_line(capsys, tmp_path, monkeypatch):
    # every stderr line but the manifest is best effort: error lines, the
    # bounds table, the sweep's threshold, search and replay notes and
    # tracebacks are dropped and each run keeps its own code; a manifest
    # line that cannot be written exits 2, as an unwritable --manifest does
    report = run(capsys, "bounds", "-k", "3", "-l", "1")[1]
    recorded, drifted = tmp_path / "recorded.json", tmp_path / "drifted.json"
    assert run(capsys, "--manifest", str(recorded), "bounds", "-k", "3", "-l", "1")[0] == 0
    doc = json.loads(recorded.read_text())
    drifted.write_text(json.dumps({**doc, "output_sha256": "0" * 64}))

    def broken(args):
        raise RuntimeError("boom")

    manifest = str(tmp_path / "run.json")
    cases = [
        (0, ["--manifest", manifest, "bounds", "-k", "3", "-l", "1"]),
        (2, ["--manifest", manifest, "verify", str(tmp_path / "missing.coloring"), "-k", "3", "-l", "1"]),
        (0, ["--manifest", manifest, "mc", "sweep", "-k", "3", "-l", "1", "-t", "3", "--n", "6:8:1",
             "--samples", "4", "--seed", "1"]),
        (3, ["--manifest", manifest, "search", "-n", "5", "-k", "3", "-l", "3", "-t", "3",
             "--strategy", "random", "--search-budget", "3", "--seed", "1"]),
        (4, ["--manifest", manifest, "tail", "-n", "7", "-k", "3", "-l", "1"]),
        (0, ["replay", str(recorded)]),
        (1, ["replay", str(drifted)]),
        (2, ["--manifest", manifest, "replay", str(recorded)]),
        (2, ["bounds", "-k", "3", "-l", "1"]),
        (2, ["tail", "-n", "7", "-k", "3", "-l", "1"]),
    ]
    for expected, argv in cases:
        stderr = _FailingStderr()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stderr", stderr)
            patch.setitem(cli._HANDLERS, "tail", broken)
            code = main(argv)
        assert code == expected, argv
        assert stderr.closed, argv
        assert capsys.readouterr().err == ""
    # the run itself is untouched: its output still reaches stdout
    monkeypatch.setattr(sys, "stderr", _FailingStderr())
    assert main(["bounds", "-k", "3", "-l", "1"]) == 2
    assert capsys.readouterr().out == report
    # as a process, on a full device and on a closed descriptor: closing the
    # failed stderr leaves nothing for the flush at exit, which would exit 120
    command = [sys.executable, "-m", "rainbowindex", "bounds", "-k", "3", "-l", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    sinks = [{"preexec_fn": lambda: os.close(2)}]
    if os.path.exists("/dev/full"):
        sinks.append({"stderr": open("/dev/full", "w")})
    for sink in sinks:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env, **sink)
        if "stderr" in sink:
            sink["stderr"].close()
        assert (done.returncode, done.stdout) == (2, report)


def test_runs_without_output_keep_their_code_without_stdout(capsys, tmp_path, monkeypatch):
    # usage errors and internal errors print no output, so a closed stdout
    # leaves their codes 2 and 4
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["verify", str(tmp_path / "missing.coloring"), "-k", "3", "-l", "1"]) == 2

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "bounds", broken)
    assert main(["bounds", "-k", "3", "-l", "2"]) == 4
    assert "cannot write output" not in capsys.readouterr().err


def test_parser_is_built_once(capsys, tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    manifest = tmp_path / "run.json"
    assert run(capsys, "--manifest", str(manifest), "bounds", "-k", "3", "-l", "1")[0] == 0
    assert run(capsys, "replay", str(manifest))[0] == 0
    assert built == []


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


def test_repro_averaging_zero_samples_rejected(capsys):
    code, out, err = run(capsys, "repro", "averaging", "-n", "8", "--samples", "0")
    assert code == 2
    assert out == ""
    assert "need samples >= 1" in err


def test_repro_k6(capsys, tmp_path):
    code, out, _ = run(capsys, "repro", "k6", "--out-dir", str(tmp_path / "certs"))
    assert code == 0
    assert out.count("[PASS]") == 2
    saved = sorted(p.name for p in (tmp_path / "certs").iterdir())
    assert saved == ["k6_ell1.coloring", "k6_ell2.coloring"]
