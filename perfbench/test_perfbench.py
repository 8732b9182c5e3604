"""Tests of the benchmark's own arithmetic and checkers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rainbowindex import (  # noqa: E402
    CompleteGraphColoring,
    VertexSet,
    cli,
    rainbow_star_count,
    verify_coloring,
)

import workloads  # noqa: E402
import run  # noqa: E402
from run import END_TO_END, ROOT, Runner, SpeedScale  # noqa: E402
from tracing import PER_LAYER, Span, Tracer, layer_metrics, patched, self_times  # noqa: E402


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == PER_LAYER


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("trees.verify_coloring", 1.0, 7.0, 0, 0),
        Span("trees.max_disjoint_rainbow_trees", 2.0, 3.0, 1, 0, value=2),
        Span("trees.max_disjoint_rainbow_trees", 4.0, 6.5, 1, 0, value=1),
        Span("colorings.read_coloring", 8.0, 8.5, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.5, 1.0, 2.5, 0.5])
    metrics = layer_metrics(spans)
    assert metrics["cli.main.self_s"] == pytest.approx(3.5)
    assert metrics["trees.verify_coloring.self_s"] == pytest.approx(2.5)
    assert metrics["trees.max_disjoint_rainbow_trees.calls"] == 2
    assert metrics["trees.max_disjoint_rainbow_trees.s"] == pytest.approx(3.5)
    assert metrics["trees.max_disjoint_rainbow_trees.call_p50_s"] == pytest.approx(1.75)
    assert metrics["trees.family_size.sum"] == 3
    assert metrics["search.oracle_calls_per_eval"] == 0.0


def unscaled(elapsed):
    return elapsed


def test_speed_scale_divides_by_the_probes_around_each_time(monkeypatch):
    probes = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(run, "probe", lambda: next(probes) * run.PROBE_REF_S)
    scale = SpeedScale()
    assert scale(6.0) == pytest.approx(2.0)  # cores ran at a third of the reference speed
    assert scale(5.0) == pytest.approx(2.0)  # probes 4 and 1 average 2.5


def test_lex_rank_matches_enumeration():
    for n in range(2, 10):
        for k in range(1, n + 1):
            for rank, members in enumerate(combinations(range(1, n + 1), k)):
                assert workloads.lex_rank(members, n) == rank


def test_scanned_ksets_from_reports():
    coloring = CompleteGraphColoring(6, 1, (1,) * 15)  # monochromatic: every 3-set fails
    failing = verify_coloring(coloring, 3, 1)
    assert failing.witness == (1, 2, 3)
    assert workloads.scanned_ksets(failing) == 1
    counted = verify_coloring(coloring, 3, 1, per_set_counts=True)
    assert workloads.scanned_ksets(counted) == math.comb(6, 3)
    assert workloads.scanned_ksets(verify_coloring(coloring, 3, 0)) == 0


def test_k3_counts_match_rainbow_star_count():
    rng = workloads.seed_rng(3)
    for n in (4, 7, 9):
        colors = rng.integers(1, 4, size=n * (n - 1) // 2)
        coloring = CompleteGraphColoring(n, 3, tuple(colors.tolist()))
        mat = workloads.color_matrix(n, colors)
        counts = workloads.k3_counts(mat, workloads.lex_triples(n))
        for (a, b, c), count in zip(combinations(range(1, n + 1), 3), counts):
            mono = coloring.color(a, b) == coloring.color(a, c) == coloring.color(b, c)
            assert count == rainbow_star_count(VertexSet((a, b, c)), coloring) + (not mono)


def test_traced_counts_repeat_and_restore_call_sites(tmp_path):
    workload = SmallSearch()
    ops = workload.prepare(workloads.seed_rng(1), tmp_path)
    original = cli.main
    passes = []
    for _ in range(2):
        tracer = Tracer()
        with patched(tracer):
            Runner(cli, ops).run_pass(unscaled)
        passes.append(layer_metrics(tracer.spans))
    assert cli.main is original
    assert passes[0]["search.evals"] == SmallSearch.BUDGET * len(ops)
    for name in ("colorings.recolored.calls", "trees.max_disjoint_rainbow_trees.calls",
                 "trees.family_size.sum", "search.oracle_calls_per_eval"):
        assert passes[0][name] == passes[1][name]


# Small instances of each workload, so that the checkers run in milliseconds.

class SmallVerify(workloads.VerifyExact):
    N, ELL, COLORINGS = 9, 2, 2


class SmallSweep(workloads.McSweep):
    N_VALUES, SAMPLES, SWEEPS = (5, 7, 9), 8, 1


class SmallOracle(workloads.OracleFull):
    N, T, COLORINGS = 7, 7, 2


class SmallSearch(workloads.SearchLocal):
    N, ELL, BUDGET, SEARCHES = 6, 5, 5, 2  # K_6 holds at most 4 such trees: never found


class SmallFind(workloads.SearchLocal):
    N, ELL, BUDGET, SEARCHES = 6, 1, 50, 2


def outputs(workload, tmp_path):
    ops = workload.prepare(workloads.seed_rng(5), tmp_path)
    runner = Runner(cli, ops)
    runner.run_pass(unscaled)
    return [(op, *runner.first[i]) for i, op in enumerate(ops)]


def assert_rejects(workload, op, code, out):
    errors, _ = workload.check(op, code, out)
    assert errors


@pytest.mark.parametrize("workload", [SmallVerify(), SmallSweep(), SmallOracle(), SmallSearch(),
                                      SmallFind()],
                         ids=lambda w: w.name)
def test_checkers_accept_real_outputs(workload, tmp_path):
    for op, code, out in outputs(workload, tmp_path):
        errors, work = workload.check(op, code, out)
        assert errors == []
        assert work.ksets > 0 and work.colorings > 0


def test_verify_checker_rejects_tampering(tmp_path):
    workload = SmallVerify()
    op, code, out = outputs(workload, tmp_path)[0]
    doc = json.loads(out)
    flipped = dict(doc, **{"pass": not doc["pass"]})
    assert_rejects(workload, op, 1 - code, json.dumps(flipped))  # exit code matches the flip
    miscounted = json.loads(out)
    miscounted["per_S_counts"][5]["count"] += 1
    assert_rejects(workload, op, code, json.dumps(miscounted))
    dropped = json.loads(out)
    dropped["per_S_counts"].pop()
    assert_rejects(workload, op, code, json.dumps(dropped))
    assert_rejects(workload, op, 1 - code, out)


def test_sweep_checker_rejects_tampering(tmp_path):
    workload = SmallSweep()
    op, code, out = outputs(workload, tmp_path)[0]
    header, *rows = out.splitlines()
    assert_rejects(workload, op, code, "\n".join([header] + rows[:-1]) + "\n")
    cells = rows[0].split(",")
    for column, value in ((2, str(int(cells[2]) + 1)), (2, "-1"), (4, "0.5")):
        tampered = cells.copy()
        tampered[column] = value
        assert_rejects(workload, op, code, "\n".join([header, ",".join(tampered)] + rows[1:]) + "\n")


def test_oracle_checker_rejects_tampering(tmp_path):
    workload = SmallOracle()
    op, code, out = max(outputs(workload, tmp_path), key=lambda r: json.loads(r[2])["max"])
    doc = json.loads(out)
    assert doc["witness"], "the instance needs a nonempty witness"
    shared = dict(doc, max=doc["max"] + 1, witness=doc["witness"] + doc["witness"][:1])
    assert_rejects(workload, op, code, json.dumps(shared))
    assert_rejects(workload, op, code, json.dumps(dict(doc, max=doc["max"] + 1)))


def test_search_checker_rejects_tampering(tmp_path):
    workload = SmallSearch()
    op = workload.prepare(workloads.seed_rng(5), tmp_path)[0]
    exhausted = {"found": False, "attempts": SmallSearch.BUDGET - 1}
    assert_rejects(workload, op, 3, json.dumps(exhausted))
    bad = {"found": True, "attempts": 2, "coloring": [1] * 15}  # monochromatic K_6 fails ell=1
    assert_rejects(workload, op, 0, json.dumps(bad))
