import concurrent.futures
import io
import math
import pickle
import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex import colorings
from rainbowindex.colorings import (
    BudgetExceededError,
    ColoringFormatError,
    CompleteGraphColoring,
    SeededStream,
    canonical_color_form,
    color_degrees,
    edge_count,
    edge_index,
    edge_pairs,
    enumerate_colorings,
    enumeration_state_count,
    format_coloring,
    parse_coloring,
    random_coloring,
    read_coloring,
    write_coloring,
)

from rainbowindex.trees import verify_coloring

from conftest import burnside_orbit_count, permute_colors


def test_edge_pairs_lexicographic_order():
    assert edge_pairs(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    for n in range(2, 9):
        pairs = edge_pairs(n)
        assert len(pairs) == edge_count(n)
        for idx, (u, v) in enumerate(pairs):
            assert edge_index(u, v, n) == idx
            assert edge_index(v, u, n) == idx


def test_edge_index_rejects_bad_edges():
    with pytest.raises(ValueError):
        edge_index(2, 2, 5)
    with pytest.raises(ValueError):
        edge_index(0, 1, 5)
    with pytest.raises(ValueError):
        edge_index(1, 6, 5)


def test_coloring_validation():
    with pytest.raises(ValueError):
        CompleteGraphColoring(1, 1, ())
    with pytest.raises(ValueError):
        CompleteGraphColoring(3, 0, (1, 1, 1))
    with pytest.raises(ValueError):
        CompleteGraphColoring(3, 2, (1, 2))
    with pytest.raises(ValueError):
        CompleteGraphColoring(3, 2, (1, 2, 3))


def test_color_lookup_symmetric():
    coloring = CompleteGraphColoring(4, 3, (1, 2, 1, 3, 2, 3))
    for u, v in edge_pairs(4):
        assert coloring.color(u, v) == coloring.color(v, u)
        assert coloring.array[u - 1, v - 1] == coloring.color(u, v)


def test_color_array_is_the_matrix_read_only():
    coloring = random_coloring(9, 300, SeededStream(8))
    table = coloring.array
    assert table is coloring.array  # built once per coloring
    assert table.tolist() == [[coloring.color(u, v) if u != v else 0 for v in range(1, 10)]
                              for u in range(1, 10)]
    with pytest.raises(ValueError):
        table[0, 1] = 1


def test_drawn_table_equals_the_table_of_the_colors():
    # random_coloring builds its table from the draws, not from .colors
    for t in (1, 3, 300):
        coloring = random_coloring(23, t, SeededStream(t))
        table = coloring.array
        rebuilt = CompleteGraphColoring(23, t, coloring.colors).array
        assert table.dtype == rebuilt.dtype and np.array_equal(table, rebuilt)
        assert not table.flags.writeable
        copy = pickle.loads(pickle.dumps(coloring))
        assert "array" not in copy.__dict__
        assert np.array_equal(copy.array, table) and not copy.array.flags.writeable


def test_parallel_map_starts_no_more_workers_than_jobs(monkeypatch):
    sizes = []

    class InlineExecutor:
        """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    square = (lambda x: x * x)
    assert list(colorings.parallel_map(square, [1, 2, 3], 5000)) == [1, 4, 9]
    assert list(colorings.parallel_map(square, [1, 2, 3], 2)) == [1, 4, 9]
    # one job, or none, runs in this process with no pool at all
    assert list(colorings.parallel_map(square, [7], 5000)) == [49]
    assert list(colorings.parallel_map(square, [], 8)) == []
    assert sizes == [3, 2]
    with pytest.raises(ValueError):
        colorings.parallel_map(square, [1], 0)
    # verify on K_10 at k = 3 has 8 first vertices, so at most 8 jobs
    coloring = random_coloring(10, 3, SeededStream(5))
    assert verify_coloring(coloring, 3, 1, workers=5000) == verify_coloring(coloring, 3, 1)
    assert 1 < sizes[-1] <= 8


def test_recolored_changes_one_edge():
    coloring = CompleteGraphColoring(4, 3, (1, 2, 1, 3, 2, 3))
    changed = coloring.recolored(2, 4, 3)
    assert changed.color(2, 4) == 3
    assert sum(a != b for a, b in zip(coloring.colors, changed.colors)) == 1
    assert changed == CompleteGraphColoring(4, 3, changed.colors)
    for color in (0, 4):
        with pytest.raises(ValueError, match=f"color {color} outside palette 1..3"):
            coloring.recolored(2, 4, color)


def test_recolored_derives_the_table_of_a_built_parent():
    # a parent whose table is built hands the child a copy with the edge's two
    # entries rewritten, equal to the table built from the child's colors and
    # as read-only, and its own table keeps the old color; a parent without
    # one leaves the child's lazy
    stream = SeededStream(17)
    for case, (n, t) in enumerate(((2, 1), (5, 3), (9, 255), (9, 256), (12, 7))):
        coloring = random_coloring(n, t, stream.substream(case))
        lazy = CompleteGraphColoring(n, t, coloring.colors)
        for u, v in ((1, 2), (n - 1, n), (2, n)) if n > 2 else ((1, 2),):
            color = coloring.color(u, v) % t + 1
            child = coloring.recolored(u, v, color)
            table = colorings._table(n, t, child.colors)
            assert "array" in child.__dict__
            assert child.array.dtype == table.dtype and np.array_equal(child.array, table)
            assert not child.array.flags.writeable
            assert coloring.array[u - 1, v - 1] == coloring.array[v - 1, u - 1] == coloring.color(u, v)
            assert "array" not in lazy.recolored(u, v, color).__dict__
            coloring = child


# --- randomness -------------------------------------------------------------

def test_forced_single_color():
    coloring = random_coloring(2, 1, SeededStream(123))
    assert coloring.colors == (1,)


def test_random_coloring_deterministic():
    a = random_coloring(6, 3, SeededStream(99, 5))
    b = random_coloring(6, 3, SeededStream(99, 5))
    assert a == b == CompleteGraphColoring(6, 3, a.colors)
    c = random_coloring(6, 3, SeededStream(99, 6))
    assert a != c


def test_random_coloring_rejects_bad_domain():
    with pytest.raises(ValueError):
        random_coloring(1, 3, SeededStream(0))
    with pytest.raises(ValueError):
        random_coloring(5, 0, SeededStream(0))


def test_substream_addressing_disjoint_and_reproducible():
    root = SeededStream(7)
    children = [root.substream(i) for i in range(4)]
    assert len({c.stream_index for c in children}) == 4
    grand = children[1].substream(2)
    assert grand == SeededStream(7).substream(1).substream(2)
    draws = grand.generator().integers(0, 1 << 30, size=8)
    again = grand.generator().integers(0, 1 << 30, size=8)
    assert list(draws) == list(again)


def test_generator_words_draw_as_the_integer_counter_and_key():
    for seed in (0, (1 << 64) - 1):
        for index in (0, (1 << 64) - 1, 1 << 64, (1 << 127) + 1, (1 << 128) - 1):
            expected = np.random.Generator(np.random.Philox(counter=index << 128, key=seed))
            drawn = SeededStream(seed, index).generator()
            assert drawn.integers(0, 1 << 62, size=9).tolist() == expected.integers(0, 1 << 62, size=9).tolist()
            assert drawn.random(3).tolist() == expected.random(3).tolist()


def test_drawn_rows_equal_a_fresh_generator_per_stream():
    # one generator re-seated at each stream's start draws what a fresh one
    # draws: counters below and above 2^64, repeated streams, and odd edge
    # counts, which leave a half-used 32-bit word behind at small palettes
    streams = [SeededStream(seed, index) for seed in (0, 5, (1 << 64) - 1)
               for index in (0, 3, (1 << 64) - 1, 1 << 64, (1 << 127) + 5)]
    streams += [streams[4], streams[4], SeededStream(9).substream(2).substream(7)]
    for n in (5, 6):
        for t in (1, 3, 300):
            draws, tables = colorings._random_tables(n, t, streams)
            for row, table, stream in zip(draws, tables, streams):
                expected = stream.generator().integers(1, t + 1, size=edge_count(n))
                assert row.tolist() == expected.tolist()
                assert np.array_equal(table, CompleteGraphColoring(n, t, tuple(expected.tolist())).array)


def test_seeded_stream_validation():
    with pytest.raises(ValueError):
        SeededStream(-1)
    with pytest.raises(ValueError):
        SeededStream(1 << 64)
    with pytest.raises(ValueError):
        SeededStream(0).substream(-1)


def test_color_frequency_matches_uniform_law():
    # empirical frequency of color 1 within 3 standard errors of 1/3
    stream = SeededStream(2024)
    total = 0
    ones = 0
    for i in range(200):
        coloring = random_coloring(30, 3, stream.substream(i))
        total += len(coloring.colors)
        ones += sum(1 for c in coloring.colors if c == 1)
    p = 1 / 3
    se = math.sqrt(p * (1 - p) / total)
    assert abs(ones / total - p) <= 3 * se


# --- color degrees ----------------------------------------------------------

def test_color_degrees_monochromatic():
    coloring = CompleteGraphColoring(5, 3, (1,) * 10)
    table = color_degrees(coloring)
    for v in range(1, 6):
        assert table.count(v, 1) == 4
        assert table.count(v, 2) == 0
        assert table.count(v, 3) == 0


def test_color_degrees_rainbow_triangle():
    coloring = CompleteGraphColoring(3, 3, (1, 2, 3))
    table = color_degrees(coloring)
    for v in range(1, 4):
        row = sorted(table.row(v))
        assert row == [0, 1, 1]


@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=2, max_value=12),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_color_degree_rows_sum_to_n_minus_1(seed, n, t):
    coloring = random_coloring(n, t, SeededStream(seed))
    table = color_degrees(coloring)
    for v in range(1, n + 1):
        assert sum(table.row(v)) == n - 1
        assert table.row(v) == tuple(
            sum(coloring.color(u, v) == c for u in range(1, n + 1) if u != v) for c in range(1, t + 1))


# --- enumeration ------------------------------------------------------------

def test_enumerate_symmetry_broken_k3_two_colors():
    got = [c.colors for c in enumerate_colorings(3, 2)]
    assert got == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]


@pytest.mark.parametrize("n,t", [(3, 2), (4, 2), (4, 3)])
def test_enumeration_count_matches_burnside(n, t):
    m = edge_count(n)
    count = sum(1 for _ in enumerate_colorings(n, t))
    assert count == burnside_orbit_count(m, t)
    assert count == enumeration_state_count(n, t)


@pytest.mark.parametrize("n,t", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_orbits_partition_full_space(n, t):
    # applying every color permutation to each representative and
    # re-canonicalizing reproduces that representative, and the orbits
    # tile the unbroken space exactly
    reps = list(enumerate_colorings(n, t))
    seen: set[tuple[int, ...]] = set()
    for rep in reps:
        for perm_images in permutations(range(1, t + 1)):
            perm = dict(zip(range(1, t + 1), perm_images))
            moved = permute_colors(rep, perm)
            assert canonical_color_form(moved.colors) == rep.colors
            seen.add(moved.colors)
    assert len(seen) == t ** edge_count(n)


def test_enumerated_colorings_equal_validated_ones():
    # enumeration skips validation; its colorings must still behave like
    # publicly constructed ones
    for coloring in enumerate_colorings(4, 3):
        built = CompleteGraphColoring(4, 3, coloring.colors)
        assert coloring == built
        assert hash(coloring) == hash(built)
        assert (coloring.array == built.array).all()


def test_enumeration_budget_error_reports_size(monkeypatch):
    monkeypatch.setattr(colorings, "ENUM_BUDGET", 1000)
    with pytest.raises(BudgetExceededError) as err:
        list(enumerate_colorings(6, 3))
    assert err.value.size == 2_391_485


def test_enumeration_state_count_matches_the_stirling_recurrence():
    # sum_j S(m, j) by the recurrence S(m, j) = j S(m-1, j) + S(m-1, j-1),
    # row by row; a palette larger than the edge count adds nothing
    for t in (1, 2, 3, 5):
        row = [1] + [0] * t
        for m in range(1, edge_count(40) + 1):
            row = [0] + [j * row[j] + row[j - 1] for j in range(1, t + 1)]
            n = math.isqrt(2 * m) + 1
            if edge_count(n) == m:
                assert enumeration_state_count(n, t) == sum(row)
    assert enumeration_state_count(3, 7) == enumeration_state_count(3, 3) == 5


def test_enumeration_count_k6_three_colors_vs_burnside():
    # 2 391 485 canonical sequences of length 15 over three colors
    expected = burnside_orbit_count(15, 3)
    assert expected == 2391485
    assert enumeration_state_count(6, 3) == expected
    assert sum(1 for _ in enumerate_colorings(6, 3)) == expected


# --- file format ------------------------------------------------------------

def test_round_trip(tmp_path):
    coloring = random_coloring(7, 3, SeededStream(5))
    path = tmp_path / "k7.coloring"
    text = write_coloring(coloring, path)
    assert read_coloring(path) == coloring
    assert parse_coloring(text) == coloring


def test_round_trip_stream():
    coloring = random_coloring(5, 2, SeededStream(17))
    buf = io.StringIO()
    write_coloring(coloring, buf)
    buf.seek(0)
    assert read_coloring(buf) == coloring


def test_format_definition_example():
    coloring = parse_coloring("3 2\n1 2 1\n")
    assert coloring.color(1, 2) == 1
    assert coloring.color(1, 3) == 2
    assert coloring.color(2, 3) == 1


def test_comments_and_whitespace_ignored():
    text = "# a comment\n3 2\n\n1 2\n# middle\n1\n"
    assert parse_coloring(text).colors == (1, 2, 1)


def test_color_exceeding_palette_rejected_with_line():
    with pytest.raises(ColoringFormatError) as err:
        parse_coloring("3 2\n1 4 1\n")
    assert "color 4 exceeds palette 2" in str(err.value)
    assert err.value.line == 2


def test_truncated_body_rejected():
    with pytest.raises(ColoringFormatError) as err:
        parse_coloring("3 2\n1 2\n")
    assert "expected 3 edge colors, found 2" in str(err.value)


def test_extra_colors_rejected():
    with pytest.raises(ColoringFormatError):
        parse_coloring("3 2\n1 2 1 1\n")


def test_non_integer_token_rejected():
    with pytest.raises(ColoringFormatError) as err:
        parse_coloring("3 2\n1 x 1\n")
    assert err.value.line == 2


def _token_by_token_error(text):
    """The error of the reference parser, which checks every color token in
    turn (integer, room left, palette, positive): (line, message) or None."""
    header, held = None, 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if header is None:
            header = tuple(map(int, tokens))
            continue
        n, t = header
        for tok in tokens:
            try:
                c = int(tok)
            except ValueError:
                return lineno, f"non-integer color {tok!r}"
            if held >= n * (n - 1) // 2:
                return lineno, f"too many colors: expected {n * (n - 1) // 2} entries"
            if c > t:
                return lineno, f"color {c} exceeds palette {t}"
            if c < 1:
                return lineno, f"color {c} is not a positive color index"
            held += 1
    return None


def test_whole_line_checks_report_the_first_bad_token():
    # seeded corruptions of valid files: the line and message are those of
    # the first token that a token-by-token parse rejects
    rng = random.Random(7)
    bad = ["x", "0", "-2", "9", "1.5", "4", "3"]
    for case in range(400):
        n, t = rng.randint(2, 6), rng.randint(1, 4)
        lines = format_coloring(random_coloring(n, t, SeededStream(case))).splitlines()
        for _ in range(rng.randint(1, 3)):
            row = rng.randrange(1, len(lines))
            tokens = lines[row].split()
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(bad + ["1"]))
            lines[row] = " ".join(tokens)
        text = "\n".join(lines) + "\n"
        expected = _token_by_token_error(text)
        if expected is None:
            parse_coloring(text)
            continue
        with pytest.raises(ColoringFormatError) as err:
            parse_coloring(text)
        assert (err.value.line, str(err.value)) == (expected[0], f"line {expected[0]}: {expected[1]}")


def _outcome(parse, text):
    try:
        return parse(text).colors
    except ColoringFormatError as err:
        return err.line, str(err)


def test_one_pass_parse_agrees_with_the_token_by_token_parse():
    # the one numpy pass accepts every well-formed body within int64, with
    # its table built from the values; every rejection, message and line
    # comes from the token walk, and a palette past int64 is read by it
    cases = {
        "3 12\n# between rows\n\n1 2\n\n# again\n3\n": (1, 2, 3),
        "3 12\n1\t2\t3\n": (1, 2, 3),
        "3 12\n+3 2 1\n": (3, 2, 1),
        "3 12\n1_0 2 1\n": (10, 2, 1),
        "3 12\n0x1 2 1\n": (2, "line 2: non-integer color '0x1'"),
        "3 12\n3.0 2 1\n": (2, "line 2: non-integer color '3.0'"),
        "3 12\n1 2\n# last\nx\n": (4, "line 4: non-integer color 'x'"),
        "3 12\n1 2\n13\n": (3, "line 3: color 13 exceeds palette 12"),
        "3 12\n1 2\n0\n": (3, "line 3: color 0 is not a positive color index"),
        "3 12\n1 2\n\n": (3, "line 3: expected 3 edge colors, found 2"),
        "3 12\n1 2\n3 4\n": (3, "line 3: too many colors: expected 3 entries"),
        "3 12\n1 2 99999999999999999999\n": (2, "line 2: color 99999999999999999999 exceeds palette 12"),
    }
    for text, expected in cases.items():
        assert _outcome(parse_coloring, text) == expected, text
        if not isinstance(expected[1], str):
            assert "array" in parse_coloring(text).__dict__, text
    wide = parse_coloring("3 99999999999999999999\n1 2\n99999999999999999999\n")
    assert wide.colors == (1, 2, 99999999999999999999)
    assert "array" not in wide.__dict__
    coloring = random_coloring(40, 300, SeededStream(3))
    parsed = parse_coloring(format_coloring(coloring))
    assert parsed == coloring and np.array_equal(parsed.array, coloring.array)
    assert not parsed.array.flags.writeable


def test_missing_header_rejected():
    with pytest.raises(ColoringFormatError):
        parse_coloring("# only comments\n")


def test_writer_layout_is_stable():
    coloring = CompleteGraphColoring(4, 3, (1, 2, 1, 3, 2, 3))
    assert format_coloring(coloring) == "4 3\n1 2 1\n3 2\n3\n"
