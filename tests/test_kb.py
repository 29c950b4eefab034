import csv
import io
import json
import random
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fuzzycp import (
    AttributeConfig,
    ClusterModel,
    ConfigError,
    Dataset,
    DegenerateDataError,
    EmptyDatasetError,
    FuzzycpError,
    KBConfig,
    KnowledgeBase,
    ParseError,
    ShapeError,
    build_knowledge_base,
    fuzzy_c_means,
    ingest_tabular,
)
from fuzzycp.errors import MalformedDocumentError
from fuzzycp.kb import _membership_grid, _quantiles
from fuzzycp.kbdoc import document_text
from helpers import (
    fcm_memberships,
    oracle_fcm,
    oracle_membership_grid,
    reference_fcm,
    reference_ingest,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "demos" / "data"


# --- ingestion ---------------------------------------------------------------


def test_ingest_header_and_rows():
    ds = ingest_tabular("price\n10\n20\n")
    assert ds.attributes == ["price"]
    assert ds.record_count == 2
    assert ds.records[0, 0] == 10.0


def test_ingest_empty_stream():
    with pytest.raises(EmptyDatasetError):
        ingest_tabular("")


def test_ingest_ragged_rows():
    with pytest.raises(ShapeError) as err:
        ingest_tabular("a,b\n1,2\n1,2,3\n")
    assert err.value.record == 1
    assert str(err.value) == "record 1: expected 2 cells, found 3"


def test_ingest_non_numeric_cell():
    with pytest.raises(ParseError) as err:
        ingest_tabular("a,b\n1,2\n3,oops\n")
    assert (err.value.record, err.value.attribute) == (1, "b")
    assert str(err.value) == "attribute 'b', record 1: cannot parse 'oops' as a number"
    assert not hasattr(err.value, "line") and not hasattr(err.value, "column")


def test_dataset_refuses_records_that_are_not_a_rectangle():
    with pytest.raises(ShapeError, match="^records do not form a rectangle over the "
                                         "attributes$") as err:
        Dataset(["a", "b"], [[1.0]])
    assert vars(err.value) == {}  # no record is at fault


def test_dataset_column_of_an_unknown_attribute():
    with pytest.raises(ConfigError, match="^unknown attribute 'z'$"):
        Dataset(["a"], [[1.0]]).column("z")


def test_ingest_without_header_synthesizes_names():
    ds = ingest_tabular("1,2\n3,4\n", has_header=False)
    assert ds.attributes == ["col0", "col1"]
    assert ds.record_count == 2


def test_ingest_alternate_delimiter():
    ds = ingest_tabular("a;b\n1;2\n", delimiter=";")
    assert ds.attributes == ["a", "b"]


@pytest.mark.parametrize("delimiter", ["", ",,", "\n", "\r"])
def test_ingest_rejects_delimiter_not_one_character(delimiter):
    with pytest.raises(ConfigError, match="delimiter"):
        ingest_tabular("a,b\n1,2\n", delimiter=delimiter)


# rows past the 8 KB that a text stream decodes ahead of the header
PAST_READ_AHEAD = b"a,b\n" + b"1,2\n" * 2500


@pytest.mark.parametrize(
    "source",
    [
        b"a,b\n1,\xff\n",
        io.BytesIO(b"\xfe\n1\n"),
        pytest.param(PAST_READ_AHEAD + b"3,\xff\n", id="past-read-ahead-bytes"),
        pytest.param(io.BytesIO(PAST_READ_AHEAD + b"3,\xff\n"), id="past-read-ahead-file"),
        pytest.param(PAST_READ_AHEAD + b"3,4\xe2\x82", id="at-the-end-bytes"),
        pytest.param(io.BytesIO(PAST_READ_AHEAD + b"3,4\xe2\x82"), id="at-the-end-file"),
    ],
)
def test_ingest_rejects_bytes_not_utf8(source):
    data = source if isinstance(source, bytes) else source.getvalue()
    with pytest.raises(UnicodeDecodeError) as decoding:
        data.decode("utf-8")
    with pytest.raises(ParseError) as err:
        ingest_tabular(source)
    # the byte is placed in the whole input, wherever the reader met it
    assert str(err.value) == f"input is not UTF-8 text: {decoding.value}"


def test_ingest_refuses_text_with_a_lone_surrogate_as_not_utf8():
    for text in ("a\n\ud800\n", "\ud800\n1\n"):
        with pytest.raises(ParseError, match="^input is not UTF-8 text: 'utf-8' codec can't "
                                             "decode byte 0xed in position "):
            ingest_tabular(text)


def test_ingest_accepts_bytes_and_files():
    as_bytes = ingest_tabular(b"a\n1\n")
    as_file = ingest_tabular(io.BytesIO(b"a\n1\n"))
    assert as_bytes.records.tolist() == as_file.records.tolist()


def test_ingest_empty_cell_is_missing():
    ds = ingest_tabular("a,b\n1,\n2,3\n")
    assert np.isnan(ds.records[0, 1])
    assert ds.records[1, 1] == 3.0


def test_ingest_strips_byte_order_mark():
    ds = ingest_tabular(b"\xef\xbb\xbfprice\n10\n")
    assert ds.attributes == ["price"]


def test_ingest_drops_one_byte_order_mark_from_text_as_from_bytes():
    text = "\ufeff\ufeffx,y\n1,2\n"
    assert ingest_tabular(text).attributes == ["\ufeffx", "y"]
    assert ingest_tabular(text.encode("utf-8")).attributes == ["\ufeffx", "y"]


def test_ingest_rejects_duplicate_header_names():
    with pytest.raises(ParseError):
        ingest_tabular("a,a\n1,2\n")


# Cells the random tables draw from: numbers in the forms both parsers read,
# then cells only the row parser takes and cells that no parser takes.
NUMBER_CELLS = ["0", "17", "-2.5", "3.25e2", "-1E-3", "+.5", "5.", " 6 ", "\t7", "8 ",
                "1e400", "nan", "-nan", "inf", "-Infinity", "NaN"]
OTHER_CELLS = ["", "  ", "1_000", "#", "# 4", "x", '"9"', '"1,5"', "0x10", "١", "1 2"]


def _random_table(rng):
    """(text, has_header, delimiter, holes) of a random table; about half of
    them hold numbers only, so the C reader takes them whole, and most of
    those also hold empty cells (``holes``), which it takes as ``nan``."""
    delimiter = rng.choice([",", ",", "\t", ";"])
    width = rng.randint(1, 4)
    clean = rng.random() < 0.5
    holes = clean and rng.random() < 0.7
    lines = []
    if rng.random() < 0.7:
        names = [f"a{i}" for i in range(width)]
        if rng.random() < 0.2:
            names[0] = f'"{names[0]}"'
        lines.append(delimiter.join(names))
        has_header = True
    else:
        has_header = False
    for _ in range(rng.choice([0, 1, 2, 5, 20])):
        cells = NUMBER_CELLS if clean or rng.random() < 0.9 else OTHER_CELLS
        row_width = width if clean or rng.random() < 0.95 else rng.randint(1, width + 1)
        row = [rng.choice(cells) for _ in range(row_width)]
        if holes:
            row = ["" if rng.random() < 0.3 else cell for cell in row]
        lines.append(delimiter.join(row))
        if not clean and rng.random() < 0.05:
            lines.append(rng.choice(["", " "]))
    newline = rng.choice(["\n", "\r\n", "\r"])
    text = newline.join(lines) + rng.choice([newline, ""])
    return text, has_header, delimiter, holes


def _outcome(parse):
    try:
        attributes, records = parse()
    except FuzzycpError as exc:
        location = [getattr(exc, key, None) for key in ("record", "attribute", "line", "column")]
        return type(exc), str(exc), location
    return attributes, records.shape, records.tobytes()


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """Every call of ``np.loadtxt``: its result, or None if it raised."""
    calls = []
    loadtxt = np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        calls.append(None)
        calls[-1] = loadtxt(*args, **kwargs)
        return calls[-1]

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    return calls


def test_ingest_matches_the_row_parser_on_random_tables(loadtxt_calls, recwarn):
    taken = loadtxt_calls
    rng = random.Random(12)
    taken_rows, read_holes = [], 0
    for _ in range(600):
        text, has_header, delimiter, holes = _random_table(rng)
        source = rng.choice([text, ("\ufeff" + text).encode("utf-8"), text.encode("utf-8")])

        def fast():
            ds = ingest_tabular(source, has_header=has_header, delimiter=delimiter)
            return ds.attributes, ds.records

        expected = _outcome(lambda: reference_ingest(text, has_header, delimiter))
        taken.clear()
        assert _outcome(fast) == expected, (text, has_header, delimiter)
        assert len(taken) <= 1  # the C reader runs once at most
        result = taken[0] if taken else None
        read_holes += holes and result is not None and bool(np.isnan(result).any())
        taken_rows.append(0 if result is None else len(result))
    # the C reader, not only the row parser, produced many of the datasets,
    # empty cells included
    assert sum(rows > 0 for rows in taken_rows) >= 150
    assert read_holes >= 100
    assert not recwarn.list  # a header without rows is no warning


@pytest.mark.parametrize(
    "text, has_header, delimiter",
    [
        ("a,b\r\n1,2\r\n3,4\r\n", True, ","),
        ("\ufeffa,b\n1 , 2\n", True, ","),
        ("a\tb\n1e3\t-2E-2\n", True, "\t"),
        ("a,b\n1,\n,2\n", True, ","),
        ("a,b\n1,nan\ninf,-inf\n", True, ","),
        ("a\n1_000\n", True, ","),
        ("a,b\n1,2\n#3,4\n", True, ","),
        ('a,b\n"1",2\n', True, ","),
        ('"a,b",c\n1,2\n', True, ","),
        ("1,2\n3,4\n", False, ","),
        ("a,b\n", True, ","),
        ("a,b\n\n\n", True, ","),
        ("a,b\n1,2\n3\n", True, ","),
        ("a,b\n1,2,3\n", True, ","),
        ("a\n \n1\n", True, ","),
        ("a,b\n1,2\n  \n", True, ","),
        ("\n\na\n1\n\n2\n", True, ","),
        ("a\n1\r2\n", True, ","),
        ("a,b\n1,2\n3\r4,5\n", True, ","),
        ("a,b\r1,2\r,4\r", True, ","),
        ("a,b\n1,", True, ","),
        ("a;b\r\n;2\r\n1;\r\n", True, ";"),
        ("a\tb\tc\n\t\t\n1\t\t3", True, "\t"),
        (",,,\n1,,,2\n", False, ","),
        ('a"b\n"1\n', True, '"'),
        ("a§b\n1§\n§2\n", True, "§"),
        ("a,,b\n1,,3\n", True, ","),
        ('"x,,y",z\n1,\n', True, ","),
        ('"x\n,",b\n1,\n', True, ","),
    ],
)
def test_ingest_matches_the_row_parser(text, has_header, delimiter, recwarn):
    def fast():
        ds = ingest_tabular(text, has_header=has_header, delimiter=delimiter)
        return ds.attributes, ds.records

    plain = text.removeprefix("\ufeff")
    expected = _outcome(lambda: reference_ingest(plain, has_header, delimiter))
    assert _outcome(fast) == expected
    assert not recwarn.list


@pytest.mark.parametrize(
    "text, delimiter",
    [
        ("a,b\n1,", ","),
        ("a,b\n1,2\n,4\n", ","),
        (",2\n3,\n", ","),
        ("a,b,c,d\n1,,,4\n", ","),
        ("a,b\r1,\r,2\r", ","),
        ("a;b\r\n;2\r\n1;\r\n", ";"),
        ("a\tb\n\t2\n", "\t"),
        ("a,,b\n1,,3\n", ","),
    ],
)
def test_ingest_reads_empty_cells_in_the_c_reader(loadtxt_calls, text, delimiter):
    has_header = text[0] == "a"
    ds = ingest_tabular(text, has_header=has_header, delimiter=delimiter)
    attributes, records = reference_ingest(text, has_header, delimiter)
    assert (ds.attributes, ds.records.tobytes()) == (attributes, records.tobytes())
    # one call, which took the empty cells: no pass fails first
    assert len(loadtxt_calls) == 1 and np.isnan(loadtxt_calls[0]).any()


@pytest.mark.parametrize("missing_share", [0.01, 0.0])
def test_ingest_peaks_below_four_times_the_table(missing_share):
    rng = np.random.default_rng(3)
    values = np.round(np.abs(rng.normal(100.0, 30.0, size=(20_000, 4))), 6)
    values[rng.random(values.shape) < missing_share] = np.nan
    rows = [",".join("" if np.isnan(v) else repr(v) for v in row) for row in values.tolist()]
    data = "\n".join(["a,b,c,d", *rows, ""]).encode()
    tracemalloc.start()
    try:
        ds = ingest_tabular(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.records.tobytes() == values.tobytes()
    assert peak < 4 * len(data)


def test_ingest_ends_a_row_at_a_lone_carriage_return():
    lf = ingest_tabular("a,b\n1,2\n,4\n")
    for newline in ("\r", "\r\n"):
        ds = ingest_tabular(f"a,b{newline}1,2{newline},4{newline}")
        assert ds.attributes == lf.attributes
        assert ds.records.tobytes() == lf.records.tobytes()
    with pytest.raises(ShapeError) as info:
        ingest_tabular("a,b\n1,2\n3\r4,5\n")
    assert info.value.record == 1


def test_ingest_cell_over_the_csv_field_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="line 2 of the table: field larger"):
        ingest_tabular("a,b\n1," + "x" * (csv.field_size_limit() + 1) + "\n")


# --- fuzzy c-means -----------------------------------------------------------


def test_fcm_two_well_separated_groups():
    # oracle run (textbook reference): centroids converge onto {0, 10} and
    # every 0-valued point belongs to the low cluster almost entirely
    values = [0, 0, 0, 10, 10, 10]
    result = fuzzy_c_means(values, c=2, m=2.0, seed=3)
    memberships = fcm_memberships(result, values)
    assert result.centroids[0] == pytest.approx(0.0, abs=1e-3)
    assert result.centroids[1] == pytest.approx(10.0, abs=1e-3)
    assert memberships[0, 0] >= 0.99
    assert memberships[3, 1] >= 0.99

    cents, u, _ = reference_fcm(values, c=2, m=2.0)
    assert np.allclose(result.centroids, cents, atol=1e-3)
    assert np.allclose(memberships, np.asarray(u), atol=1e-3)


def test_fcm_midway_point_splits_evenly():
    values = [0.0] * 10 + [10.0] * 10 + [5.0]
    result = fuzzy_c_means(values, c=2, m=2.0, seed=1)
    mid = fcm_memberships(result, values)[-1]
    assert mid[0] == pytest.approx(mid[1], abs=1e-6)


def test_fcm_point_on_centroid_is_one_hot():
    values = [0, 0, 0, 0, 10, 10, 10, 10]
    result = fuzzy_c_means(values, c=2, m=2.0, seed=0)
    memberships = fcm_memberships(result, values)
    # converged centroids sit on the data modes, so those points saturate
    assert memberships[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert memberships[-1, 1] == pytest.approx(1.0, abs=1e-9)


def test_fcm_rows_sum_to_one():
    rng = np.random.default_rng(11)
    values = rng.normal(size=200) * 4 + np.repeat([0, 20], 100)
    result = fuzzy_c_means(values, c=3, m=2.0, seed=5)
    sums = fcm_memberships(result, values).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_fcm_objective_non_increasing():
    rng = np.random.default_rng(2)
    values = np.concatenate([rng.normal(0, 1, 60), rng.normal(8, 1, 60)])
    result = fuzzy_c_means(values, c=2, m=2.0, seed=2)
    trace = result.objective_trace
    assert len(trace) >= 1
    for earlier, later in zip(trace, trace[1:]):
        assert later <= earlier * (1 + 1e-12) + 1e-12


def test_fcm_deterministic_for_fixed_seed():
    values = list(range(30))
    a = fuzzy_c_means(values, c=3, seed=9)
    b = fuzzy_c_means(values, c=3, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(fcm_memberships(a, values), fcm_memberships(b, values))


def test_fcm_too_few_distinct_values():
    with pytest.raises(DegenerateDataError):
        fuzzy_c_means([1.0, 1.0, 1.0], c=2)


def test_fcm_refuses_clusters_that_collapse():
    # two values one float step apart: both centroids round onto 1.0
    values = [1.0] * 100 + [1.0000000000000002] * 2
    with pytest.raises(DegenerateDataError, match="^clusters collapsed onto the same centroid$"):
        fuzzy_c_means(values, c=2)


def test_fcm_rejects_non_finite():
    with pytest.raises(ParseError):
        fuzzy_c_means([1.0, float("nan"), 3.0], c=2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"c": 1},
        {"c": 2, "m": 1.0},
        {"c": 2, "tol": 0.0},
        {"c": 2, "tol": float("nan")},
        {"c": 2, "tol": float("inf")},
        {"c": 2, "max_iter": 0},
        {"c": 2, "max_iter": -1},
        {"c": 2, "m": float("nan")},
        {"c": 2, "m": float("inf")},
        {"c": 2, "m": 1e308},
    ],
)
def test_fcm_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigError):
        fuzzy_c_means([0.0, 1.0, 2.0, 3.0], **kwargs)


def test_fcm_centroids_ascending_many_seeds():
    rng = np.random.default_rng(0)
    for seed in range(20):
        values = rng.uniform(0, 100, size=50)
        result = fuzzy_c_means(values, c=3, seed=seed)
        assert np.all(np.diff(result.centroids) > 0)


def _fcm_cases(count):
    """(values, c, m, seed) for the oracle comparisons: spread-out values,
    heavy duplicates, and inputs with fewer distinct values than clusters."""
    rng = np.random.default_rng(8)
    for case in range(count):
        c = int(rng.integers(2, 6))
        m = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        kind = case % 4
        if kind == 0:
            values = rng.normal(size=int(rng.integers(c, 300))) * rng.uniform(0.01, 1000)
        elif kind == 1:  # a handful of distinct values, each repeated
            values = rng.integers(0, c + 2, size=int(rng.integers(c, 300))).astype(float)
        elif kind == 2:
            values = np.round(rng.gamma(2.0, 10.0, size=int(rng.integers(c, 300))))
        else:  # few values: often fewer distinct ones than clusters
            values = rng.integers(-2, 3, size=int(rng.integers(1, 8))) * 0.5
        yield values, c, m, case


def test_fcm_matches_the_row_layout_oracle_within_tolerance():
    # the oracle sums over the records, fuzzy_c_means over the distinct
    # values weighted by count: the same arithmetic in another order
    compared = degenerate = 0
    for values, c, m, seed in _fcm_cases(320):
        try:
            expected = oracle_fcm(values, c, m=m, seed=seed)
        except DegenerateDataError:
            with pytest.raises(DegenerateDataError):
                fuzzy_c_means(values, c, m=m, seed=seed)
            degenerate += 1
            continue
        result = fuzzy_c_means(values, c, m=m, seed=seed)
        centroids, trace, iterations = expected
        assert result.iterations == iterations, (c, m, seed)
        scale = np.max(np.abs(values))
        assert np.max(np.abs(result.centroids - centroids)) <= 1e-12 * scale, (c, m, seed)
        # the objective can fall to about 1e-48, out of reach of a relative bound
        assert len(result.objective_trace) == len(trace)
        difference = np.abs(np.subtract(result.objective_trace, trace))
        assert np.max(difference) <= 1e-12 * trace[0], (c, m, seed)
        for earlier, later in zip(result.objective_trace, result.objective_trace[1:]):
            assert later <= earlier * (1 + 1e-12) + 1e-12
        grid = oracle_membership_grid(values, result.centroids, m)
        assert np.array_equal(fcm_memberships(result, values, m), grid)
        compared += 1
    assert compared >= 200 and degenerate >= 20


def test_fcm_starts_at_the_quantiles_of_the_column_bit_for_bit():
    rng = np.random.default_rng(13)
    for case in range(600):
        c = int(rng.integers(2, 12))
        n = c if case % 3 == 0 else int(rng.integers(c, 400))
        if case % 2:  # heavy duplicates
            values = rng.integers(0, c + 2, size=n) * rng.uniform(0.01, 100.0)
        else:
            values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 7)
        q = (np.arange(c) + 0.5) / c
        points, counts = np.unique(values, return_counts=True)
        start = _quantiles(points, counts, q)
        assert start.tobytes() == np.quantile(values, q).tobytes(), (case, c, n)


def test_membership_grid_is_bit_exact_against_the_row_layout_oracle():
    # centroids drawn from the values, so many values sit on one, sometimes
    # on two equal centroids at once; eight or more clusters add up the
    # memberships in numpy's pairwise order
    rng = np.random.default_rng(5)
    for case in range(300):
        c = int(rng.integers(2, 11))
        m = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        values = np.round(rng.normal(size=int(rng.integers(1, 200))) * 20.0, case % 3)
        centroids = np.sort(rng.choice(values, size=c))
        if case % 2:
            centroids = np.sort(centroids + rng.uniform(0.001, 1.0, size=c))
        grid = _membership_grid(values, centroids, m).T
        assert np.array_equal(grid, oracle_membership_grid(values, centroids, m)), (case, c, m)


def test_fcm_reports_whether_it_converged():
    values = np.random.default_rng(4).normal(size=500)
    assert fuzzy_c_means(values, c=3, seed=1).converged
    stopped = fuzzy_c_means(values, c=3, seed=1, max_iter=1)
    assert stopped.iterations == 1 and not stopped.converged


def test_fcm_keeps_a_centroid_whose_every_membership_power_underflows(monkeypatch):
    # a start at 1e100 gives every point a membership near 1e-200 there,
    # whose square is 0: the cluster has no mass and must stay where it is
    from fuzzycp import kb

    monkeypatch.setattr(kb, "_quantiles", lambda points, counts, q: np.array([2.0, 7.0, 1e100]))
    result = fuzzy_c_means(np.arange(10.0), 3)
    assert result.converged
    assert result.centroids[-1] == 1e100
    assert np.all(np.isfinite(result.centroids))


def test_fcm_centroids_past_the_squared_float_range_scale_exactly():
    # distances past 1e154 overflow when squared, which only the objective
    # reads: the centroids are those of the column scaled by 2^-600, a
    # scaling under which every step is exact, and no warning is raised
    x = np.array([-1e160, 1.0, 2.0, 3.0, 5.0, 1e160, 1e159, -3e159])
    k = 2.0 ** -600
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = fuzzy_c_means(x, 3, tol=1e154)
    scaled = fuzzy_c_means(x * k, 3, tol=1e154 * k)
    assert wide.iterations == scaled.iterations
    assert np.array_equal(wide.centroids, scaled.centroids / k)
    assert wide.objective_trace[0] == np.inf


def test_build_names_values_too_far_apart():
    ds = ingest_tabular("a\n1e308\n-1e308\n5\n1\n2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=r"^attribute 'a': values -1e\+308 and 1e\+308 are "
                                             "too far apart$"):
            build_knowledge_base(ds, KBConfig())


def test_build_names_a_weighted_sum_that_overflows():
    # every value is finite, and so is their spread, but not their sum
    ds = ingest_tabular("a\n" + "1e306\n" * 1000 + "0\n5e305\n1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="^attribute 'a': the values are too large: a "
                                             "centroid overflows$"):
            build_knowledge_base(ds, KBConfig())


def test_build_names_unconverged_attributes():
    ds = ingest_tabular("a,b\n" + "\n".join(f"{i % 7},{i * i % 11}" for i in range(40)))
    assert build_knowledge_base(ds, KBConfig()).provenance["converged"] == {"a": True, "b": True}
    stopped = build_knowledge_base(ds, KBConfig(max_iter=1))
    assert stopped.provenance["converged"] == {"a": False, "b": False}


# --- knowledge base ----------------------------------------------------------


def _toy_kb(seed=7):
    ds = ingest_tabular("size\n0\n0\n10\n10\n")
    cfg = KBConfig(
        per_attribute={"size": AttributeConfig(clusters=2, labels=("low", "high"))},
        seed=seed,
    )
    return build_knowledge_base(ds, cfg, source="toy")


def test_build_orders_labels_by_centroid():
    kb = _toy_kb()
    model = kb.model("size")
    assert model.labels == ("low", "high")
    assert model.centroids[0] < model.centroids[1]


def test_build_unknown_attribute_in_config():
    ds = ingest_tabular("size\n0\n1\n2\n")
    cfg = KBConfig(per_attribute={"weight": AttributeConfig(clusters=2)})
    with pytest.raises(ConfigError):
        build_knowledge_base(ds, cfg)


def test_build_label_count_mismatch():
    ds = ingest_tabular("size\n0\n1\n2\n")
    cfg = KBConfig(clusters=2, labels=("a", "b", "c"))
    with pytest.raises(ConfigError):
        build_knowledge_base(ds, cfg)


def test_build_checks_the_cluster_count_before_the_labels():
    ds = ingest_tabular("size\n0\n1\n2\n")
    with pytest.raises(ConfigError, match="size: cluster count must be at least 2, got -3"):
        build_knowledge_base(ds, KBConfig(clusters=-3))
    with pytest.raises(ConfigError, match="cluster count must be at least 2, got 1"):
        build_knowledge_base(ds, KBConfig(clusters=1, labels=("low",)))


def test_build_refuses_more_clusters_than_values_before_any_label():
    # the default labels c0..c{c-1} would cost memory growing with the count
    ds = ingest_tabular((DATA_DIR / "cars.csv").read_bytes())
    config = KBConfig(clusters=10**6)
    message = "^attribute 'price': need at least 1000000 distinct values, found 20$"
    with pytest.raises(DegenerateDataError, match=message) as err:
        build_knowledge_base(ds, config)  # imports what numpy loads on first use
    assert err.value.attribute == "price"
    tracemalloc.start()
    try:
        with pytest.raises(DegenerateDataError, match=message):
            build_knowledge_base(ds, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_build_rejects_a_negative_seed():
    ds = ingest_tabular("size\n0\n1\n2\n")
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        build_knowledge_base(ds, KBConfig(clusters=2, seed=-1))


def test_build_rejects_missing_values():
    # an empty cell survives ingestion as NaN but cannot be clustered
    ds = ingest_tabular("size,w\n0,1\n1,\n2,3\n")
    with pytest.raises(ParseError) as err:
        build_knowledge_base(ds, KBConfig(clusters=2))
    assert str(err.value) == "attribute 'w', record 1: missing or non-finite value"
    assert (err.value.record, err.value.attribute) == (1, "w")


def test_build_is_byte_deterministic():
    a = document_text(_toy_kb(seed=21).to_document())
    b = document_text(_toy_kb(seed=21).to_document())
    assert a == b


def test_document_round_trip():
    kb = _toy_kb()
    doc = json.loads(document_text(kb.to_document()))
    assert doc["format_version"] == 2
    assert all("memberships" not in attr for attr in doc["attributes"])
    assert doc["provenance"]["records"] == 4
    back = KnowledgeBase.from_document(doc)
    assert back.models == kb.models


def test_document_with_an_attribute_listed_twice_is_a_config_error():
    doc = _toy_kb().to_document()
    doc["attributes"].append(dict(doc["attributes"][0], centroids=[1.0, 2.0]))
    with pytest.raises(ConfigError, match="attribute 'size' is listed twice"):
        KnowledgeBase.from_document(doc)


def test_a_model_stored_under_another_attribute_is_refused():
    model = ClusterModel("y", (1.0, 2.0), ("low", "high"), 2.0)
    with pytest.raises(ConfigError, match="^attribute 'x' holds the model of 'y'$"):
        KnowledgeBase({"x": model}, {})
    assert KnowledgeBase({"y": model}, {}).to_document()["attributes"][0]["name"] == "y"


def test_a_saved_build_loads_as_itself(tmp_path):
    """Random tables and configs, some cut off at max_iter, some with
    per-attribute overrides: the document holds every fact of the build."""
    rng = np.random.default_rng(19)
    seen = set()
    for trial in range(40):
        rows, width = int(rng.integers(12, 60)), int(rng.integers(1, 4))
        records = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-3, 4, size=width)
        records[: rows // 3] = records[rows // 3: 2 * (rows // 3)]  # repeated values
        names = [f"a{j}" for j in range(width)]
        overrides = {}
        for name in names:
            if rng.random() < 0.5:
                c = int(rng.integers(2, 5))
                overrides[name] = AttributeConfig(c, ("lo", "mid", "hi")[:c] if c < 4 else None)
        config = KBConfig(
            clusters=int(rng.integers(2, 5)),
            fuzzifier=float(rng.uniform(1.2, 3.0)),
            tol=float(rng.choice([1e-9, 1e-6, 1e-2])),
            max_iter=int(rng.choice([1, 2, 5, 200])),
            seed=int(rng.integers(0, 2**32)),
            per_attribute=overrides,
        )
        kb = build_knowledge_base(Dataset(names, records), config, source=f"t{trial}.csv")
        kb.save(tmp_path / "kb.json")
        assert KnowledgeBase.load(tmp_path / "kb.json") == kb, trial
        provenance = kb.provenance
        assert list(provenance) == [
            "source", "records", "tol", "max_iter", "seed", "iterations", "converged"
        ]
        assert list(provenance["converged"]) == list(provenance["iterations"]) == names
        for name in names:
            stopped = provenance["iterations"][name] == config.max_iter
            assert provenance["converged"][name] or stopped
            seen.add(provenance["converged"][name])
    assert seen == {True, False}
    assert KnowledgeBase._fields == ("models", "provenance")


def test_load_refuses_a_repeated_key(tmp_path):
    # a second "centroids" key, scaled by 1.5, which json.loads lets win
    kb = _toy_kb()
    scaled = [1.5 * c for c in kb.model("size").centroids]
    text = document_text(kb.to_document())
    text = text.replace('"fuzzifier": ', f'"centroids": {json.dumps(scaled)}, "fuzzifier": ')
    assert json.loads(text)["attributes"][0]["centroids"] == scaled
    path = tmp_path / "kb.json"
    path.write_text(text)
    with pytest.raises(MalformedDocumentError, match="key 'centroids' appears twice"):
        KnowledgeBase.load(path)


def test_membership_of_centroid_is_one():
    kb = _toy_kb()
    model = kb.model("size")
    vec = kb.membership_of("size", model.centroids[0])
    assert vec[0] == pytest.approx(1.0)
    assert vec[1] == pytest.approx(0.0)


def test_membership_of_midpoint_splits():
    kb = _toy_kb()
    model = kb.model("size")
    midpoint = sum(model.centroids) / 2
    vec = kb.membership_of("size", midpoint)
    assert vec[0] == pytest.approx(0.5, abs=1e-9)
    assert vec[1] == pytest.approx(0.5, abs=1e-9)


def test_membership_formula_hand_value():
    # centroids {0, 10}, m=2, value 2.5: distances (2.5, 7.5), so the
    # weights are 1/2.5^2 : 1/7.5^2 = 9 : 1, giving exactly (0.9, 0.1)
    from fuzzycp.kb import ClusterModel

    model = ClusterModel("x", (0.0, 10.0), ("low", "high"), 2.0)
    vec = KnowledgeBase(models={"x": model}, provenance={}).membership_of("x", 2.5)
    assert vec[0] == pytest.approx(0.9, abs=1e-12)
    assert vec[1] == pytest.approx(0.1, abs=1e-12)


def test_membership_of_unknown_attribute():
    kb = _toy_kb()
    with pytest.raises(ConfigError):
        kb.membership_of("weight", 1.0)


def test_membership_of_rejects_non_finite():
    kb = _toy_kb()
    with pytest.raises(ParseError):
        kb.membership_of("size", float("inf"))


def test_membership_grid_matches_membership_of():
    kb = _toy_kb()
    values = [-3.0, kb.model("size").centroids[1], 4.2, float("nan"), float("-inf")]
    grid = kb.membership_grid("size", values)
    for row, value in zip(grid[:3], values):
        assert np.array_equal(row, kb.membership_of("size", value))
    assert np.all(grid[3:] == 0.0)  # missing values belong to no cluster


def test_membership_grid_names_a_value_too_far_from_every_centroid():
    kb = KnowledgeBase({"x": ClusterModel("x", (-1e308, -0.9e308), ("low", "high"), 2.0)}, {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=r"^attribute 'x', record 2: value 1e\+308 is too "
                                             "far from every centroid$") as err:
            kb.membership_grid("x", [float("nan"), -1e308, 1e308])
    assert (err.value.record, err.value.attribute) == (2, "x")


def test_membership_grid_ignores_an_overflow_that_leaves_a_finite_distance():
    # each value lies further from -1e308 than a float holds, so that
    # membership is 0, and the others are those of the two other centroids
    model = ClusterModel("x", (-1e308, 0.0, 1e308), ("low", "mid", "high"), 2.0)
    kb = KnowledgeBase({"x": model}, {})
    values = [9e307, 1e308, 8e307]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = kb.membership_grid("x", values)
    assert np.array_equal(grid[:, 0], [0.0, 0.0, 0.0])
    rest = _membership_grid(np.array(values), np.array([0.0, 1e308]), 2.0)
    assert np.array_equal(grid[:, 1:], rest.T)


def test_membership_rows_sum_to_one_out_of_sample():
    kb = _toy_kb()
    rng = random.Random(4)
    for _ in range(100):
        vec = kb.membership_of("size", rng.uniform(-50, 50))
        assert abs(vec.sum() - 1.0) < 1e-9
        assert np.all(vec >= 0) and np.all(vec <= 1)
