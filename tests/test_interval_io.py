"""Differential tests of the array readers, the ranked-CSV writer and CLI
`rank` against the per-row ``Interval`` path in ``interval_io_reference``."""

import codecs
import contextlib
import io
import json
import math
import random
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import interval_io_reference as ref
from intervalorders import (
    BOUNDARY_SLACK,
    DataError,
    Interval,
    load_intervals,
    order_from_config,
    rank_indices,
    read_intervals_csv,
    write_ranked_csv,
)
from intervalorders import intervals
from intervalorders.intervals import READ_BLOCK
from intervalorders.cli import main

PAIR_ORDER = {
    "kind": "pair",
    "a": {"family": "schur_pair", "f": {"kind": "power", "gamma": 2.0}},
    "b": {"family": "schur_pair", "f": {"kind": "power", "gamma": 0.5}},
}
PROJECTION_ORDER = {"kind": "alpha_beta", "alpha": 0.5, "beta": 1.0}

# Endpoints `Interval` keeps or snaps onto [0,1], and ones it rejects.
EDGE = [0.0, -0.0, 1.0, -BOUNDARY_SLACK, -5e-16, 1.0 + BOUNDARY_SLACK,
        1.0000000000000002, 1.0000000000000004]
BAD = [math.nan, math.inf, -math.inf, 1.5, -0.2, -2e-15, 1.000000000000002, 1e300]

good_value = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE),
                       st.integers(0, 100).map(lambda i: i / 100))
any_value = st.one_of(good_value, st.sampled_from(BAD))

ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")

# repr, exponent forms, a leading sign, surrounding whitespace, CSV quotes;
# forms `float` reads and numpy's C reader does not: an underscore between
# digits, non-ASCII digits; white space both strip (NBSP, U+2028) and the
# separators U+001C..U+001F, which numpy strips and `float` does not
fmt = st.sampled_from([
    repr, "{:e}".format, "{:.17E}".format, "{:.3g}".format,
    lambda x: f"+{x!r}" if math.copysign(1.0, x) > 0 else repr(x),
    lambda x: f"  {x!r}\t", lambda x: f'"{x!r}"',
    lambda x: re.sub(r"(\d)(\d)", r"\1_\2", repr(x), count=1),
    lambda x: repr(x).translate(ARABIC_INDIC),
    lambda x: f"\xa0{x!r}\u2028", lambda x: f"\x1c{x!r}", lambda x: f"{x!r}\x1f",
])


@st.composite
def csv_row(draw, value):
    lo, hi = sorted((draw(value), draw(value)), key=lambda v: (math.isnan(v), v))
    if draw(st.integers(0, 9)) == 0:
        lo, hi = hi, lo  # out of order, unless equal
    fields = [draw(fmt)(lo), draw(fmt)(hi)]
    if draw(st.booleans()) and draw(st.booleans()):
        # the last two are quoted fields that hold a comma or a line end
        fields.append(draw(st.sampled_from(["extra", "0.3", "", '"a,b"', '"x\n0.3,0.4,"'])))
    return ",".join(fields)


@st.composite
def plain_row(draw):
    """A valid row numpy's C reader reads: no quote, no header, and blank
    rows, underscores and non-ASCII digits left out."""
    plain = st.sampled_from([repr, "{:e}".format, "{:.17E}".format,
                             lambda x: f"  {x!r}\t", lambda x: f"\xa0{x!r}"])
    lo, hi = sorted((draw(good_value), draw(good_value)))
    # sorted again as written: "{:e}" keeps 7 digits, which may round lo above hi
    lo, hi = sorted((draw(plain)(lo), draw(plain)(hi)), key=float)
    return f"{lo},{hi}{draw(st.sampled_from(['', ',', ',x']))}"


BLANK = st.sampled_from(["", "   ", "\t", "\xa0"])
MALFORMED = st.sampled_from(["abc,0.5", "0.5", "0.5,", ",0.5", ",", "x", " \"0.5\",0.6",
                             "0.1;0.2", "0x1,0.5", "1/2,0.5", "#0.1,0.2", "# lo,hi"])
HEADER = st.sampled_from(["lo,hi", '"lo","hi"', "index", "a,b,c", "lo", "0.1,0.2", " ,",
                          "# lo,hi"])


@st.composite
def csv_text(draw):
    good = csv_row(good_value)
    n = draw(st.integers(0, 30))
    lines = draw(st.lists(st.one_of(good, good, good, BLANK), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):  # bad rows at random positions
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.one_of(csv_row(any_value), MALFORMED)))
    header = draw(st.one_of(st.none(), HEADER))
    if header is not None:
        lines.insert(0, header)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


good_pair = st.tuples(good_value, good_value).map(sorted)
json_entry = st.one_of(
    good_pair, good_pair,
    st.tuples(good_value, good_value).map(list),  # out of order, unless sorted
    st.tuples(any_value, any_value).map(lambda t: sorted(t, key=lambda v: (math.isnan(v), v))),
    st.tuples(st.sampled_from(["0.5", "abc", None, True, [0.1], "nan"]), good_value).map(list),
    st.sampled_from([[0.1], [0.1, 0.2, 0.3], 0.5, "x", None, {"lo": 0.1}]),
)
json_text = st.one_of(
    st.lists(json_entry, max_size=20).map(json.dumps),
    st.sampled_from(['{"lo": 0.1}', "[[0.1, 0.2]", "", "[]", "0.5"]),
)


def outcome(read, path):
    """("ok", lo, hi) as float64 arrays, or the exception's type and text."""
    try:
        got = read(path)
    except Exception as exc:  # compared, whatever it is
        return type(exc).__name__, str(exc)
    if isinstance(got, list):
        got = (np.array([z.lo for z in got], dtype=float),
               np.array([z.hi for z in got], dtype=float))
    lo, hi = got
    assert lo.dtype == hi.dtype == np.float64
    # bit patterns, so that the sign of zero counts
    return "ok", lo.view(np.uint64).tolist(), hi.view(np.uint64).tolist()


def assert_same_reading(text: str, suffix: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"items{suffix}"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" included
            got = outcome(load_intervals, path)
        assert got == outcome(ref.load_intervals, path)


class TestReadersMatchReference:
    @given(csv_text())
    @settings(max_examples=400, deadline=None)
    def test_csv(self, text):
        assert_same_reading(text, ".csv")

    @given(json_text)
    @settings(max_examples=300, deadline=None)
    def test_json(self, text):
        assert_same_reading(text, ".json")

    @pytest.mark.parametrize("text", [
        "lo,hi\n0.2,0.9\n\n-0.0,1.0000000000000002\n",
        "0.5,0.4\n0.1,abc\n",        # out of order before malformed
        "0.1,abc\n0.5,0.4\n",        # malformed before out of order
        "lo,hi\n\nnan,0.5\n",
        "\nlo,hi\n0.1,0.2\n",        # a header after a blank row is malformed
        "0.1,0.2\n-1e-15,2e-1\n0.3,1.000000000000001\n",
        "0.1,0.2\n0.3,1.0000000000000013\n",
        "0.3,0.2,0.1\n",
        "", "\n", "\r\n", "   \n\t\n", "\xa0\n",  # empty and blank-only files
        "0.1,0.2,\n0.3,0.4,\n",    # a trailing comma
        "0.1,0.2\r0.3,0.4\r",      # CR line ends
        "0.1,0.2\r\n\r\n0.3,0.4",  # CRLF, a blank row, no final line end
        "#0.1,0.2\n0.3,0.4\n",     # a `#` row is a header, not a comment
        "0.1,0.2\n#0.3,0.4\n",
        "0.1,0.2,\"x\n0.3,0.4,\"\n",  # a quoted field holding a line end
        "0.1,0.2,\"a\n0.3,0.4\n",  # an unclosed quote runs to the end of the file
        "0.1_5,0.2\n", "\u0660.\u0665,0.6\n", "\xa00.5\xa0,0.6\n",
        "\x1c0.5,0.6\n", "0.1,0.2\n0.5\x1f,0.6\n",
        "0.1,0.2\n   \n0.3,0.4\n",  # a whitespace-only row
        "0.1,0.2\n0.3,nan\n", "0.1,0.2\n0.3,1e400\n", "0.1,0.2\n0.4,0.3\n",
    ])
    def test_edge_files(self, text):
        assert_same_reading(text, ".csv")

    @pytest.mark.parametrize("tail", ["", '0.1,0.2,"x\n0.3,0.4,"\n', "\x1c0.5,0.6\n", "lo,hi\n"])
    def test_files_longer_than_a_read_block(self, tail):
        # what sends a file to the row reader may lie past the first block
        rows = "".join(f"{i / 10**5!r},{(i + 1) / 10**5!r}\n" for i in range(READ_BLOCK // 4))
        assert len(rows) > 2 * READ_BLOCK
        assert_same_reading(rows + tail, ".csv")

    @given(st.lists(plain_row(), min_size=1, max_size=30),
           st.sampled_from(["\n", "\r\n"]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_plain_file_never_reaches_the_row_reader(self, rows, eol, bom):
        """A file of valid unquoted rows is read by numpy's C reader alone,
        so a silent fallback cannot hide the loss of its speed."""
        text = ("\ufeff" if bom else "") + eol.join(rows) + eol
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "items.csv"
            path.write_bytes(text.encode())
            want = outcome(read_intervals_csv, path)
            assert want[0] == "ok"

            def row_reader(*args):
                raise AssertionError("a plain file reached the row reader")

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(intervals, "_read_csv_rows", row_reader)
                assert outcome(read_intervals_csv, path) == want

    @pytest.mark.parametrize("payload", [
        [[0.5, 0.4], "x"], ["x", [0.5, 0.4]], [[0.1, 0.2], [-0.0, "0.5"], [0.2, None]],
        [[0.1, 0.2], [float("nan"), 0.5]], [[1e-16 - 1e-15, 1.0000000000000009]],
    ])
    def test_edge_json(self, payload):
        assert_same_reading(json.dumps(payload), ".json")


class TestNotUtf8:
    """A file that is not UTF-8 names its first bad byte by the byte's
    offset in the file, a byte-order mark counted, as decoding the whole
    file does; a text reader counts from the start of its read chunk."""

    @pytest.mark.parametrize("name, payload, position", [
        ("items.csv", b"0.1,0.2\n" * 20_000 + b"\xff", 160_000),
        ("items.csv", codecs.BOM_UTF8 + b"0.1,0.2\n" * 3 + b"\xff", 27),
        ("items.json", codecs.BOM_UTF8 + b"[[0.1, 0.2],\xff]", 15),
        ("items.json", b"[" + b"[0.1, 0.2]," * 10_000 + b"\xff]", 110_001),
    ])
    def test_position_counts_from_the_start_of_the_file(self, tmp_path, name, payload, position):
        path = tmp_path / name
        path.write_bytes(payload)
        with pytest.raises(DataError) as err:
            load_intervals(path)
        assert str(err.value) == (f"{path}: 'utf-8' codec can't decode byte 0xff "
                                  f"in position {position}: invalid start byte")

    @pytest.mark.parametrize("tail", [b"\xe2\x82A\n", b"\xe2\x82", b"\xed\xa0\x80\n", b"\xc3"])
    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_a_sequence_across_a_read_block_reads_as_in_the_whole_file(self, tmp_path,
                                                                         tail, suffix):
        # the bad sequence starts two bytes before the end of a read block
        payload = codecs.BOM_UTF8 + b" " * (READ_BLOCK - 5) + tail
        path = tmp_path / f"items{suffix}"
        path.write_bytes(payload)
        with pytest.raises(UnicodeDecodeError) as whole:
            payload.decode("utf-8")
        with pytest.raises(DataError) as err:
            load_intervals(path)
        assert str(err.value) == f"{path}: {whole.value}"


def reference_ranked_bytes(order, items: list[Interval], tmp: Path) -> bytes:
    lo = np.array([z.lo for z in items], dtype=float)
    hi = np.array([z.hi for z in items], dtype=float)
    idx = rank_indices(order, lo, hi).tolist()
    ref.write_ranked_csv(tmp / "reference.csv", [items[i] for i in idx], idx)
    return (tmp / "reference.csv").read_bytes()


class TestWriterMatchesReference:
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])
    def test_block_boundaries(self, tmp_path, n):
        rng = random.Random(n)
        items = [Interval(*sorted((rng.random(), rng.random()))) for _ in range(n)]
        items[: n // 3] = [Interval(-0.0, rng.randint(0, 10) / 10) for _ in range(n // 3)]
        idx = list(range(n))
        rng.shuffle(idx)
        lo = np.array([z.lo for z in items], dtype=float)
        hi = np.array([z.hi for z in items], dtype=float)
        with open(tmp_path / "out.csv", "w", newline="") as fh:
            write_ranked_csv(fh, lo, hi, np.array(idx, dtype=np.int64))
        ref.write_ranked_csv(tmp_path / "ref.csv", [items[i] for i in idx], idx)
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def run_rank(spec: dict, data: Path, out: Path | None) -> tuple[int, str, str]:
    cfg = data.with_name("order.json")
    cfg.write_text(json.dumps({"order": spec}))
    argv = ["rank", "--config", str(cfg), "--input", str(data)]
    if out is not None:
        argv += ["--output", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


class TestCliRankMatchesReference:
    @given(csv_text(), st.sampled_from([PAIR_ORDER, PROJECTION_ORDER]))
    @settings(max_examples=150, deadline=None)
    def test_rank_bytes(self, text, spec):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            data, out = tmp / "items.csv", tmp / "ranked.csv"
            data.write_bytes(text.encode())
            code, stdout, stderr = run_rank(spec, data, out)
            try:
                items = ref.read_intervals_csv(data)
            except DataError as exc:
                assert (code, stdout, stderr) == (2, "", f"i/o error: {exc}\n")
                return
            assert (code, stdout, stderr) == (0, "", "")
            expected = reference_ranked_bytes(order_from_config(spec), items, tmp)
            assert out.read_bytes() == expected
            assert run_rank(spec, data, None) == (0, expected.decode(), "")
