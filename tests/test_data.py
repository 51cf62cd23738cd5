"""Unit tests for CSV ingestion, validation, and forward simulation."""

import csv
import dataclasses
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windcal import data
from windcal.data import (
    PanelData,
    SyntheticTruth,
    default_dates,
    generate_synthetic,
    load_network,
    load_panel,
    write_network_csv,
    write_long_csv,
    write_panel_csv,
    write_table,
)
from windcal.draws import SCALAR_NAMES, ModelState
from windcal.errors import DataValidationError, DomainError
from windcal.latent import StationNetwork

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def toy_network(n_total=4, n_obs=2, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 80.0, size=(n_total, 2))
    observed = np.zeros(n_total, dtype=bool)
    observed[:n_obs] = True
    return StationNetwork.from_coords([f"s{i}" for i in range(n_total)], coords, observed)


class TestPanelData:
    def test_missing_fraction(self):
        y = np.array([[1.0, np.nan], [2.0, 3.0]])
        x = np.ones((3, 2))
        panel = PanelData(y=y, x=x, dates=default_dates(2))
        assert np.allclose(panel.missing_fraction(), [0.5, 0.0])
        assert panel.n_times == 2

    def test_rejects_missing_simulated(self):
        x = np.ones((2, 2))
        x[0, 0] = np.nan
        with pytest.raises(DataValidationError):
            PanelData(y=np.ones((1, 2)), x=x, dates=default_dates(2))

    def test_rejects_negative_values(self):
        with pytest.raises(DataValidationError):
            PanelData(y=np.array([[-1.0, 2.0]]), x=np.ones((2, 2)),
                      dates=default_dates(2))

    def test_rejects_date_mismatch(self):
        with pytest.raises(DataValidationError):
            PanelData(y=np.ones((1, 2)), x=np.ones((2, 2)), dates=default_dates(3))


class TestCsvRoundtrip:
    def test_network_roundtrip(self, tmp_path):
        net = toy_network()
        path = tmp_path / "stations.csv"
        write_network_csv(path, net)
        back = load_network(path)
        assert back.ids == net.ids
        assert np.allclose(back.coords, net.coords)
        assert np.array_equal(back.observed, net.observed)

    def test_panel_roundtrip_with_missing(self, tmp_path):
        net = toy_network()
        truth = SyntheticTruth(shift_y=2.0, shift_x=2.0, tau_z=4.0)
        panel, _ = generate_synthetic(truth, net, 5, seed=1, missing_rate=0.3)
        write_network_csv(tmp_path / "stations.csv", net)
        obs_ids = [net.ids[i] for i in net.observed_indices]
        write_panel_csv(tmp_path / "observed.csv", panel.y, obs_ids, panel.dates)
        write_panel_csv(tmp_path / "simulated.csv", panel.x, net.ids, panel.dates)
        back = load_panel(tmp_path / "observed.csv", tmp_path / "simulated.csv",
                          load_network(tmp_path / "stations.csv"))
        assert np.array_equal(np.isnan(back.y), np.isnan(panel.y))
        assert np.allclose(back.x, panel.x)
        assert np.allclose(back.y[~np.isnan(back.y)], panel.y[~np.isnan(panel.y)])

    def test_write_table_cells(self, tmp_path):
        flags = np.array([True, False])
        path = tmp_path / "table.csv"
        write_table(path, ["a", "b", "c", "d", "e"],
                    [[np.array([0.1 + 0.2, 1e-300]), np.array([1 / 3, -2.5]), flags,
                      np.array([7, -1]), ["", ""]]])
        assert path.read_bytes() == (b"a,b,c,d,e\r\n"
                                     b"0.30000000000000004,0.3333333333333333,1,7,\r\n"
                                     b"1e-300,-2.5,0,-1,\r\n")


# cells csv quotes or that a float's repr spells in an unusual way
EDGE_IDS = ["a,b", 'say "hi"', "cr\r", "lf\n", " lead", ""]
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf]
TEXT = st.one_of(st.sampled_from(EDGE_IDS),
                 st.text(alphabet=st.sampled_from('ab1 ,"\r\n\t.-'), max_size=4))


def _masked(values):
    return np.ma.masked_array([math.nan if v is None else v for v in values],
                              [v is None for v in values])


# cell strategy, and the column write_table takes for a list of such cells
KINDS = {
    "str": (TEXT, list),
    "float": (st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()), np.array),
    "int": (st.integers(-2**63, 2**63 - 1), lambda v: np.array(v, dtype=np.int64)),
    "bool": (st.booleans(), lambda v: np.array(v, dtype=bool)),
    "masked": (st.one_of(st.none(), st.floats()), _masked),
}


def csv_writer_bytes(path, header, rows):
    """What csv.writer writes for the rows, with floats as repr() and bools as 0/1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([int(v) if isinstance(v, bool) else v for v in row] for row in rows)
    return Path(path).read_bytes()


@st.composite
def tables(draw):
    """(header, cells by column, column kinds, block boundaries) of a random table."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 6))
    header = draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds)))
    cells = [draw(st.lists(KINDS[k][0], min_size=n_rows, max_size=n_rows)) for k in kinds]
    cuts = draw(st.lists(st.integers(0, n_rows), max_size=3))
    return header, cells, kinds, [0, *sorted(cuts), n_rows]


class TestWriteTable:
    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_same_bytes_as_csv_writer(self, table):
        header, cells, kinds, bounds = table
        blocks = [[KINDS[k][1](col[a:b]) for k, col in zip(kinds, cells)]
                  for a, b in itertools.pairwise(bounds)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            write_table(path, header, blocks)
            assert path.read_bytes() == csv_writer_bytes(Path(tmp) / "oracle.csv",
                                                         header, zip(*cells))

    def test_edge_cells(self, tmp_path):
        n = len(EDGE_FLOATS)
        ids = (EDGE_IDS * 2)[:n]
        ints = [0, -1, 2**63 - 1, -2**63, 7, 10**6, 3]
        flags = [True, False] * 3 + [True]
        path = tmp_path / "table.csv"
        write_table(path, EDGE_IDS[:4], [[ids, np.array(EDGE_FLOATS), np.array(ints),
                                          np.array(flags)]])
        expected = csv_writer_bytes(tmp_path / "oracle.csv", EDGE_IDS[:4],
                                    zip(ids, EDGE_FLOATS, ints, flags))
        assert path.read_bytes() == expected
        assert b'"a,b",-0.0,0,1\r\n"say ""hi""",5e-324,' in expected

    def test_lone_empty_field_is_quoted(self, tmp_path):
        # a blank line would read back as no row at all
        path = tmp_path / "table.csv"
        write_table(path, [""], [[["", "x"]]])
        assert path.read_bytes() == b'""\r\n""\r\nx\r\n'

    def test_long_csv_leaves_out_nan_cells_of_the_first_column(self, tmp_path):
        value = np.array([[1.5, np.nan], [0.25, 2.0]])
        sd = np.array([[np.nan, 0.2], [np.nan, 0.5]])  # NaN elsewhere is written
        flags = np.array([[True, False], [False, True]])
        path = tmp_path / "long.csv"
        write_long_csv(path, ["a", "b"], ("2013-01-01", "2013-01-02"),
                       {"value": value, "sd": sd, "flag": flags})
        assert path.read_bytes() == (b"station_id,date,value,sd,flag\r\n"
                                     b"a,2013-01-01,1.5,nan,1\r\n"
                                     b"b,2013-01-01,0.25,nan,0\r\n"
                                     b"b,2013-01-02,2.0,0.5,1\r\n")

    def test_long_csv_station_with_every_cell_missing(self, tmp_path):
        value = np.array([[np.nan, np.nan], [3.0, np.nan], [np.nan, np.nan]])
        path = tmp_path / "long.csv"
        write_long_csv(path, ["a", "b", "c"], ("2013-01-01", "2013-01-02"), {"value": value})
        assert path.read_bytes() == b"station_id,date,value\r\nb,2013-01-01,3.0\r\n"
        write_long_csv(path, ["a"], ("2013-01-01", "2013-01-02"), {"value": value[:1]})
        assert path.read_bytes() == b"station_id,date,value\r\n"


class TestLoadValidation:
    def _write(self, path, text):
        path.write_text(text)
        return path

    def test_missing_column(self, tmp_path):
        p = self._write(tmp_path / "s.csv", "station_id,x_km,y_km\na,0,0\n")
        with pytest.raises(DataValidationError, match="observed"):
            load_network(p)

    def test_bad_observed_flag(self, tmp_path):
        p = self._write(tmp_path / "s.csv",
                        "station_id,x_km,y_km,observed\na,0,0,2\nb,1,1,1\n")
        with pytest.raises(DataValidationError, match="line 2"):
            load_network(p)

    def test_non_finite_coordinate_names_line(self, tmp_path):
        p = self._write(tmp_path / "s.csv",
                        "station_id,x_km,y_km,observed\na,0,0,1\nb,nan,1,1\n")
        with pytest.raises(DataValidationError, match="line 3"):
            load_network(p)

    def test_non_numeric_coordinate_names_line(self, tmp_path):
        p = self._write(tmp_path / "s.csv",
                        "station_id,x_km,y_km,observed\na,0,0,1\nb,1,north,1\n")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(p))} line 3: could not "
                           "convert string to float: 'north'$"):
            load_network(p)

    def test_line_after_blank_line(self, tmp_path):
        p = self._write(tmp_path / "s.csv",
                        "station_id,x_km,y_km,observed\na,0,0,1\n\nb,nan,1,1\n")
        with pytest.raises(DataValidationError, match="line 4"):
            load_network(p)

    def test_duplicate_station(self, tmp_path):
        p = self._write(tmp_path / "s.csv",
                        "station_id,x_km,y_km,observed\na,0,0,1\nb,2,2,0\na,1,1,1\n")
        with pytest.raises(DataValidationError,
                           match=f"^{re.escape(str(p))} line 4: duplicate station id 'a'"):
            load_network(p)

    def _tiny_net(self, tmp_path):
        p = self._write(tmp_path / "s.csv",
                        "station_id,x_km,y_km,observed\na,0,0,1\nb,3,4,0\n")
        return load_network(p)

    def test_unknown_station_in_panel(self, tmp_path):
        net = self._tiny_net(tmp_path)
        obs = self._write(tmp_path / "o.csv",
                          "station_id,date,value\nzz,2013-01-01,1.0\n")
        sim = self._write(tmp_path / "x.csv",
                          "station_id,date,value\na,2013-01-01,1.0\nb,2013-01-01,1.0\n")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(obs))} line 2: "
                           "station 'zz' not in the network$"):
            load_panel(obs, sim, net)

    def test_negative_value_names_line(self, tmp_path):
        net = self._tiny_net(tmp_path)
        obs = self._write(tmp_path / "o.csv", "station_id,date,value\na,2013-01-01,1.0\n")
        sim = self._write(tmp_path / "x.csv",
                          "station_id,date,value\na,2013-01-01,1.0\nb,2013-01-01,-0.5\n")
        with pytest.raises(DataValidationError,
                           match=f"^{re.escape(str(sim))} line 3: negative value -0.5$"):
            load_panel(obs, sim, net)

    def test_duplicate_cell(self, tmp_path):
        net = self._tiny_net(tmp_path)
        obs = self._write(tmp_path / "o.csv",
                          "station_id,date,value\na,2013-01-01,1.0\na,2013-01-01,2.0\n")
        sim = self._write(tmp_path / "x.csv",
                          "station_id,date,value\na,2013-01-01,1.0\nb,2013-01-01,1.0\n")
        with pytest.raises(DataValidationError, match="duplicate"):
            load_panel(obs, sim, net)

    def test_bad_date_names_line(self, tmp_path):
        net = self._tiny_net(tmp_path)
        obs = self._write(tmp_path / "o.csv",
                          "station_id,date,value\na,2013-13-40,1.0\n")
        sim = self._write(tmp_path / "x.csv",
                          "station_id,date,value\na,2013-01-01,1.0\nb,2013-01-01,1.0\n")
        with pytest.raises(DataValidationError, match="line 2"):
            load_panel(obs, sim, net)

    def test_incomplete_simulated_rectangle(self, tmp_path):
        net = self._tiny_net(tmp_path)
        obs = self._write(tmp_path / "o.csv",
                          "station_id,date,value\na,2013-01-01,1.0\n")
        sim = self._write(tmp_path / "x.csv",
                          "station_id,date,value\na,2013-01-01,1.0\n"
                          "a,2013-01-02,1.0\nb,2013-01-01,1.0\n")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(sim))}: .*rectangle: "
                           "no row for station 'b' on 2013-01-02$"):
            load_panel(obs, sim, net)

    def test_observed_date_outside_simulated_range(self, tmp_path):
        net = self._tiny_net(tmp_path)
        obs = self._write(tmp_path / "o.csv", "station_id,date,value\na,2013-01-01,1.0\n"
                          "a,2013-03-01,1.0\na,2013-02-01,1.0\n")
        sim = self._write(tmp_path / "x.csv",
                          "station_id,date,value\na,2013-01-01,1.0\nb,2013-01-01,1.0\n")
        with pytest.raises(DataValidationError,
                           match=f"^{re.escape(str(obs))} line 3: date 2013-03-01 outside"):
            load_panel(obs, sim, net)

    def test_stray_date_named_before_a_later_bad_row(self, tmp_path):
        net = self._tiny_net(tmp_path)
        obs = self._write(tmp_path / "o.csv", "station_id,date,value\na,2013-03-01,1.0\n"
                          "a,2013-01-01,-1.0\n")
        sim = self._write(tmp_path / "x.csv",
                          "station_id,date,value\na,2013-01-01,1.0\nb,2013-01-01,1.0\n")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(obs))} line 2: "
                           "date 2013-03-01 outside the simulated range$"):
            load_panel(obs, sim, net)

    @pytest.mark.parametrize("sim_text, rule", [
        ("a,2013-01-01,1.0\nb,2013-01-01,nan\n", " line 3: non-finite value nan"),
        ("", ": no data rows"),
    ], ids=["bad-row", "no-rows"])
    def test_simulated_error_named_before_an_observed_one(self, tmp_path, sim_text, rule):
        net = self._tiny_net(tmp_path)
        obs = self._write(tmp_path / "o.csv", "station_id,date,value\nzz,2013-01-01,1.0\n")
        sim = self._write(tmp_path / "x.csv", "station_id,date,value\n" + sim_text)
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(sim))}{rule}$"):
            load_panel(obs, sim, net)

    def test_non_ascii_station_id_round_trips(self, tmp_path):
        # the EncodingWarning turned error fails any open() that would use the locale's
        # encoding, so the file reads back the same on any locale
        script = ("import sys, numpy as np\n"
                  "from windcal.data import load_network, write_network_csv\n"
                  "from windcal.latent import StationNetwork\n"
                  "ids = ['Z\\u00fcrich', '\\u0141\\u00f3d\\u017a', 'a']\n"
                  "net = StationNetwork.from_coords(ids, np.array([[0., 0.], [3., 4.], "
                  "[6., 0.]]), np.array([True, False, True]))\n"
                  "write_network_csv(sys.argv[1], net)\n"
                  "assert load_network(sys.argv[1]).ids == net.ids\n")
        path = tmp_path / "s.csv"
        done = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-c", script, str(path)],
                              env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "Zürich,0.0,0.0,1\r\n".encode() in path.read_bytes()


PANEL_COLUMNS = ("station_id", "date", "value")


def utf8_lines(path, fh):
    """The lines of ``fh``, a file opened with errors="surrogateescape", up to the first
    that holds a byte that is not UTF-8, which raises."""
    for lineno, line in enumerate(fh, start=1):
        if any("\udc80" <= c <= "\udcff" for c in line):
            raise DataValidationError(f"{path} line {lineno}: not UTF-8 text")
        yield line


def reference_rows(path, columns=PANEL_COLUMNS):
    """(line, values of ``columns``) of each data row, one csv.reader row at a time: the
    rows, line numbers and errors the chunked reader must give."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(utf8_lines(path, fh))
        try:
            header = next(reader, [])
            if not set(columns) <= set(header):
                raise DataValidationError(f"{path} needs columns {sorted(columns)}")
            index = [header.index(c) for c in columns]
            for row in reader:
                if len(row) <= max(index):
                    if not row:
                        continue
                    short = ", ".join(c for c, i in zip(columns, index) if i >= len(row))
                    raise DataValidationError(f"{path} line {reader.line_num}: no {short} field")
                yield reader.line_num, tuple(row[i] for i in index)
        except csv.Error as exc:
            raise DataValidationError(f"{path} line {reader.line_num}: {exc}") from None


def chunked_rows(path, columns=PANEL_COLUMNS):
    for lines, cols in data._read_columns(path, columns):
        yield from ((n, tuple(values)) for n, *values in zip(lines, *cols))


def reference_panel(path, rows, refused, dates=None):
    """The (array, dates) of a long-form panel, its rows checked one at a time."""
    allowed = None if dates is None else frozenset(dates)
    cells, seen = {}, set()
    for lineno, (sid, date, value) in reference_rows(path):
        where = f"{path} line {lineno}"
        if sid not in rows:
            raise DataValidationError(
                f"{where}: station {sid!r} {refused.get(sid, 'not in the network')}")
        if date not in seen:
            if not data._is_date(date):
                raise DataValidationError(f"{where}: date {date!r} is not a YYYY-MM-DD date")
            if allowed is not None and date not in allowed:
                raise DataValidationError(f"{where}: date {date} outside the simulated range")
            seen.add(date)
        try:
            val = float(value)
        except ValueError as exc:
            raise DataValidationError(f"{where}: {exc}") from exc
        if not math.isfinite(val):
            raise DataValidationError(f"{where}: non-finite value {val}")
        if val < 0:
            raise DataValidationError(f"{where}: negative value {val}")
        if (sid, date) in cells:
            raise DataValidationError(f"{where}: duplicate row for {(sid, date)}")
        cells[sid, date] = val
    dates = tuple(sorted(seen)) if dates is None else dates
    grid = np.full((len(rows), len(dates)), np.nan)
    for (sid, date), val in cells.items():
        grid[rows[sid], dates.index(date)] = val
    return grid, dates


def outcome(read):
    """(everything ``read()`` gives, as a list, before it raises; the message it raises)"""
    got = []
    try:
        got.extend(read())
    except DataValidationError as exc:
        # a generator's rows are kept up to the fault; a function's result is all or none
        return got, str(exc)
    return got, None


# a quote, line ends, and characters that end a line for str.splitlines but not for csv
CSV_ALPHABET = 'ab1é,"\r\n\x0b\x85\u2028\0'
PLAIN_CELL = st.text("ab12é. ", max_size=3)
# 10 or 11 characters: at a field limit of 10 (the length of "station_id") the longer breaks it
LONG_CELL = st.text("ab1", min_size=10, max_size=11)
CELL = st.one_of(PLAIN_CELL, PLAIN_CELL, LONG_CELL, st.text(CSV_ALPHABET, max_size=3),
                 st.text(CSV_ALPHABET, max_size=4).map(lambda t: '"' + t.replace('"', '""') + '"'))


@st.composite
def csv_texts(draw):
    """A CSV file's text: mostly well-formed rows under a shuffled header with extra
    columns, with short and long rows, blank lines, quoted fields and stray text."""
    names = list(PANEL_COLUMNS) + draw(st.lists(st.sampled_from(["x", "y", ""]), max_size=2))
    if draw(st.integers(0, 9)) == 0:
        names.remove(draw(st.sampled_from(PANEL_COLUMNS)))
    header = draw(st.permutations(names))
    eol = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    lines = [",".join(header)]
    for kind in draw(st.lists(st.sampled_from("rrrrbs"), max_size=10)):
        if kind == "r":
            n = draw(st.sampled_from([len(header)] * 4 + [len(header) - 1, len(header) + 1, 1]))
            lines.append(",".join(draw(st.lists(CELL, min_size=n, max_size=n))))
        elif kind == "b":
            lines.append("")
        else:
            lines.append(draw(st.text(CSV_ALPHABET, max_size=8)))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    if draw(st.integers(0, 3)) == 0:  # a byte that is not UTF-8, written by surrogateescape
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\udcfc" + text[at:]
    return text


STATIONS = {"a": 0, "b": 1}
REFUSED = {"c": "is not an observed station in s.csv"}
SIM_DATES = ("2013-01-01", "2013-01-02")


@st.composite
def panel_texts(draw):
    """A long-form panel over few stations, dates and values, so that duplicate cells,
    unknown stations, bad dates and bad values all occur."""
    row = st.tuples(st.sampled_from("aaabbcz"),
                    st.sampled_from([*SIM_DATES * 3, "2013-01-03", "2013-13-40", "20130101"]),
                    st.sampled_from(["1.5", "0", "2e3", " 7 ", "1_0"] * 3
                                    + ["-0.5", "nan", "inf", "x", ""]))
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    body = [",".join(r) for r in draw(st.lists(row, max_size=12))]
    return eol.join(["station_id,date,value", *body]) + eol


class TestChunkedIngest:
    """The chunked reader gives what csv.reader, and a row-at-a-time check, gives."""

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts(), bom=st.booleans(),
           chunk=st.sampled_from([1, 2, 3, 5, 8, 13, 1 << 16]), limit=st.sampled_from([131072, 10]))
    def test_same_rows_and_faults_as_csv_reader(self, text, bom, chunk, limit):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            path.write_bytes(("\ufeff" * bom + text).encode(errors="surrogateescape"))
            # the limit is the csv module's own, so a short one applies to both readers
            old = csv.field_size_limit(limit)
            try:
                with mock.patch.object(data, "_CHUNK", chunk):
                    got = outcome(lambda: chunked_rows(path))
                assert got == outcome(lambda: reference_rows(path))
            finally:
                csv.field_size_limit(old)

    @settings(max_examples=400, deadline=None)
    @given(text=panel_texts(), chunk=st.sampled_from([1, 4, 16, 40, 1 << 16]),
           dates=st.sampled_from([None, SIM_DATES]))
    def test_same_array_and_first_fault_as_row_checks(self, text, chunk, dates):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            path.write_text(text, newline="")
            with mock.patch.object(data, "_CHUNK", chunk):
                got = outcome(lambda: [data._read_panel(path, STATIONS, REFUSED, dates=dates)])
            expected = outcome(lambda: [reference_panel(path, STATIONS, REFUSED, dates)])
        assert got[1] == expected[1]
        if got[1] is None:
            (grid, got_dates), = got[0]
            assert got_dates == expected[0][0][1]
            assert np.array_equal(grid, expected[0][0][0], equal_nan=True)

    # (rows after the header, the message after "<path> line "); each first fault
    # is followed by a later one of another kind
    FIRST_FAULTS = [
        (["a,2013-01-01,1", "b,2013-01-01,-1", "a,2013-01-02,1", "zz,2013-01-02,1"],
         "3: negative value -1.0"),
        (["a,2013-01-01,1", "b,2013-01-01,1", "a,2013-01-01,2", "a,2013-01-02,1",
          "b,2013-02-30,1"], "4: duplicate row for ('a', '2013-01-01')"),
        (["a,2013-01-01,1", "b,2013-01-01,1", "b,2013-01-02,1", "a,2013-01-01,x",
          "a,2013-01-02,-1"], "5: could not convert string to float: 'x'"),
        (["a,2013-01-01,1", "b,2013-01-01,1", "a,2013-01-02,inf", "zz,2013-01-02,1"],
         "4: non-finite value inf"),
        (["a,2013-01-01,1", "b,2013-01-01,1", "b,2013-01-02,north", "a,2013-01-01,1"],
         "4: could not convert string to float: 'north'"),
        (["a,2013-01-01,1", "b,2013-01-01,1", "c,2013-01-02,1", "a,2013-01-03,-1"],
         "4: station 'c' is not an observed station in s.csv"),
        (["a,2013-01-01,1", "b,2013-01-01,1", "a,20130102,1", "a,2013-01-01,1"],
         "4: date '20130102' is not a YYYY-MM-DD date"),
        (["a,2013-01-01,1", "b,2013-01-01,1", "a,2013-01-02,1,extra", "b,2013-01-02"],
         "5: no value field"),
        (["a,2013-01-01,1", "b,2013-01-01,1", "a,2013-01-02", "b,2013-01-01,1"],
         "4: no value field"),
        (["a,2013-01-01,1", "b,2013-01-01,1", 'a,2013-01-02,"1', '"', "a,2013-01-01,2"],
         "6: duplicate row for ('a', '2013-01-01')"),
    ]

    @pytest.mark.parametrize("body, fault", FIRST_FAULTS)
    @pytest.mark.parametrize("chunk", ["tiny", "boundary", "whole"])
    def test_first_fault_in_file_order_wins(self, tmp_path, body, fault, chunk):
        path = tmp_path / "o.csv"
        path.write_text("station_id,date,value\r\n" + "".join(f"{b}\r\n" for b in body),
                        newline="")
        # "boundary": the first chunk ends with line 3, so the fault opens the second
        size = {"tiny": 1, "boundary": len("".join(f"{b}\r\n" for b in body[:2])) - 1,
                "whole": 1 << 16}[chunk]
        with mock.patch.object(data, "_CHUNK", size):
            with pytest.raises(DataValidationError) as exc:
                data._read_panel(path, STATIONS, REFUSED)
        assert str(exc.value) == f"{path} line {fault}"
        assert outcome(lambda: [reference_panel(path, STATIONS, REFUSED)])[1] == str(exc.value)

    def test_unquoted_oversized_field_named_with_its_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("station_id,date,value\na,2013-01-01,1\na,2013-01-02,"
                        + "1" * 200_000 + "\n", newline="")
        with pytest.raises(DataValidationError) as exc:
            data._read_panel(path, STATIONS, REFUSED)
        assert str(exc.value) == f"{path} line 3: field larger than field limit (131072)"

    # (line of a negative value, line that starts with text that does not decode, the
    # message after the path): the first in file order is named
    UNDECODABLE = [(None, 4000, " line 4000: not UTF-8 text"),
                   (2000, 2500, " line 2000: negative value -1.0"),
                   (2490, 2500, " line 2490: negative value -1.0"),
                   (3400, 4000, " line 3400: negative value -1.0"),
                   (4000, 3400, " line 3400: not UTF-8 text"),
                   (10, 4500, " line 10: negative value -1.0"),
                   (4500, 10, " line 10: not UTF-8 text")]

    @pytest.mark.parametrize("fault_line, bad_line, message", UNDECODABLE)
    @pytest.mark.parametrize("chunk", [1, 13, 1 << 16])
    def test_undecodable_text_is_a_line_fault_in_file_order(self, tmp_path, fault_line,
                                                            bad_line, message, chunk):
        # a 95 KB panel: the undecodable text lies in the first 64K chunk or past it
        ids = {f"s{i}": i for i in range(10)}
        lines = ["station_id,date,value"] + [f"{s},{d},1.25" for s in ids
                                              for d in default_dates(500)]
        if fault_line:
            lines[fault_line - 1] = lines[fault_line - 1].replace("1.25", "-1")
        raw = "\n".join(lines).encode() + b"\n"
        at = raw.index(lines[bad_line - 1].encode())
        path = tmp_path / "x.csv"
        path.write_bytes(raw[:at] + "Z\u00fcrich".encode("latin-1") + raw[at:])
        with mock.patch.object(data, "_CHUNK", chunk):
            assert outcome(lambda: [data._read_panel(path, ids, {})])[1] == f"{path}{message}"
        assert outcome(lambda: [reference_panel(path, ids, {})])[1] == f"{path}{message}"

    # (file bytes, line named): each holds a later fault of another kind
    UNDECODABLE_LINES = [
        # a header that does not decode, and so has no station_id column
        (b"stati\xf3n_id,date,value\na,2013-01-01,-1\n", 1),
        # a byte-order mark, then text that does not decode on line 2
        (b"\xef\xbb\xbfstation_id,date,value\nZ\xfcrich,2013-01-01,1\na,2013-01-01,-1\n", 2),
        # inside a quoted field that opens on line 3 and ends on line 5
        (b'station_id,date,value\na,2013-01-01,1\na,2013-01-02,"1\n\n2\xfc"\na,x,-1\n', 5),
    ]

    @pytest.mark.parametrize("raw, line", UNDECODABLE_LINES,
                             ids=["header", "after-bom", "quoted-field"])
    @pytest.mark.parametrize("chunk", [1, 5, 16, 1 << 16])
    def test_undecodable_text_named_at_its_physical_line(self, tmp_path, raw, line, chunk):
        path = tmp_path / "o.csv"
        path.write_bytes(raw)
        with mock.patch.object(data, "_CHUNK", chunk):
            got = outcome(lambda: chunked_rows(path))
        assert got[1] == f"{path} line {line}: not UTF-8 text"
        assert got == outcome(lambda: reference_rows(path))

    def test_load_network_and_load_field_name_the_undecodable_line(self, tmp_path):
        net = toy_network()
        stations = tmp_path / "stations.csv"
        write_network_csv(stations, net)
        stations.write_bytes(stations.read_bytes().replace(b"s2,", b"Z\xfcrich,"))
        with pytest.raises(DataValidationError, match=r"stations\.csv line 4: not UTF-8 text$"):
            load_network(stations)
        dates = default_dates(3)
        field = tmp_path / "calibrated.csv"
        write_long_csv(field, net.ids, dates, {"x_calibrated": np.ones((4, 3))})
        field.write_bytes(field.read_bytes().replace(b"s1,2013-01-02",
                                                     b"s1,2013-01-02\xa0"))
        with pytest.raises(DataValidationError, match=r"calibrated\.csv line 6: not UTF-8 text$"):
            data.load_field(field, "x_calibrated", net, dates)

    def test_load_panel_peak_memory(self, tmp_path):
        # the benchmark's largest size: 200 stations, 100 observed, 365 days
        rng = np.random.default_rng(3)
        net = toy_network(n_total=200, n_obs=100)
        dates = default_dates(365)
        x = rng.uniform(0.1, 60.0, (200, 365))
        y = np.where(rng.random((100, 365)) < 0.1, np.nan, rng.uniform(0.1, 60.0, (100, 365)))
        write_panel_csv(tmp_path / "simulated.csv", x, net.ids, dates)
        write_panel_csv(tmp_path / "observed.csv", y, net.ids[:100], dates)
        tracemalloc.start()
        try:
            panel = load_panel(tmp_path / "observed.csv", tmp_path / "simulated.csv", net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(panel.x, x) and np.array_equal(panel.y, y, equal_nan=True)
        # the panels are 0.88 MB; chunked ingest peaked at 2.3 MB, row-at-a-time at 17.3 MB
        assert peak < 4e6, f"load_panel peaked at {peak / 1e6:.2f} MB"


class TestGenerateSynthetic:
    def test_shapes_and_support(self):
        net = toy_network(n_total=6, n_obs=3)
        truth = SyntheticTruth(shift_y=2.0, shift_x=2.0, tau_z=4.0)
        panel, tr = generate_synthetic(truth, net, 8, seed=5)
        assert panel.y.shape == (3, 8)
        assert panel.x.shape == (6, 8)
        assert tr.delta_y.shape == (3, 8)
        assert np.all(panel.y < tr.delta_y) and np.all(panel.y > 0)
        assert np.all(panel.x < tr.delta_x) and np.all(panel.x > 0)
        assert np.all(tr.delta_y > truth.shift_y)
        assert tr.z.sum() == pytest.approx(0.0, abs=1e-9)

    def test_truth_is_the_generator_parameters(self):
        # the truth names each scalar unknown, then the two shifts, and nothing
        # realized; the draw comes back as the model's own state
        assert tuple(f.name for f in dataclasses.fields(SyntheticTruth)) == \
            (*SCALAR_NAMES, "shift_y", "shift_x")
        truth = SyntheticTruth(shift_y=2.0, shift_x=2.0, tau_z=4.0, alpha=0.3)
        _, state = generate_synthetic(truth, toy_network(n_total=6, n_obs=3), 8, seed=5)
        assert isinstance(state, ModelState)
        assert {n: getattr(state, n) for n in SCALAR_NAMES} == \
            {n: getattr(truth, n) for n in SCALAR_NAMES}

    def test_missingness_rate_and_floor(self):
        net = toy_network(n_total=6, n_obs=3)
        panel, _ = generate_synthetic(SyntheticTruth(shift_y=2.0, shift_x=2.0),
                                      net, 40, seed=2, missing_rate=0.5)
        frac = np.isnan(panel.y).mean()
        assert 0.3 < frac < 0.7
        assert np.all((~np.isnan(panel.y)).sum(axis=1) >= 1)
        assert not np.any(np.isnan(panel.x))

    def test_seed_reproducible(self):
        net = toy_network()
        a, _ = generate_synthetic(SyntheticTruth(), net, 5, seed=9)
        b, _ = generate_synthetic(SyntheticTruth(), net, 5, seed=9)
        assert np.array_equal(a.x, b.x)

    # sha256 of each array's bytes from the generator at (seed, missing_rate):
    # a reordered or changed draw shows here, not only as a new seed's panel
    STREAM = {
        (5, 0.0): {
            "y": "68a0612be85becd0e42da53e36877b9fcfe961c9fa960a27dd557436491a9662",
            "x": "e61f18994963ce90bce76ee0197962e9fd388f77c794e25be90a036b47f163a6",
            "w": "b6f27046a095fc696e4989b7fd14614cfb5103feca27328729336f5b860e55c3",
            "z": "f9f2ecf9f29306a44cd0996ff07da0c2437e83fc1e586e85f88e96e6be5df611",
            "delta_y": "922c42c7fb3a60a4339b11f7b46374cb69177b2e56e075839dedec71b5856ed4",
            "delta_x": "d753ecaa7f96971d82036a2c7277675cfb6cc6bdceba16998a21596b816893b8",
        },
        (2, 0.3): {
            "y": "9b7b4d14bafa4dbe3f2610a99a12322f66856b6ffa9bf9787fba78c1f6f280e2",
            "x": "1def6652201ee68107f9084e05c74cb283df978cf25c0bc204da7851321e1a1b",
            "w": "616acae7dadac9b95c77cab8cddf56cb742792a1a798109be295bd7e58947999",
            "z": "ef9392ebd3961263adc8e36a18b8b4107656b1a4a8210126ff35103c65848673",
            "delta_y": "ff75ea6ea2a468e83b2a60fe165bad2178dab7c7fb10f9699131c84fbb99fda3",
            "delta_x": "1ded2191a9ac132e485bbcb81d8e70ae7aa6d85c9a4bfd4a3f9a5deb1428cf49",
        },
    }

    @pytest.mark.parametrize("seed, missing_rate", list(STREAM))
    def test_stream_pinned(self, seed, missing_rate):
        net = toy_network(n_total=6, n_obs=3)
        panel, tr = generate_synthetic(SyntheticTruth(), net, 8, seed=seed,
                                       missing_rate=missing_rate)
        arrays = {"y": panel.y, "x": panel.x, "w": tr.w, "z": tr.z,
                  "delta_y": tr.delta_y, "delta_x": tr.delta_x}
        assert {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in arrays.items()} == \
            self.STREAM[seed, missing_rate]

    def test_rejects_bad_missing_rate(self):
        net = toy_network()
        with pytest.raises(DomainError):
            generate_synthetic(SyntheticTruth(), net, 5, missing_rate=1.0)

    def test_needs_an_observed_station(self):
        with pytest.raises(DataValidationError, match="observed panel has no data"):
            generate_synthetic(SyntheticTruth(), toy_network(n_obs=0), 5)


def test_default_dates_are_consecutive():
    dates = default_dates(3, start="2013-01-30")
    assert dates == ("2013-01-30", "2013-01-31", "2013-02-01")
