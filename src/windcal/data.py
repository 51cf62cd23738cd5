"""Panel data: CSV ingestion, validation, and forward simulation.

CSV schemas (UTF-8 text, with or without a byte-order mark):
  stations file   station_id,x_km,y_km,observed      (observed in {0,1})
  panel files     station_id,date,value              (long form, YYYY-MM-DD;
                                                      finite values only;
                                                      missing = absent row,
                                                      observed panel only)
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .draws import SCALAR_NAMES
from .errors import DataValidationError, DomainError
from .latent import StationNetwork
from .model import HierarchicalModel


@dataclass
class PanelData:
    """Observed (N x T, NaN-missing) and simulated (N_s x T, complete) panels."""

    y: np.ndarray
    x: np.ndarray
    dates: tuple

    def __post_init__(self):
        if np.any(np.isnan(self.x)):
            raise DataValidationError("simulated panel must have no missing cells")
        y_clean = self.y[~np.isnan(self.y)]
        if np.any(y_clean < 0) or self.x.min() < 0:
            raise DataValidationError("panel values must be nonnegative")
        if self.y.shape[1] != self.x.shape[1] or len(self.dates) != self.x.shape[1]:
            raise DataValidationError("panels and date axis must share the time dimension")

    @property
    def n_times(self) -> int:
        return self.x.shape[1]

    def missing_fraction(self) -> np.ndarray:
        """Per-station share of missing observed cells."""
        return np.isnan(self.y).mean(axis=1)


# Characters read from a CSV file at a time, plus the rest of the last line.  Every
# buffer a chunk needs stays below 128 KiB: glibc raises its mmap threshold when a
# larger block is freed, and the sampler's later arrays would then grow the heap.
_CHUNK = 1 << 16
# every byte but the comma and the two line-end characters, which UTF-8 writes for no
# other character
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\r\n")))
# the characters errors="surrogateescape" decodes each byte that is not UTF-8 to
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def text_lines(path, lines, line=0):
    """Yield ``lines``, which follow line ``line`` of ``path``, and raise at the first
    that holds text that is not UTF-8: a file opened with errors="surrogateescape"
    decodes such bytes to U+DC80-U+DCFF, which UTF-8 text never decodes to."""
    for line, text in enumerate(lines, line + 1):
        if not text.isascii() and _UNDECODABLE.search(text):
            raise DataValidationError(f"{path} line {line}: not UTF-8 text")
        yield text


def _split(chunk: str, width: int):
    """The cells of a chunk's lines, row after row, or None when csv.reader must read it:
    it holds a quote, a NUL, text that is not UTF-8, line ends other than all \\n or all
    \\r\\n, or a line without width - 1 commas (a blank line among them: every file read
    has three or more columns)."""
    if '"' in chunk or "\0" in chunk or not chunk.isascii() and _UNDECODABLE.search(chunk):
        return None
    eol = "\r\n" if "\r" in chunk else "\n"
    # the commas and line ends of the chunk, in order, must repeat those of one line
    # (the file's last line may lack its line end)
    body = chunk.removesuffix(eol)
    line = ("," * (width - 1) + eol).encode()
    seps = (body + eol).encode().translate(None, _NOT_SEPARATOR)
    if seps != line * (len(seps) // len(line)):
        return None
    return ",".join(body.split(eol)).split(",")


def _read_columns(path, columns: tuple):
    """Yield (line numbers, one list of texts per column) for each chunk of a CSV
    file's data rows: the rows, line numbers and errors csv.reader gives.

    A chunk is _CHUNK characters and the rest of its last line.  One that _split takes
    and that holds no field over csv's limit is split in bulk; any other is read by
    csv.reader, which reads on into the file to finish a quoted field.  A short row, a
    csv error or a line of text that is not UTF-8 is raised when the next chunk is asked
    for, after the rows before it: a caller that checks each chunk before it asks for
    the next names the file's first fault.  Blank lines are passed over.
    """
    # utf-8-sig: a UTF-8 file may start with a byte-order mark, as spreadsheets write one
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        head = csv.reader(text_lines(path, fh))
        try:
            header = next(head, [])
        except csv.Error as exc:
            raise DataValidationError(f"{path} line {head.line_num}: {exc}") from None
        if not set(columns) <= set(header):
            raise DataValidationError(f"{path} needs columns {sorted(columns)}")
        index = [header.index(c) for c in columns]
        line = head.line_num  # lines read so far, as csv.reader's line_num counts them
        while chunk := fh.read(_CHUNK):
            chunk += fh.readline()
            if len(chunk) <= csv.field_size_limit() and (
                    cells := _split(chunk, len(header))) is not None:
                n_lines = len(cells) // len(header)
                yield (range(line + 1, line + 1 + n_lines),
                       [cells[i::len(header)] for i in index])
                line += n_lines
                continue
            # the chunk's lines, then the file's to finish a quoted field
            lines = io.StringIO(chunk, newline="").readlines()
            reader = csv.reader(text_lines(path, itertools.chain(lines, fh), line))
            nums, rows, fault = [], [], None
            try:
                for row in reader:
                    if len(row) > max(index):
                        nums.append(line + reader.line_num)
                        rows.append(row)
                    elif row:
                        short = ", ".join(c for c, i in zip(columns, index) if i >= len(row))
                        raise DataValidationError(
                            f"{path} line {line + reader.line_num}: no {short} field")
                    if reader.line_num >= len(lines):
                        break
            except csv.Error as exc:
                fault = DataValidationError(f"{path} line {line + reader.line_num}: {exc}")
            except DataValidationError as exc:
                fault = exc
            line += reader.line_num
            yield nums, [[row[i] for row in rows] for i in index]
            if fault:
                raise fault


def load_network(path) -> StationNetwork:
    ids, coords, observed = {}, [], []  # ids: station id -> its line
    for lines, columns in _read_columns(path, ("station_id", "x_km", "y_km", "observed")):
        for lineno, sid, x_km, y_km, flag in zip(lines, *columns):
            if sid in ids:
                raise DataValidationError(f"{path} line {lineno}: duplicate station id "
                                          f"{sid!r} (first on line {ids[sid]})")
            ids[sid] = lineno
            try:
                coords.append((float(x_km), float(y_km)))
                flag = int(flag)
            except ValueError as exc:
                raise DataValidationError(f"{path} line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, coords[-1])):
                raise DataValidationError(f"{path} line {lineno}: non-finite coordinate")
            if flag not in (0, 1):
                raise DataValidationError(f"{path} line {lineno}: observed must be 0 or 1")
            observed.append(bool(flag))
    if not ids:
        raise DataValidationError(f"{path}: no data rows")
    return StationNetwork.from_coords(list(ids), np.array(coords), np.array(observed), path)


def _is_date(text: str) -> bool:
    """Whether ``text`` is a date written YYYY-MM-DD, the form that sorts as text."""
    try:
        return dt.date.fromisoformat(text).isoformat() == text
    except ValueError:
        return False


def _first_fault(path, lines, sids, days, texts, rows, refused, codes, closed, seen):
    """Raise the first rule a chunk's rows break, checking one row at a time."""
    cells = set()
    for lineno, sid, date, text in zip(lines, sids, days, texts):
        if sid not in rows:
            raise DataValidationError(f"{path} line {lineno}: station {sid!r} "
                                      f"{refused.get(sid, 'not in the network')}")
        if date not in codes:
            if not _is_date(date):
                raise DataValidationError(
                    f"{path} line {lineno}: date {date!r} is not a YYYY-MM-DD date")
            if closed:
                raise DataValidationError(
                    f"{path} line {lineno}: date {date} outside the simulated range")
        try:
            val = float(text)
        except ValueError as exc:
            raise DataValidationError(f"{path} line {lineno}: {exc}") from exc
        if not math.isfinite(val):
            raise DataValidationError(f"{path} line {lineno}: non-finite value {val}")
        if val < 0:
            raise DataValidationError(f"{path} line {lineno}: negative value {val}")
        key = (sid, date)
        if key in cells or (date in codes and seen[codes[date] * len(rows) + rows[sid]]):
            raise DataValidationError(f"{path} line {lineno}: duplicate row for {key}")
        cells.add(key)


def _read_panel(path, rows: dict, refused: dict, column="value", dates=None):
    """The (station, date) array of a station_id,date,<column> file, NaN where a cell
    has no row, and its dates: ``dates`` when given, else the file's own, sorted.

    ``rows`` maps each station id the file may use to its row, ``refused`` any other
    network id to why not; a file given ``dates`` may use no other.  Each chunk's
    rows are checked by whole columns, and are scattered into the array at the end.
    """
    closed = dates is not None
    # each date's code: its place in ``dates``, else in the order the file first uses it
    codes = {} if dates is None else dict(zip(dates, itertools.count()))
    n = len(rows)
    seen = np.zeros(n * len(codes), bool)  # cells read so far, at code * n + row
    filled, parts = 0, []
    for lines, (sids, days, texts) in _read_columns(path, ("station_id", "date", column)):
        fault = functools.partial(_first_fault, path, lines, sids, days, texts, rows,
                                  refused, codes, closed)
        at = np.fromiter(map(rows.get, sids, itertools.repeat(-1)), np.intp, len(sids))
        fresh = [d for d in dict.fromkeys(days) if d not in codes]
        try:
            values = np.fromiter(map(float, texts), float, len(texts))
            valid = ((values >= 0) & (values < np.inf)).all()
        except ValueError:
            valid = False
        if not valid or at.min(initial=0) < 0 or (
                fresh and (closed or not all(map(_is_date, fresh)))):
            fault(seen)
        if fresh:
            codes.update(zip(fresh, itertools.count(len(codes))))
            seen = np.concatenate((seen, np.zeros(n * len(fresh), bool)))
        keys = np.fromiter(map(codes.__getitem__, days), np.intp, len(days)) * n + at
        if seen[keys].any():
            fault(seen)
        seen[keys] = True
        filled += len(keys)
        if np.count_nonzero(seen) < filled:  # a cell twice in this chunk
            seen[keys] = False
            fault(seen)
        parts.append((keys, values))
    if dates is None:
        dates = tuple(sorted(codes))
    column_of = dict(zip(dates, itertools.count()))
    remap = np.fromiter(map(column_of.__getitem__, codes), np.intp, len(codes))
    grid = np.full((n, len(dates)), np.nan)
    for keys, values in parts:
        grid[keys % n, remap[keys // n]] = values
    return grid, dates


def _rectangle(path, what: str, ids, column="value", dates=None):
    """Read a long-form file that has a row for every (station, date) cell; returns
    (array, dates), the dates being ``dates`` when given, else the file's own, sorted."""
    grid, dates = _read_panel(path, dict(zip(ids, itertools.count())), {}, column, dates)
    holes = np.isnan(grid)
    if holes.all():
        raise DataValidationError(f"{path}: no data rows")
    if holes.any():
        i, j = np.argwhere(holes)[0]
        raise DataValidationError(f"{path}: {what} is not a complete station-"
                                  f"by-date rectangle: no row for station {ids[i]!r} on {dates[j]}")
    return grid, dates


def load_panel(observed_path, simulated_path, net: StationNetwork) -> PanelData:
    """Load the simulated panel, then the observed panel on its dates, against the network."""
    x, dates = _rectangle(simulated_path, "simulated panel", net.ids)
    rows = {net.ids[i]: r for r, i in enumerate(net.observed_indices)}
    refused = {sid: f"is not an observed station in {net.source}"
               for sid, flag in zip(net.ids, net.observed) if not flag}
    y, _ = _read_panel(observed_path, rows, refused, dates=dates)
    return PanelData(y=y, x=x, dates=dates)


def load_field(path, column: str, net: StationNetwork, dates) -> np.ndarray:
    """One column of a long-form file written on the panel's grid, e.g. a run's
    calibrated.csv, as a complete (station, date) array."""
    return _rectangle(path, f"{column} field", net.ids, column, dates)[0]


class _Echo:
    """A file whose write returns the text, so a csv writer's writerow returns its row."""

    @staticmethod
    def write(text):
        return text


_csv_row = csv.writer(_Echo()).writerow


def _column_text(col, quoted: dict) -> list:
    """The CSV text of each cell of one column; ``quoted`` caches string cells."""
    # a masked cell is an empty field; only an ndarray subclass can be masked,
    # and asking np.ma about a plain column would import numpy.ma
    if isinstance(col, np.ndarray) and type(col) is not np.ndarray and np.ma.isMaskedArray(col):
        holes = np.ma.getmaskarray(col).tolist()
        return ["" if hole else text
                for text, hole in zip(_column_text(col.data, quoted), holes)]
    if isinstance(col, np.ndarray) and col.dtype.kind in "bfiu":
        if col.dtype.kind == "b":
            return ["1" if v else "0" for v in col.tolist()]
        return list(map(repr if col.dtype.kind == "f" else str, col.tolist()))
    values = col.tolist() if isinstance(col, np.ndarray) else list(col)
    # csv's own QUOTE_MINIMAL text of (value, ""), less the trailing ",\r\n"
    quoted.update((v, _csv_row((v, ""))[:-3]) for v in set(values).difference(quoted))
    return list(map(quoted.__getitem__, values))


def write_table(path, header, blocks):
    """Write a CSV table with one header row; the one writer of windcal's CSV files.

    Each block is a list of equal-length columns, and its rows follow the
    previous block's.  A column is turned into text in one pass: a float
    array as each value's repr(), a bool array as 0/1, an int array by
    str(), and any other sequence as csv's text of each distinct value.
    Rows end in \\r\\n, as csv.writer's do.
    """
    quoted = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for columns in itertools.chain([[[name] for name in header]], blocks):
            text = [_column_text(col, quoted) for col in columns]
            if len(text) == 1:  # csv quotes a lone empty field, or the row would read as blank
                text = [['""' if cell == "" else cell for cell in text[0]]]
            rows = "\r\n".join(map(",".join, zip(*text)))
            if rows:
                fh.write(rows + "\r\n")


def write_long_csv(path, ids, dates, columns: dict):
    """Write station-major station_id,date,<columns> rows from (station, date) arrays.

    A cell whose first column is NaN is left out.  Each station's rows are
    one block.
    """
    dates = np.asarray(dates)

    def blocks():
        for i, sid in enumerate(ids):
            station = [col[i] for col in columns.values()]
            keep = ~np.isnan(station[0])
            yield [[sid] * int(keep.sum()), dates[keep], *(c[keep] for c in station)]

    write_table(path, ["station_id", "date", *columns], blocks())


def write_panel_csv(path, values, ids, dates):
    """Write a long-form panel CSV; NaN cells are omitted."""
    write_long_csv(path, ids, dates, {"value": values})


def write_network_csv(path, net: StationNetwork):
    write_table(path, ["station_id", "x_km", "y_km", "observed"],
                [[net.ids, net.coords[:, 0], net.coords[:, 1], net.observed]])


@dataclass
class SyntheticTruth:
    """The generator's parameters: the nine scalars and the two endpoint shifts."""

    beta_y: float = -1.09
    beta_x: float = -0.85
    kappa_y: float = 5.3
    kappa_x: float = 18.6
    xi_y: float = -0.07
    xi_x: float = -0.08
    alpha: float = 0.45
    tau_w: float = 4.2
    tau_z: float = 0.4
    shift_y: float = 30.0
    shift_x: float = 30.0


def default_dates(n_times: int, start: str = "2013-01-01") -> tuple:
    d0 = dt.date.fromisoformat(start)
    return tuple((d0 + dt.timedelta(days=j)).isoformat() for j in range(n_times))


def generate_synthetic(truth: SyntheticTruth, net: StationNetwork, n_times: int,
                       seed: int = 0, missing_rate: float = 0.0):
    """Forward simulation of the full generative model.

    Returns (PanelData, ModelState): the panels and the realized state, the
    truth's scalars with the latent fields and per-cell endpoints drawn.
    ``missing_rate`` removes observed cells completely at random.  The draw is
    HierarchicalModel's own, so ``net`` needs an observed station, as the model
    does.
    """
    if not 0.0 <= missing_rate < 1.0:
        raise DomainError("missing_rate must be in [0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # the model's own forward draw, on placeholder panels that fix only the shapes
    ones = np.ones((net.n_total, n_times))
    model = HierarchicalModel(ones[net.observed_indices], ones, net,
                              shift_y=truth.shift_y, shift_x=truth.shift_x)
    state = model.sample_latents({name: getattr(truth, name) for name in SCALAR_NAMES}, rng)
    y, x = model.sample_panels(state, rng)
    if missing_rate > 0:
        drop = rng.random(y.shape) < missing_rate
        # keep at least one observation per station so empirical baselines work
        for r in range(y.shape[0]):
            if drop[r].all():
                drop[r, rng.integers(y.shape[1])] = False
        y = np.where(drop, np.nan, y)
    panel = PanelData(y=y, x=x, dates=default_dates(n_times))
    return panel, state
