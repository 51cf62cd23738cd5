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
import itertools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .draws import SCALAR_NAMES, STATE_ARRAYS
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


def _read_rows(path, columns: tuple):
    """(line number, values of ``columns``) for each data row of a CSV file."""
    # utf-8-sig: a UTF-8 file may start with a byte-order mark, as spreadsheets write one
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if not set(columns) <= set(header):
                raise DataValidationError(f"{path} needs columns {sorted(columns)}")
            index = [header.index(c) for c in columns]
            pick = operator.itemgetter(*index)
            width = max(index) + 1
            for row in reader:
                if len(row) < width:
                    if not row:  # a blank line; line_num still counts it
                        continue
                    short = ", ".join(c for c, i in zip(columns, index) if i >= len(row))
                    raise DataValidationError(f"{path} line {reader.line_num}: no {short} field")
                yield reader.line_num, pick(row)
        except UnicodeDecodeError:
            raise DataValidationError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:
            raise DataValidationError(f"{path} line {reader.line_num}: {exc}") from None


def load_network(path) -> StationNetwork:
    ids, coords, observed = {}, [], []  # ids: station id -> its line
    for lineno, (sid, x_km, y_km, flag) in _read_rows(
            path, ("station_id", "x_km", "y_km", "observed")):
        if sid in ids:
            raise DataValidationError(
                f"{path} line {lineno}: duplicate station id {sid!r} (first on line {ids[sid]})")
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


def _read_long_panel(path, ids: dict, column="value", dates=None) -> dict:
    """Read station_id,date,<column> rows into {(id, date): value}.
    ``ids`` maps each station id the file may use to None, any other network id to why not;
    ``dates``, when given, holds every date the file may use."""
    allowed = None if dates is None else frozenset(dates)
    cells, seen = {}, set()
    for lineno, (sid, date, value) in _read_rows(path, ("station_id", "date", column)):
        if refused := ids.get(sid, "not in the network"):
            raise DataValidationError(f"{path} line {lineno}: station {sid!r} {refused}")
        if date not in seen:  # each date is checked on its first row
            if not _is_date(date):
                raise DataValidationError(
                    f"{path} line {lineno}: date {date!r} is not a YYYY-MM-DD date")
            if allowed is not None and date not in allowed:
                raise DataValidationError(
                    f"{path} line {lineno}: date {date} outside the simulated range")
            seen.add(date)
        try:
            val = float(value)
        except ValueError as exc:
            raise DataValidationError(f"{path} line {lineno}: {exc}") from exc
        if not math.isfinite(val):
            raise DataValidationError(f"{path} line {lineno}: non-finite value {val}")
        if val < 0:
            raise DataValidationError(f"{path} line {lineno}: negative value {val}")
        key = (sid, date)
        if key in cells:
            raise DataValidationError(f"{path} line {lineno}: duplicate row for {key}")
        cells[key] = val
    return cells


def _rectangle(path, what: str, ids, column="value", dates=None):
    """Read a long-form file that has a row for every (station, date) cell; returns
    (array, dates), the dates being ``dates`` when given, else the file's own, sorted."""
    cells = _read_long_panel(path, dict.fromkeys(ids), column, dates)
    if not cells:
        raise DataValidationError(f"{path}: no data rows")
    if dates is None:
        dates = tuple(sorted({date for _, date in cells}))
    grid = _grid(cells, ids, dates)
    if np.any(np.isnan(grid)):
        i, j = np.argwhere(np.isnan(grid))[0]
        raise DataValidationError(f"{path}: {what} is not a complete station-"
                                  f"by-date rectangle: no row for station {ids[i]!r} on {dates[j]}")
    return grid, dates


def load_panel(observed_path, simulated_path, net: StationNetwork) -> PanelData:
    """Load the simulated panel, then the observed panel on its dates, against the network."""
    x, dates = _rectangle(simulated_path, "simulated panel", net.ids)
    y_cells = _read_long_panel(observed_path, {
        sid: None if flag else f"is not an observed station in {net.source}"
        for sid, flag in zip(net.ids, net.observed)}, dates=dates)
    obs_ids = [net.ids[i] for i in net.observed_indices]
    return PanelData(y=_grid(y_cells, obs_ids, dates), x=x, dates=dates)


def load_field(path, column: str, net: StationNetwork, dates) -> np.ndarray:
    """One column of a long-form file written on the panel's grid, e.g. a run's
    calibrated.csv, as a complete (station, date) array."""
    return _rectangle(path, f"{column} field", net.ids, column, dates)[0]


def _grid(cells: dict, ids, dates) -> np.ndarray:
    """The (station, date) array of ``cells``, NaN where a cell has no row."""
    values = map(cells.get, itertools.product(ids, dates), itertools.repeat(math.nan))
    return np.fromiter(values, float, count=len(ids) * len(dates)).reshape(len(ids), len(dates))


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
    """Generator parameters plus the realized latent fields and endpoints."""

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
    w: np.ndarray | None = None
    z: np.ndarray | None = None
    delta_y: np.ndarray | None = None
    delta_x: np.ndarray | None = None


def default_dates(n_times: int, start: str = "2013-01-01") -> tuple:
    d0 = dt.date.fromisoformat(start)
    return tuple((d0 + dt.timedelta(days=j)).isoformat() for j in range(n_times))


def generate_synthetic(truth: SyntheticTruth, net: StationNetwork, n_times: int,
                       seed: int = 0, missing_rate: float = 0.0):
    """Forward simulation of the full generative model.

    Returns (PanelData, SyntheticTruth) with the realized latent fields and
    per-cell endpoints filled in.  ``missing_rate`` removes observed cells
    completely at random.  The draw is HierarchicalModel's own, so ``net``
    needs an observed station, as the model does.
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
        drop = rng.uniform(size=y.shape) < missing_rate
        # keep at least one observation per station so empirical baselines work
        for r in range(y.shape[0]):
            if drop[r].all():
                drop[r, rng.integers(y.shape[1])] = False
        y = np.where(drop, np.nan, y)
    panel = PanelData(y=y, x=x, dates=default_dates(n_times))
    return panel, replace(truth, **{name: getattr(state, name) for name in STATE_ARRAYS})
