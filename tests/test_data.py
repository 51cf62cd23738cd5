"""Unit tests for CSV ingestion, validation, and forward simulation."""

import numpy as np
import pytest

from windcal.data import (
    PanelData,
    SyntheticTruth,
    default_dates,
    generate_synthetic,
    load_network,
    load_panel,
    write_network_csv,
    write_panel_csv,
)
from windcal.errors import DataValidationError, DomainError
from windcal.latent import StationNetwork


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

    def test_duplicate_station(self, tmp_path):
        p = self._write(tmp_path / "s.csv",
                        "station_id,x_km,y_km,observed\na,0,0,1\na,1,1,1\n")
        with pytest.raises(DataValidationError, match="duplicate"):
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
        with pytest.raises(DataValidationError, match="zz"):
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
        with pytest.raises(DataValidationError, match="rectangle"):
            load_panel(obs, sim, net)

    def test_observed_date_outside_simulated_range(self, tmp_path):
        net = self._tiny_net(tmp_path)
        obs = self._write(tmp_path / "o.csv",
                          "station_id,date,value\na,2013-02-01,1.0\n")
        sim = self._write(tmp_path / "x.csv",
                          "station_id,date,value\na,2013-01-01,1.0\nb,2013-01-01,1.0\n")
        with pytest.raises(DataValidationError, match="outside"):
            load_panel(obs, sim, net)


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

    def test_rejects_bad_missing_rate(self):
        net = toy_network()
        with pytest.raises(DomainError):
            generate_synthetic(SyntheticTruth(), net, 5, missing_rate=1.0)


def test_default_dates_are_consecutive():
    dates = default_dates(3, start="2013-01-30")
    assert dates == ("2013-01-30", "2013-01-31", "2013-02-01")
