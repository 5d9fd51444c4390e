import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from holonoise import TimeSeries
from holonoise import io as hio


@pytest.fixture
def ts():
    rng = np.random.default_rng(0)
    return TimeSeries(sample_rate=1.6e7, values=rng.normal(size=1000) * 1e-18)


class TestBinaryFormat:
    def test_round_trip(self, ts, tmp_path):
        path = tmp_path / "rec.hnts"
        hio.write_timeseries_bin(path, ts, seed=42,
                                 metadata={"method": "spectral", "L": 40.0})
        back, meta = hio.read_timeseries_bin(path)
        assert back.sample_rate == ts.sample_rate
        assert np.array_equal(back.values, ts.values)
        assert meta["seed"] == 42
        assert meta["method"] == "spectral"
        assert meta["units"] == "m"

    def test_writes_the_record_without_a_copy(self, tmp_path):
        # 8 MiB of samples, written from the record itself
        big = TimeSeries(sample_rate=1.6e7, values=np.random.default_rng(1)
                         .normal(size=2**20) * 1e-18)
        path = tmp_path / "big.hnts"
        tracemalloc.start()
        try:
            hio.write_timeseries_bin(path, big, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.array_equal(hio.read_timeseries_bin(path)[0].values,
                              big.values)

    def test_deterministic_bytes(self, ts, tmp_path):
        p1, p2 = tmp_path / "a.hnts", tmp_path / "b.hnts"
        hio.write_timeseries_bin(p1, ts, seed=7, metadata={"x": 1})
        hio.write_timeseries_bin(p2, ts, seed=7, metadata={"x": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hnts"
        path.write_bytes(b"NOPE" + b"\0" * 100)
        with pytest.raises(ValueError, match="magic"):
            hio.read_timeseries_bin(path)

    def test_rejects_truncated(self, ts, tmp_path):
        path = tmp_path / "trunc.hnts"
        hio.write_timeseries_bin(path, ts)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(ValueError, match=f"expected {ts.n} samples"):
            hio.read_timeseries_bin(path)
        # a count no machine could hold is refused before anything is read
        path.write_bytes(hio._HEADER.pack(hio.MAGIC, hio.FORMAT_VERSION, 1.0,
                                          2**62, 0, b"m".ljust(8, b"\0"), 2)
                         + b"{}" + bytes(14))
        with pytest.raises(ValueError,
                           match=f"expected {2**62} samples, found 1$"):
            hio.read_timeseries_bin(path)
        path.write_bytes(data[:hio._HEADER.size - 1])
        with pytest.raises(ValueError, match="truncated header"):
            hio.read_timeseries_bin(path)

    def test_rejects_unsupported_version(self, tmp_path):
        path = tmp_path / "future.hnts"
        path.write_bytes(hio._HEADER.pack(hio.MAGIC, hio.FORMAT_VERSION + 1,
                                          1.0, 1, 0, b"m".ljust(8, b"\0"), 2)
                         + b"{}" + bytes(8))
        with pytest.raises(ValueError, match="unsupported format version"):
            hio.read_timeseries_bin(path)


class TestCsvTimeSeries:
    def test_round_trip(self, ts, tmp_path):
        path = tmp_path / "rec.csv"
        hio.write_timeseries_csv(path, ts, seed=9, metadata={"L": 40.0})
        back, meta = hio.read_timeseries_csv(path)
        assert back.sample_rate == ts.sample_rate
        assert np.array_equal(back.values, ts.values)  # %.17e is lossless
        assert meta["seed"] == 9

    def test_bytes_across_blocks_match_the_line_rule(self, tmp_path):
        # a record over two blocks of rows: the bytes of the per-sample
        # lines, "%.17e" each
        values = np.random.default_rng(2).normal(size=2 * hio._ROWS + 3)
        values[[0, hio._ROWS - 1, hio._ROWS, -1]] = [-0.0, 5e-324, 1e300, 0.1]
        path = tmp_path / "rec.csv"
        hio.write_timeseries_csv(path, TimeSeries(1.6e7, values), seed=9,
                                 metadata={"L": 40.0})
        meta = {"L": 40.0, "sample_rate_hz": 1.6e7, "n_samples": values.size,
                "seed": 9, "units": "m"}
        expected = (hio._preamble(meta) + "displacement_m\n"
                    + "".join(f"{v:.17e}\n" for v in values))
        assert path.read_text(encoding="utf-8") == expected

    def test_rejects_missing_sample_rate(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("# seed = 9\ndisplacement_m\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="sample_rate_hz"):
            hio.read_timeseries_csv(path)


class TestTables:
    def test_round_trip_with_complex_and_nan(self, tmp_path):
        path = tmp_path / "table.csv"
        f = np.linspace(0.0, 10.0, 5)
        csd = f + 1j * f**2
        env = f.copy()
        env[0] = np.nan
        hio.write_table_csv(path, {"f": f, "csd": csd, "env": env},
                            {"seed": 3, "note": "x"})
        cols, meta = hio.read_table_csv(path)
        assert meta["seed"] == 3
        assert_allclose(cols["f"], f)
        assert_allclose(cols["csd_re"], csd.real)
        assert_allclose(cols["csd_im"], csd.imag)
        assert np.isnan(cols["env"][0])
        assert_allclose(cols["env"][1:], env[1:])

    @pytest.mark.parametrize("rows", [0, 1, 9, 65535, 65536, 65537, 131075])
    def test_format_matches_cell_by_cell_rule(self, rows):
        # the blocks of rows write what the per-cell rule wrote: "%.12e",
        # and an empty cell for NaN, whole blocks or not
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0, -2.5e300,
                   1e-310, 0.1]
        values = np.resize(special, rows)
        csd = np.empty(rows, dtype=complex)
        csd.real, csd.imag = values, values[::-1]
        columns = {"f": np.arange(rows, dtype=float), "csd": csd,
                   "single": np.resize(np.float32([0.1, -3.5, np.nan]), rows),
                   "x": -values}
        meta = {"seed": 3}

        cells = {}
        for name, arr in columns.items():
            if np.iscomplexobj(arr):
                cells[f"{name}_re"], cells[f"{name}_im"] = arr.real, arr.imag
            else:
                cells[name] = arr
        lines = [",".join(cells)] + [
            ",".join("" if math.isnan(x) else f"{x:.12e}" for x in row)
            for row in zip(*(c.tolist() for c in cells.values()))]
        expected = hio._preamble(meta) + "\n".join(lines) + "\n"
        assert hio.format_table_csv(columns, meta) == expected

    def test_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            hio.write_table_csv(tmp_path / "x.csv",
                                {"a": np.ones(3), "b": np.ones(4)})

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# seed = 9\n\n")
        with pytest.raises(ValueError, match="no column header"):
            hio.read_table_csv(path)


class TestSummary:
    def test_deterministic(self, tmp_path):
        doc = {"b": 2, "a": [1.5, None], "nested": {"z": 1, "y": "s"}}
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        hio.write_summary_json(p1, doc)
        hio.write_summary_json(p2, doc)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().startswith("{")

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"),
                                       float("nan")])
    def test_non_finite_value_rejected(self, tmp_path, value):
        # NaN and Infinity are not JSON; no such file may be written
        path = tmp_path / "s.json"
        with pytest.raises(ValueError):
            hio.write_summary_json(path, {"band_hz": [0.0, value]})
        assert not path.exists()
