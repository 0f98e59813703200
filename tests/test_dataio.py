"""Dataset parsing, canonical serialization, and the exact round trip."""

import math

import numpy as np
import pytest

from conftest import make_areas, random_dataset
from logsae.dataio import (
    DatasetSchema,
    RunManifest,
    load_dataset,
    save_dataset,
    sha256_file,
    write_csv,
    write_manifest,
)
from logsae.errors import NonPositiveValue, NonPsdSigma, ParseError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSchemaInference:
    def test_log_scale_full_triangle(self):
        schema = DatasetSchema.from_fieldnames(
            ["area_id", "z", "w_1", "w_2", "psi", "sme_1_1", "sme_2_1", "sme_2_2"]
        )
        assert schema == DatasetSchema(2, "z", "w", "full")

    def test_raw_scale_diagonal(self):
        schema = DatasetSchema.from_fieldnames(
            ["area_id", "y", "x_1", "psi", "sme_diag_1"]
        )
        assert schema.raw_response and schema.raw_covariates
        assert schema.sme_columns == ["sme_diag_1"]

    @pytest.mark.parametrize(
        "fields,fragment",
        [
            (["area_id", "psi", "w_1", "sme_diag_1"], "'z' or 'y'"),
            (["area_id", "z", "y", "w_1", "psi", "sme_diag_1"], "'z' or 'y'"),
            (["area_id", "z", "w_1", "sme_diag_1"], "psi"),
            (["area_id", "z", "psi", "sme_diag_1"], "covariate"),
            (["area_id", "z", "w_1", "x_1", "psi", "sme_diag_1"], "not both"),
            (["area_id", "z", "w_1", "w_3", "psi", "sme_diag_1"], "contiguous"),
            (["area_id", "z", "w_1", "psi"], "covariance"),
            (["area_id", "z", "w_1", "psi", "sme_1_1", "sme_diag_1"], "not both"),
            (["area_id", "z", "w_1", "w_2", "psi", "sme_diag_1"], "sme_diag"),
            (["area_id", "z", "w_1", "w_2", "psi", "sme_1_1", "sme_2_2"], "sme_2_1"),
            (["area_id", "z", "w_1", "psi", "sme_diag_1", "oops"], "unrecognized"),
            (["area_id", "z", "z", "w_1", "psi", "sme_diag_1"], "duplicate"),
        ],
    )
    def test_bad_headers_pinpointed(self, fields, fragment):
        with pytest.raises(ParseError, match=fragment):
            DatasetSchema.from_fieldnames(fields)

    def test_upper_triangle_redirects_to_lower(self):
        with pytest.raises(ParseError, match="sme_2_1"):
            DatasetSchema.from_fieldnames(
                ["area_id", "z", "w_1", "w_2", "psi", "sme_1_1", "sme_1_2", "sme_2_2"]
            )


class TestLoadDataset:
    def test_raw_scale_is_logged(self, tmp_path):
        path = write(
            tmp_path,
            "area_id,y,x_1,psi,sme_diag_1\nRI,191.641,100.0,0.5,0.0\n",
        )
        (area,) = load_dataset(path)
        assert area.z == pytest.approx(math.log(191.641), rel=1e-15)
        assert area.z == pytest.approx(5.2557, abs=1e-3)
        assert area.w[0] == pytest.approx(math.log(100.0), rel=1e-15)

    def test_log_scale_passes_through(self, tmp_path):
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\nRI,5.2557,4.6052,0.5,0\n")
        (area,) = load_dataset(path)
        assert area.z == 5.2557 and area.w[0] == 4.6052

    def test_file_order_preserved(self, tmp_path):
        rows = "".join(f"id{i},1.0,2.0,0.5,0\n" for i in (3, 1, 2))
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\n" + rows)
        assert [a.area_id for a in load_dataset(path)] == ["id3", "id1", "id2"]

    def test_nonpositive_raw_response(self, tmp_path):
        path = write(tmp_path, "area_id,y,x_1,psi,sme_diag_1\na,0.0,1.0,0.5,0\n")
        with pytest.raises(NonPositiveValue, match="line 2"):
            load_dataset(path)

    def test_nonpositive_raw_covariate(self, tmp_path):
        path = write(tmp_path, "area_id,y,x_1,psi,sme_diag_1\na,1.0,-2.0,0.5,0\n")
        with pytest.raises(NonPositiveValue, match="x_1"):
            load_dataset(path)

    def test_zero_allowed_on_log_scale(self, tmp_path):
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\na,0.0,-2.0,0.5,0\n")
        (area,) = load_dataset(path)
        assert area.z == 0.0 and area.w[0] == -2.0

    def test_bad_number_pinpoints_row_and_column(self, tmp_path):
        path = write(
            tmp_path,
            "area_id,z,w_1,psi,sme_diag_1\na,1,2,0.5,0\nb,1,x,0.5,0\n",
        )
        with pytest.raises(ParseError, match=r"line 3.*'w_1'"):
            load_dataset(path)

    def test_missing_cell_reported(self, tmp_path):
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\na,1,2,0.5\n")
        with pytest.raises(ParseError, match="missing value"):
            load_dataset(path)

    def test_extra_cell_reported(self, tmp_path):
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\na,1,2,0.5,0,9\n")
        with pytest.raises(ParseError, match="more cells"):
            load_dataset(path)

    def test_negative_psi_rejected(self, tmp_path):
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\na,1,2,-0.5,0\n")
        with pytest.raises(ParseError, match="psi"):
            load_dataset(path)

    def test_non_psd_sigma_names_line(self, tmp_path):
        path = write(
            tmp_path,
            "area_id,z,w_1,w_2,psi,sme_1_1,sme_2_1,sme_2_2\n"
            "a,1,2,3,0.5,1.0,0.0,1.0\n"
            "b,1,2,3,0.5,1.0,5.0,1.0\n",
        )
        with pytest.raises(NonPsdSigma, match="line 3"):
            load_dataset(path)

    def test_diagonal_entries_may_be_zero(self, tmp_path):
        path = write(
            tmp_path,
            "area_id,z,w_1,w_2,psi,sme_diag_1,sme_diag_2\na,1,2,3,0.5,2.0,0.0\n",
        )
        (area,) = load_dataset(path)
        np.testing.assert_array_equal(area.sigma_me, np.diag([2.0, 0.0]))

    def test_schema_argument_must_match(self, tmp_path):
        path = write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\na,1,2,0.5,0\n")
        wanted = DatasetSchema(1, "y", "x", "diag")
        with pytest.raises(ParseError, match="expected"):
            load_dataset(path, schema=wanted)

    def test_duplicate_area_id_names_both_lines(self, tmp_path):
        text = "area_id,z,w_1,psi,sme_diag_1\na,1,1,1,0\nb,2,1,1,0\na,3,1,1,0\n"
        with pytest.raises(ParseError, match=r"line 4: duplicate area_id 'a'.* line 2"):
            load_dataset(write(tmp_path, text))

    def test_empty_file_and_header_only(self, tmp_path):
        with pytest.raises(ParseError, match="header"):
            load_dataset(write(tmp_path, ""))
        assert load_dataset(write(tmp_path, "area_id,z,w_1,psi,sme_diag_1\n")) == []


class TestRoundTrip:
    def test_save_then_load_is_exact(self, tmp_path, gen):
        z, w, psi, sigma = random_dataset(gen, m=15, p=2, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        path = tmp_path / "canonical.csv"
        save_dataset(areas, path)
        back = load_dataset(path)
        assert len(back) == len(areas)
        for a, b in zip(areas, back):
            assert a.area_id == b.area_id
            assert a.z == b.z and a.psi == b.psi
            np.testing.assert_array_equal(a.w, b.w)
            np.testing.assert_array_equal(a.sigma_me, b.sigma_me)

    def test_rewrite_is_byte_identical(self, tmp_path, gen):
        z, w, psi, sigma = random_dataset(gen, m=9, p=1, with_sigma=True)
        areas = make_areas(z, w, psi, sigma)
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        save_dataset(areas, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert sha256_file(p1) == sha256_file(p2)


class TestWriteCsv:
    def test_formats_by_type(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(
            path,
            ["name", "count", "value", "flag"],
            [{"name": "x", "count": 3, "value": 1.0 / 3.0, "flag": True}],
        )
        text = path.read_text()
        assert "0.33333333333333331" in text
        assert "true" in text and "3" in text


class TestManifest:
    def test_written_fields_round_trip(self, tmp_path):
        import json

        manifest = RunManifest(
            command="logsae fit data.csv",
            config={"dataset": "data.csv"},
            seed=None,
            version="0.1.0",
            input_sha256="ab" * 32,
            started_at="2026-08-16T00:00:00+00:00",
            finished_at="2026-08-16T00:00:01+00:00",
            n_workers=2,
        )
        path = tmp_path / "manifest.json"
        write_manifest(manifest, path)
        payload = json.loads(path.read_text())
        assert payload["command"].startswith("logsae fit")
        assert payload["n_workers"] == 2 and payload["seed"] is None
