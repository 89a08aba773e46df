import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cgrader.corpus import (
    Dataset,
    DatasetError,
    Submission,
    load_dataset,
    save_dataset,
    score_histogram,
    split,
)


def make_dataset(n):
    return Dataset(
        tuple(Submission(f"s{i}", f"int x{i};", float(i % 11)) for i in range(n))
    )


def write_csv(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_empty_csv(self, tmp_path):
        ds = load_dataset(write_csv(tmp_path, "id,code,score\n"))
        assert len(ds) == 0

    def test_field_mapping(self, tmp_path):
        ds = load_dataset(
            write_csv(tmp_path, 'id,code,score\ns1,"int main(){return 0;}",10\n')
        )
        assert ds.rows[0] == Submission("s1", "int main(){return 0;}", 10.0)

    def test_embedded_newlines(self, tmp_path):
        ds = load_dataset(
            write_csv(tmp_path, 'id,code,score\ns1,"int x;\nint y;",7\n')
        )
        assert ds.rows[0].code == "int x;\nint y;"

    def test_score_out_of_range(self, tmp_path):
        with pytest.raises(DatasetError, match="s1"):
            load_dataset(write_csv(tmp_path, "id,code,score\ns1,int x;,11\n"))

    def test_duplicate_id(self, tmp_path):
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(
                write_csv(tmp_path, "id,code,score\na,int x;,5\na,int y;,6\n")
            )

    def test_bad_header(self, tmp_path):
        with pytest.raises(DatasetError, match="header"):
            load_dataset(write_csv(tmp_path, "code,score\nint x;,5\n"))

    def test_malformed_csv_reports_line(self, tmp_path):
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(write_csv(tmp_path, 'id,code,score\ns1,"int x;,5\n'))

    def test_round_trip(self, tmp_path):
        ds = Dataset(
            (
                Submission("a", 'printf("x,y\n");', 7.5),
                Submission("b", "int x;", 10.0),
            )
        )
        path = tmp_path / "out.csv"
        save_dataset(ds, path)
        assert load_dataset(path) == ds


class TestSplit:
    def test_default_sizes_n8(self):
        parts = split(make_dataset(8), seed=1)
        assert (len(parts.train), len(parts.validation), len(parts.test)) == (4, 2, 2)

    def test_default_sizes_n765(self):
        parts = split(make_dataset(765), seed=1)
        sizes = (len(parts.train), len(parts.validation), len(parts.test))
        assert sizes == (382, 191, 192)

    def test_determinism(self):
        ds = make_dataset(30)
        a = split(ds, seed=99)
        b = split(ds, seed=99)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    def test_different_seed_differs(self):
        ds = make_dataset(50)
        assert split(ds, seed=0).train != split(ds, seed=1).train

    def test_too_small(self):
        with pytest.raises(DatasetError):
            split(make_dataset(2))

    def test_bad_ratios(self):
        ds = make_dataset(10)
        with pytest.raises(DatasetError):
            split(ds, ratios=(0.5, 0.5, 0.5))
        with pytest.raises(DatasetError):
            split(ds, ratios=(1.0, -0.5, 0.5))
        with pytest.raises(DatasetError, match="split ratios must be positive"):
            split(ds, ratios=(float("nan"), 0.5, 0.5))

    @given(st.integers(4, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, n, seed):
        ds = make_dataset(n)
        parts = split(ds, seed=seed)
        ids = (
            [r.id for r in parts.train.rows]
            + [r.id for r in parts.validation.rows]
            + [r.id for r in parts.test.rows]
        )
        assert len(ids) == n
        assert set(ids) == {r.id for r in ds.rows}
        assert len(parts.train) == math.floor(n * 0.5)
        assert len(parts.validation) == math.floor(n * 0.25)


class TestStats:
    def test_empty(self):
        assert score_histogram(Dataset(())) == {}

    def test_single_row(self):
        assert score_histogram(Dataset((Submission("a", "int x ;", 5.0),))) == {5.0: 1}

    def test_histogram_counts_each_score(self):
        ds = Dataset(
            (
                Submission("a", "x y", 5.0),
                Submission("b", "a b c d e", 6.0),
                Submission("c", "z", 5.0),
            )
        )
        assert score_histogram(ds) == {5.0: 2, 6.0: 1}
