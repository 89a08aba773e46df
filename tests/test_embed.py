import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cgrader import persist, pipeline
from cgrader.cli import main
from cgrader.corpus import Dataset, Submission, save_dataset, split
from cgrader.embed import (
    DEFAULT_SEQ_LEN,
    DEFAULT_TFIDF_DIM,
    EmbeddingFormatError,
    EmbeddingLookupError,
    TfIdfProvider,
    fnv1a_64,
    load_external_embeddings,
)
from cgrader.neural import TrainConfig
from cgrader.pipeline import embed_dataset
from cgrader.synth import Rubric, synthesize_with_plans
from cgrader.tabular import RidgeModel

from dense import dense_array

SEED_DIR = Path(__file__).resolve().parent.parent / "seeds"


def fit(codes, d=16, L=8):
    return TfIdfProvider.fit(codes, d=d, L=L)


class TestFnv:
    def test_known_vectors(self):
        # Standard FNV-1a 64-bit test vectors.
        assert fnv1a_64("") == 0xCBF29CE484222325
        assert fnv1a_64("a") == 0xAF63DC4C8601EC8C


class TestTfIdfFit:
    def test_token_in_every_document(self):
        model = fit(["x ;", "y ;"])
        bucket = fnv1a_64(";") % model.d
        assert model.idf[bucket] == pytest.approx(1.0, abs=1e-15)

    def test_unseen_bucket(self):
        model = fit(["x", "y", "z"])
        df0 = np.nonzero(model.doc_freq == 0)[0]
        assert len(df0) > 0
        assert model.idf[df0[0]] == pytest.approx(math.log(4.0) + 1.0, abs=1e-15)

    def test_determinism(self):
        a = fit(["int x;", "int y;"])
        b = fit(["int x;", "int y;"])
        assert np.array_equal(a.idf, b.idf)
        assert np.array_equal(a.doc_freq, b.doc_freq)

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            fit(["x"], d=4)

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            TfIdfProvider.fit([], d=16, L=8)


class TestTfIdfEmbed:
    def test_empty_code(self):
        model = fit(["int x;"])
        e = model.embed_code("")
        assert np.all(e.pooled == 0)
        assert np.all(e.sequence.values == 0) and np.all(dense_array(e.sequence) == 0)

    def test_single_token_unit_norm(self):
        model = fit(["int x;"])
        e = model.embed_code("x")
        assert np.count_nonzero(e.pooled) == 1
        assert np.linalg.norm(e.pooled) == pytest.approx(1.0, abs=1e-12)

    def test_pooled_norm_one_or_zero(self):
        model = fit(["int x;", "for (i=0;i<3;i++) x+=i;"])
        for code in ["int x;", "", "a b c d e f", "/* only a comment */"]:
            norm = np.linalg.norm(model.embed_code(code).pooled)
            assert norm == pytest.approx(1.0, abs=1e-12) or norm == 0.0

    def test_sequence_truncated_to_cap(self):
        model = fit(["int x;"], L=4)
        e = model.embed_code("a b c d e f g h i")
        assert e.sequence.shape == (4, model.d)
        assert np.all(e.sequence.values >= 1.0)  # an idf is at least 1

    def test_sequence_padded(self):
        model = fit(["int x;"], L=6)
        e = model.embed_code("a b")
        assert np.all(e.sequence.values[:2] >= 1.0)
        assert np.all(e.sequence.values[2:] == 0)
        assert np.all(dense_array(e.sequence)[2:] == 0)

    def test_determinism(self):
        model = fit(["int x;"])
        a = model.embed_code("int x = 3;")
        b = model.embed_code("int x = 3;")
        assert np.array_equal(a.pooled, b.pooled)
        assert np.array_equal(dense_array(a.sequence), dense_array(b.sequence))


def test_dataset_sequences_at_the_cli_seq_len_take_16_bytes_per_token():
    # A dense (L, d) row of the default dim would take 2 kB per token.
    codes = [path.read_text(encoding="utf-8") for path in sorted(SEED_DIR.glob("*.c"))]
    ds = Dataset(tuple(Submission(f"s{i}", code, 10.0)
                       for i, code in enumerate(codes * 8)))
    provider = TfIdfProvider.fit(codes, d=DEFAULT_TFIDF_DIM, L=DEFAULT_SEQ_LEN)
    tracemalloc.start()
    try:
        pooled, sequences = embed_dataset(provider, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tokens = len(ds) * DEFAULT_SEQ_LEN
    assert sequences.shape == (len(ds), DEFAULT_SEQ_LEN, DEFAULT_TFIDF_DIM)
    assert sequences.nbytes <= 16 * tokens
    assert peak <= 32 * tokens  # the sequences, the pooled rows, one row's temporaries
    for i, row in enumerate(ds.rows):
        e = provider.embed_code(row.code)
        assert np.array_equal(pooled[i], e.pooled)
        assert np.array_equal(dense_array(sequences[i]), dense_array(e.sequence))


class TestProviders:
    def test_tfidf_provider_shapes(self):
        provider = TfIdfProvider.fit(["int x;", "int y;"], d=32, L=8)
        e = provider.embed_code("int x;")
        assert e.pooled.shape == (32,) and e.sequence.shape == (8, 32)
        pooled, sequences = provider.embed_rows([row("s1")])
        assert pooled.shape == (1, 32) and sequences.shape == (1, 8, 32)
        assert np.array_equal(pooled[0], e.pooled)
        assert np.array_equal(sequences.ids[0], e.sequence.ids)
        assert np.array_equal(sequences.values[0], e.sequence.values)

    def test_tfidf_config_round_trip(self):
        provider = TfIdfProvider.fit(["int x;", "int y;"], d=32, L=8)
        clone = TfIdfProvider.from_config(provider.config())
        a = provider.embed_code("int q = 4;")
        b = clone.embed_code("int q = 4;")
        assert np.array_equal(a.pooled, b.pooled)


def row(sub_id):
    """A corpus row with id `sub_id`; external vectors are looked up by id."""
    return Submission(sub_id, "int x;", 5.0)


def write_jsonl(tmp_path, lines):
    path = tmp_path / "vectors.jsonl"
    path.write_text("\n".join(json.dumps(obj) for obj in lines), encoding="utf-8")
    return path


class TestExternal:
    def test_dimension_inferred(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [
                {"id": "a", "pooled": [1, 2, 3, 4]},
                {"id": "b", "pooled": [5, 6, 7, 8]},
            ],
        )
        provider = load_external_embeddings(path)
        assert provider.d == 4
        pooled, sequences = provider.embed_rows([row("b"), row("a")])
        assert np.array_equal(pooled, [[5, 6, 7, 8], [1, 2, 3, 4]])
        assert sequences is None

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [
                {"id": "a", "pooled": [1, 2, 3, 4]},
                {"id": "b", "pooled": [5, 6, 7, 8, 9]},
            ],
        )
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_external_embeddings(path)

    def test_unknown_id(self, tmp_path):
        path = write_jsonl(tmp_path, [{"id": "a", "pooled": [1, 2]}])
        provider = load_external_embeddings(path)
        with pytest.raises(EmbeddingLookupError, match="'missing'"):
            provider.embed_rows([row("a"), row("missing")])

    def test_token_sequences_padded(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [{"id": "a", "pooled": [1, 2], "sequence": [[1, 2], [3, 4]]}],
        )
        provider = load_external_embeddings(path, seq_len=5)
        assert provider.table["a"].sequence.shape == (2, 2)  # stored as given
        _, sequences = provider.embed_rows([row("a")])
        assert sequences.shape == (1, 5, 2)
        assert np.array_equal(sequences[0, :2], [[1, 2], [3, 4]])
        assert np.all(sequences[0, 2:] == 0)

    def test_readme_format_loads_sequences(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [
                {"id": "a", "pooled": [1, 2], "sequence": [[1, 2], [3, 4], [5, 6]]},
                {"id": "b", "pooled": [3, 4], "sequence": [[7, 8]]},
            ],
        )
        provider = load_external_embeddings(path, seq_len=2)
        _, sequences = provider.embed_rows([row("a"), row("b")])
        assert np.array_equal(sequences, [[[1, 2], [3, 4]], [[7, 8], [0, 0]]])

    def test_tokens_key_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [{"id": "a", "pooled": [1, 2], "tokens": [[1, 2], [3, 4]]}],
        )
        with pytest.raises(EmbeddingFormatError, match="line 1.*'tokens'.*'sequence'"):
            load_external_embeddings(path)

    def test_repeated_id_names_both_lines(self, tmp_path):
        path = write_jsonl(tmp_path, [{"id": "a", "pooled": [1, 2]},
                                      {"id": 1, "pooled": [3, 4]},
                                      {"id": "1", "pooled": [5, 6]}])
        with pytest.raises(EmbeddingFormatError, match="line 3: id '1' repeats line 2"):
            load_external_embeddings(path)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_undecodable_byte_names_its_line(self, tmp_path, end):
        lines = [json.dumps({"id": i, "pooled": [1.0, 2.0]}).encode() for i in range(3000)]
        lines[2500] = b'{"id": "\xff", "pooled": [1.0, 2.0]}'
        path = tmp_path / "bad.jsonl"
        path.write_bytes(end.join(lines) + end)
        with pytest.raises(EmbeddingFormatError,
                           match=r"bad\.jsonl: line 2501: 'utf-8' codec can't decode byte 0xff"):
            load_external_embeddings(path)

    def test_line_ends_count_as_a_text_reader_counts_them(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(b'{"id": "a", "pooled": [1]}\r\n\r\r\n{"id": "b", "pooled": [2]}\r'
                         b'\n{"id": "a", "pooled": [3]}')
        with open(path, encoding="utf-8") as fh:  # the lines a text reader sees
            assert [n for n, line in enumerate(fh, 1) if '"a"' in line] == [1, 5]
        with pytest.raises(EmbeddingFormatError, match="line 5: id 'a' repeats line 1"):
            load_external_embeddings(path)

    def test_sequences_are_all_or_nothing(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [
                {"id": "a", "pooled": [1, 2], "sequence": [[1, 2]]},
                {"id": "b", "pooled": [3, 4]},
            ],
        )
        provider = load_external_embeddings(path, seq_len=3)
        pooled, sequences = provider.embed_rows([row("a"), row("b")])
        assert np.array_equal(pooled, [[1, 2], [3, 4]]) and sequences is None
        assert provider.embed_rows([row("a")])[1].shape == (1, 3, 2)

    def test_loaded_table_holds_no_padding(self, tmp_path):
        # Sequences shorter than L are not padded, and longer ones keep only
        # their first L rows, not a view of the whole parsed array.
        n, d, L = 40, 16, 64
        lengths = [8 if i % 2 else 128 for i in range(n)]
        rng = np.random.default_rng(0)
        path = write_jsonl(tmp_path, [
            {"id": f"s{i}", "pooled": rng.normal(size=d).tolist(),
             "sequence": rng.normal(size=(m, d)).tolist()}
            for i, m in enumerate(lengths)])
        tracemalloc.start()
        try:
            provider = load_external_embeddings(path, seq_len=L)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        given = sum((min(m, L) + 1) * d * 8 for m in lengths)  # sequence rows + pooled
        padded = n * (L + 1) * d * 8
        assert given <= held <= given + 1024 * n < padded
        assert all(len(record.sequence) == min(m, L)
                   for record, m in zip(provider.table.values(), lengths))


class TestLexOnce:
    RATIOS = (0.5, 0.25, 0.25)

    @pytest.fixture
    def corpus(self, tmp_path):
        seeds = [Submission(path.stem, path.read_text(encoding="utf-8"), 10.0)
                 for path in sorted(SEED_DIR.glob("*.c"))]
        ds, _ = synthesize_with_plans(seeds, 120, Rubric(), np.random.default_rng(0))
        save_dataset(ds, tmp_path / "corpus.csv")
        return ds, tmp_path / "corpus.csv"

    def test_prepare_lexes_each_distinct_code_text_once(self, corpus, lexed):
        ds, path = corpus
        lexed.clear()  # the corpus's synthesis lexes too
        data, provider, prepared = pipeline.prepare(
            pipeline.RunSettings(path, self.RATIOS, 0, "tfidf", 64, 16))
        test = pipeline.embed_split(provider, prepared.test)  # as `experiment` does
        assert data.config == TrainConfig()  # no training setting given
        distinct = {row.code for row in ds.rows}
        assert len(distinct) < len(ds)  # the corpus repeats code texts
        assert sorted(lexed) == sorted(distinct)
        # the shared memo changes no value: embed every part afresh
        parts = split(ds, self.RATIOS, 0)
        again = TfIdfProvider.fit([row.code for row in parts.train.rows], d=64, L=16)
        assert np.array_equal(provider.doc_freq, again.doc_freq)
        for part, embedded in ((parts.train, data.train), (parts.validation,
                                                           data.validation),
                               (parts.test, test)):
            pooled, sequences = embed_dataset(again, part)
            assert np.array_equal(embedded.pooled, pooled)
            assert np.array_equal(embedded.sequences.ids, sequences.ids)
            assert np.array_equal(embedded.sequences.values, sequences.values)

    def test_train_leaves_the_test_part_unlexed(self, corpus, lexed, tmp_path):
        ds, path = corpus
        lexed.clear()
        assert main(["train", "--data", str(path), "--model", "ridge", "--dim", "64",
                     "--seq-len", "16", "--split", ",".join(map(str, self.RATIOS)),
                     "--seed", "0", "--out", str(tmp_path / "ridge.json")]) == 0
        parts = split(ds, self.RATIOS, 0)
        assert sorted(lexed) == sorted({row.code for row in parts.train.rows
                                        + parts.validation.rows})

    def test_fit_then_embed_rows_lexes_each_distinct_text_once(self, lexed):
        codes = ["int x;", "int y;", "int x;"]
        provider = TfIdfProvider.fit(codes, d=16, L=8)
        provider.embed_rows([Submission(str(i), code, 5.0)
                             for i, code in enumerate(codes + ["int z;", "int z;"])])
        assert lexed == ["int x;", "int y;", "int z;"]

    def test_each_grade_call_lexes_its_file(self, tmp_path, lexed):
        model, program = tmp_path / "model.json", tmp_path / "prog.c"
        provider = fit(["int x;"])
        persist.save_model(model, "ridge", RidgeModel(np.zeros(provider.d), 5.0, 1.0),
                           provider.config())
        program.write_text("int x = 3;", encoding="utf-8")
        lexed.clear()
        for _ in range(2):
            assert main(["grade", "--model", str(model), "--code", str(program)]) == 0
        assert lexed == ["int x = 3;", "int x = 3;"]

    def test_external_vectors_are_not_lexed(self, corpus, tmp_path, lexed):
        ds, path = corpus
        lexed.clear()
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text("".join(json.dumps({"id": row.id, "pooled": [1.0, 0.0]}) + "\n"
                                   for row in ds.rows), encoding="utf-8")
        _, provider, parts = pipeline.prepare(
            pipeline.RunSettings(path, self.RATIOS, 0, "external", None, 16, vectors))
        pipeline.embed_split(provider, parts.test)
        assert lexed == []
