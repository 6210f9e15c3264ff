import gzip
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fractamine.series import (
    EmbeddingMatrix,
    LabeledDataset,
    Series,
    cascade_hurst_oracle,
    load_series,
    mean_embedding,
    synth_binomial_cascade,
    synth_embedded_corpus,
    synth_fgn,
    synth_gaussian_noise,
)


class TestSeries:
    def test_accepts_1d_floats(self):
        s = Series(np.array([1.0, 2.0, 3.0]))
        assert len(s) == 3
        assert s.values.dtype == np.float64

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Series(np.array([]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Series(np.zeros((2, 2)))

    def test_reports_first_nonfinite_index(self):
        with pytest.raises(ValueError, match="index 2"):
            Series(np.array([0.0, 1.0, np.nan, 2.0]))

    def test_int_input_coerced_to_float(self):
        s = Series(np.array([1, 2, 3]))
        assert s.values.dtype == np.float64


class TestEmbeddingMatrix:
    def test_shape_accessors(self):
        m = EmbeddingMatrix(np.zeros((5, 7)))
        assert m.n_tokens == 5
        assert m.dim == 7

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(np.zeros(5))

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 2))
        bad[1, 0] = np.inf
        with pytest.raises(ValueError):
            EmbeddingMatrix(bad)


class TestLabeledDataset:
    def test_label_range_enforced(self):
        doc = EmbeddingMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="label 5"):
            LabeledDataset(items=[(doc, 5)], n_classes=3)

    def test_tag_length_must_match_tokens(self):
        doc = EmbeddingMatrix(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="item 0: 2 tags for 4 tokens"):
            LabeledDataset(items=[(doc, np.array([0, 1]))], n_classes=2)

    @pytest.mark.parametrize("tag", [5, -1])
    def test_tag_range_enforced(self, tag):
        doc = EmbeddingMatrix(np.zeros((3, 2)))
        with pytest.raises(ValueError, match=rf"item 0 tag {tag} outside \[0, 2\)"):
            LabeledDataset(items=[(doc, np.array([0, tag, 1]))], n_classes=2)

    @pytest.mark.parametrize(
        "targets, message",
        [
            ((0, [0, 1, 1], 1), "item 1 has per-token tags, item 0 has a label"),
            (([0, 1, 1], [1, 1, 0], 1), "item 2 has a label, item 0 has per-token tags"),
        ],
        ids=["tags-after-labels", "label-after-tags"],
    )
    def test_labels_and_tags_not_mixed(self, targets, message):
        doc = EmbeddingMatrix(np.zeros((3, 2)))
        with pytest.raises(ValueError, match=message):
            LabeledDataset(items=[(doc, t) for t in targets], n_classes=2)

    @pytest.mark.parametrize("target", [1.0, [0.0, 1.0, 1.0], [[0, 1, 1]], "011"])
    def test_target_neither_label_nor_tags(self, target):
        doc = EmbeddingMatrix(np.zeros((3, 2)))
        message = "item 1 target is not an integer label or a sequence of integer tags"
        with pytest.raises(ValueError, match=message):
            LabeledDataset(items=[(doc, [0, 1, 1]), (doc, target)], n_classes=2)

    def test_mixed_embedding_widths_refused(self):
        docs = [EmbeddingMatrix(np.zeros((2, width))) for width in (4, 4, 3)]
        with pytest.raises(ValueError, match="item 2 has embedding width 3, item 0 has 4"):
            LabeledDataset(items=[(doc, 0) for doc in docs], n_classes=1)

    def test_valid_tagging_dataset(self):
        doc = EmbeddingMatrix(np.zeros((3, 2)))
        ds = LabeledDataset(items=[(doc, np.array([0, 1, 1])), (doc, [1, 0, 0])], n_classes=2)
        assert len(ds) == 2 and ds.tagged

    @pytest.mark.parametrize("label", [1, np.int64(1), True])
    def test_integer_labels_are_not_tagged(self, label):
        doc = EmbeddingMatrix(np.zeros((3, 2)))
        assert not LabeledDataset(items=[(doc, label)], n_classes=2).tagged
        assert not LabeledDataset(items=[], n_classes=2).tagged


class TestLoadSeries:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.5\n\n-2.25\n3\n")
        s = load_series(str(path))
        assert_allclose(s.values, [1.5, -2.25, 3.0])

    def test_csv_parse_error_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\nbogus\n")
        with pytest.raises(ValueError, match=":2:"):
            load_series(str(path))

    def test_csv_nonfinite_after_blank_lines_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n\n  \n2.0\r\n\ninf\nbogus\n")
        with pytest.raises(ValueError, match=r"s\.csv:6: non-finite value 'inf'"):
            load_series(str(path))

    @pytest.mark.parametrize("text", ["", "\n", "  \n\t\n\n"], ids=["empty", "newline", "blank"])
    def test_csv_without_values(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no numeric values"):
            load_series(str(path))

    def test_csv_values_are_float_of_each_line(self, tmp_path):
        rng = np.random.default_rng(5)
        scaled = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
        lines = [repr(v) for v in scaled.tolist()]
        lines += ["%.17g" % v for v in rng.standard_normal(200)]
        lines += ["1e-320", "-0", "  7  ", "8.", "1_000", "+.5e1"]
        path = tmp_path / "s.csv"
        path.write_text("\n".join(lines) + "\n")
        values = load_series(str(path)).values
        expected = np.array([float(t) for t in lines])
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", ["1 2\n3 4\n5 6\n", "1 2\n"], ids=["rows", "one-row"])
    def test_csv_two_values_per_line_names_line_1(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"s\.csv:1: cannot parse '1 2'"):
            load_series(str(path))

    @pytest.mark.parametrize("bad", ["# x", "0x10"])
    def test_csv_comment_and_hex_lines_are_refused(self, tmp_path, bad):
        path = tmp_path / "s.csv"
        path.write_text(f"1.0\n2.0\n{bad}\n3.0\n")
        with pytest.raises(ValueError, match=f":3: cannot parse '{bad}'"):
            load_series(str(path))

    def test_csv_single_value(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("4.25\n")
        s = load_series(str(path))
        assert s.values.shape == (1,) and s.values[0] == 4.25

    def test_csv_crlf_and_tab_padding_match_float(self, tmp_path):
        lines = ["\t1.5\t", " -2.25e-3", "3\t \t", "\t0.1"]
        path = tmp_path / "s.csv"
        path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        expected = np.array([float(t) for t in lines])
        assert load_series(str(path)).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", ["", "\n\n", " \t\r\n\t\n"], ids=["empty", "newlines", "blank"])
    def test_csv_without_values_warns_nothing(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no numeric values"):
                load_series(str(path))
        assert not caught

    def test_csv_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1.0\n\xff\xfe2.0\n")
        with pytest.raises(UnicodeDecodeError, match=r"invalid start byte at .*bad\.csv:2$"):
            load_series(str(path))

    def test_csv_missing_file_raises_python_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="No such file or directory"):
            load_series(str(tmp_path / "missing.csv"))

    def test_csv_compressed_file_is_read_as_text(self, tmp_path):
        path = tmp_path / "s.csv.gz"
        path.write_bytes(gzip.compress(b"1.0\n2.0\n"))
        with pytest.raises(ValueError):
            load_series(str(path))

    @pytest.mark.parametrize("fmt, text", [("csv", "1.5\n-2.25\n"), ("json", "[1.5, -2.25]")])
    def test_path_like_accepted(self, tmp_path, fmt, text):
        path = tmp_path / f"s.{fmt}"
        path.write_text(text)
        assert_allclose(load_series(path, format=fmt).values, [1.5, -2.25])

    def test_compressed_path_is_read_as_text(self, tmp_path):
        path = tmp_path / "s.csv.gz"
        path.write_bytes(gzip.compress(b"1.0\n2.0\n"))
        # decompressed, it would read as [1.0, 2.0]
        with pytest.raises(UnicodeDecodeError):
            load_series(path)

    @pytest.mark.parametrize(
        "payload, index",
        [([True, False, 2.0], 0), ([1.0, False], 1), (["1.5", 2], 0), ([1, None], 1), ([[1.0], 2.0], 0)],
    )
    def test_json_non_numbers_are_refused(self, tmp_path, payload, index):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"values": payload}))
        with pytest.raises(ValueError, match=f"index {index} is not a number"):
            load_series(str(path), format="json")

    def test_json_bare_array(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[0.5, 1.5, 2.5]")
        s = load_series(str(path), format="json")
        assert_allclose(s.values, [0.5, 1.5, 2.5])

    def test_json_values_object(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"values": [1, 2, 3]}))
        s = load_series(str(path), format="json")
        assert_allclose(s.values, [1.0, 2.0, 3.0])

    def test_json_nonfinite_reports_index(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('[1.0, "NaN", 2.0]')
        with pytest.raises(ValueError, match="index 1"):
            load_series(str(path), format="json")

    def test_json_int_beyond_float_range_is_refused(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[1, 1" + "0" * 400 + "]")
        with pytest.raises(ValueError, match="too large"):
            load_series(str(path), format="json")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            load_series(str(tmp_path / "x"), format="parquet")


class TestGenerators:
    def test_gaussian_noise_deterministic(self):
        a = synth_gaussian_noise(128, seed=7)
        b = synth_gaussian_noise(128, seed=7)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, synth_gaussian_noise(128, seed=8).values)

    def test_fgn_standardized(self):
        s = synth_fgn(4096, 0.7, seed=0)
        assert abs(s.values.mean()) < 1e-12
        assert_allclose(s.values.std(), 1.0, rtol=1e-12)

    def test_fgn_hurst_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                synth_fgn(256, bad, seed=0)

    def test_fgn_persistence_ordering(self):
        # lag-1 autocorrelation grows with H
        def rho1(s):
            v = s.values
            return float(np.corrcoef(v[:-1], v[1:])[0, 1])

        lo = np.mean([rho1(synth_fgn(8192, 0.2, seed=k)) for k in range(3)])
        hi = np.mean([rho1(synth_fgn(8192, 0.8, seed=k)) for k in range(3)])
        assert lo < 0 < hi

    def test_cascade_length_and_mass(self):
        s = synth_binomial_cascade(8, 0.75)
        assert len(s) == 256
        assert_allclose(s.values.sum(), 1.0, rtol=1e-12)
        assert np.all(s.values > 0)

    def test_cascade_weight_structure(self):
        # each value is p^(levels-ones) (1-p)^ones up to normalization
        levels, p = 4, 0.7
        s = synth_binomial_cascade(levels, p)
        ones = np.array([bin(i).count("1") for i in range(2**levels)])
        expected = p ** (levels - ones) * (1 - p) ** ones
        expected /= expected.sum()
        assert_allclose(np.sort(s.values), np.sort(expected), rtol=1e-12)

    def test_cascade_parameter_bounds(self):
        with pytest.raises(ValueError):
            synth_binomial_cascade(0, 0.75)
        with pytest.raises(ValueError):
            synth_binomial_cascade(8, 0.5)
        with pytest.raises(ValueError):
            synth_binomial_cascade(8, 1.0)

    def test_cascade_oracle_closed_form(self):
        p = 0.75
        # h(q) = 1/q - log2(p^q + (1-p)^q)/q
        assert_allclose(
            cascade_hurst_oracle(2.0, p),
            1 / 2 - np.log2(p**2 + 0.25**2) / 2,
            rtol=1e-12,
        )
        # q = 0 limit: 1 - log2 sqrt(p(1-p)) ... expressed via entropy midpoint
        direct = cascade_hurst_oracle(1e-9, p)
        assert_allclose(cascade_hurst_oracle(0.0, p), direct, atol=1e-6)

    def test_cascade_oracle_nonincreasing(self):
        qs = np.linspace(-8, 8, 33)
        hs = np.array([cascade_hurst_oracle(q, 0.75) for q in qs])
        assert np.all(np.diff(hs) <= 1e-12)


class TestCorpus:
    def test_shapes_and_labels(self):
        ds = synth_embedded_corpus(30, 3, 8, 16, 4.0, seed=1)
        assert len(ds) == 30
        assert ds.n_classes == 3
        labels = [label for _, label in ds.items]
        assert sorted(set(labels)) == [0, 1, 2]
        assert all(doc.tokens.shape == (8, 16) for doc, _ in ds.items)

    def test_separation_moves_class_means(self):
        ds = synth_embedded_corpus(60, 2, 16, 8, 6.0, seed=0)
        means = {}
        for doc, label in ds.items:
            means.setdefault(label, []).append(doc.tokens.mean(axis=0))
        m0 = np.mean(means[0], axis=0)
        m1 = np.mean(means[1], axis=0)
        assert np.linalg.norm(m0 - m1) > 3.0

    def test_deterministic(self):
        a = synth_embedded_corpus(10, 2, 4, 6, 2.0, seed=3)
        b = synth_embedded_corpus(10, 2, 4, 6, 2.0, seed=3)
        assert all(
            np.array_equal(x.tokens, y.tokens) for (x, _), (y, _) in zip(a.items, b.items)
        )

    @pytest.mark.parametrize("separation", [np.nan, np.inf])
    def test_non_finite_separation_refused(self, separation):
        with pytest.raises(ValueError, match="separation must be finite"):
            synth_embedded_corpus(10, 2, 4, 8, separation, seed=0)

    @pytest.mark.parametrize("position,name", [(0, "n_docs"), (1, "n_classes"), (2, "n_tokens"), (3, "dim")])
    def test_count_below_one_refused_by_name(self, position, name):
        counts = [10, 2, 4, 8]
        counts[position] = 0
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got 0"):
            synth_embedded_corpus(*counts, 2.0, seed=0)

    def test_too_many_classes_rejected(self):
        with pytest.raises(ValueError):
            synth_embedded_corpus(10, 9, 4, 8, 2.0, seed=0)

    def test_mean_embedding(self):
        m = EmbeddingMatrix(np.array([[1.0, 3.0], [3.0, 5.0]]))
        s = mean_embedding(m)
        assert_allclose(s.values, [2.0, 4.0])
