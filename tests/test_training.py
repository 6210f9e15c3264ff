import numpy as np
import pytest
from numpy.testing import assert_allclose

import fractamine.autodiff as ad
from fractamine.activations import ActivationSpec
from fractamine.autodiff import DiffArray
from fractamine.multifractal import MfaConfig
from fractamine.neuralnet import (
    ModelConfig,
    ModelParams,
    config_json,
    deffsi_forward,
    hurst_features,
    init_params,
)
from fractamine.series import EmbeddingMatrix, LabeledDataset, synth_embedded_corpus
import fractamine.training as training
from fractamine.training import (
    TrainConfig,
    TrainingDiverged,
    accuracy_score,
    evaluate,
    macro_f1_score,
    split_dataset,
    train,
)


def small_model(**overrides):
    base = dict(
        n_classes=3,
        hidden=6,
        filters=4,
        blocks=1,
        conv_width=2,
        dense_width=8,
        attn_dim=3,
        mfa=MfaConfig(method="mf-dfa", q_grid=np.linspace(-2, 2, 5)),
    )
    base.update(overrides)
    return ModelConfig(**base)


def small_corpus(docs=24, seed=0):
    return synth_embedded_corpus(docs, 3, 8, 64, 4.0, seed=seed)


class PerTensorAdam:
    """The per-tensor Adam loop that training._Adam replaced; the oracle."""

    def __init__(self, params, cfg):
        self.cfg = cfg
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.tensors.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.tensors.items()}

    def step(self, params):
        self.step_count += 1
        c = self.cfg
        beta1, beta2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        bc1 = 1.0 - beta1**self.step_count
        bc2 = 1.0 - beta2**self.step_count
        for name, tensor in params.tensors.items():
            g = tensor.grad
            m = self.m[name]
            v = self.v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            lr = c.lr_activation if name.startswith("act.") else c.lr_weights
            tensor.data = tensor.data - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def flat_parts(params, flat):
    """Split one of the optimizer's flat arrays into per-tensor arrays, in params' order."""
    ends = np.cumsum([t.data.size for t in params.tensors.values()])
    return {
        name: part.reshape(t.data.shape)
        for (name, t), part in zip(params.tensors.items(), np.split(flat, ends[:-1]))
    }


def fresh_params(seed=0):
    return init_params(small_model(), embed_dim=64, seed=seed)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score([0, 1, 2, 1], [0, 1, 1, 1]) == 0.75

    def test_macro_f1_perfect(self):
        assert macro_f1_score([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_macro_f1_known_value(self):
        # class 0: P=1, R=0.5, F1=2/3; class 1: P=0.5, R=1, F1=2/3
        y_true = [0, 0, 1]
        y_pred = [0, 1, 1]
        assert_allclose(macro_f1_score(y_true, y_pred, 2), 2 / 3, rtol=1e-12)

    def test_macro_f1_absent_class_scores_zero(self):
        # three classes but nothing labeled or predicted 2
        score = macro_f1_score([0, 1], [0, 1], 3)
        assert_allclose(score, 2 / 3, rtol=1e-12)


class TestSplit:
    def test_ratios(self):
        ds = small_corpus(docs=100)
        tr, va, te = split_dataset(ds, seed=1)
        assert (len(tr), len(va), len(te)) == (80, 10, 10)

    def test_partition_complete_and_disjoint(self):
        ds = small_corpus(docs=40)
        tr, va, te = split_dataset(ds, seed=2)

        def keys(sub):
            return {arr.tokens.tobytes() for arr, _ in sub.items}

        all_keys = keys(tr) | keys(va) | keys(te)
        assert len(all_keys) == 40
        assert not (keys(tr) & keys(va))
        assert not (keys(va) & keys(te))

    def test_deterministic(self):
        ds = small_corpus(docs=30)
        a = split_dataset(ds, seed=7)
        b = split_dataset(ds, seed=7)
        for sub_a, sub_b in zip(a, b):
            assert all(
                np.array_equal(x.tokens, y.tokens)
                for (x, _), (y, _) in zip(sub_a.items, sub_b.items)
            )

    def test_preserves_n_classes(self):
        ds = small_corpus(docs=30)
        for sub in split_dataset(ds, seed=0):
            assert sub.n_classes == 3

    def test_tags_follow_their_documents(self):
        rng = np.random.default_rng(0)
        items = [(EmbeddingMatrix(rng.standard_normal((4, 3))), rng.integers(0, 2, size=4)) for _ in range(10)]
        for sub in split_dataset(LabeledDataset(items=items, n_classes=2), seed=0):
            assert sub.tagged
            assert all(any(pair is item for item in items) for pair in sub.items)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["lr_weights", "lr_activation"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_learning_rate_must_be_finite_and_positive(self, field, value):
        # a NaN rate used to train until the loss left the finite range
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("epochs", [2.5, 2.0, True])
    def test_epochs_must_be_an_integer(self, epochs):
        with pytest.raises(ValueError, match="epochs must be an integer"):
            TrainConfig(epochs=epochs)

    def test_numpy_integer_epochs_accepted(self):
        assert TrainConfig(epochs=np.int64(3)).epochs == 3

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be at least 0"), (1.5, "seed must be an integer"), (True, "seed must be an integer")],
    )
    def test_bad_seed_refused_by_name(self, seed, message):
        # these built and then failed inside train, or trained as seed 1
        with pytest.raises(ValueError, match=message):
            TrainConfig(seed=seed)


class TestTrain:
    def test_loss_decreases(self):
        ds = small_corpus()
        cfg = TrainConfig(epochs=4, seed=0)
        _, history = train(ds, cfg, small_model())
        assert history[-1]["loss"] < history[0]["loss"]

    def test_deterministic_per_seed(self):
        ds = small_corpus()
        cfg = TrainConfig(epochs=2, seed=5)
        params_a, hist_a = train(ds, cfg, small_model())
        params_b, hist_b = train(ds, cfg, small_model())
        assert hist_a == hist_b
        assert all(
            np.array_equal(params_a.tensors[n].data, params_b.tensors[n].data)
            for n in params_a.tensors
        )

    def test_different_seeds_differ(self):
        ds = small_corpus()
        _, hist_a = train(ds, TrainConfig(epochs=1, seed=0), small_model())
        _, hist_b = train(ds, TrainConfig(epochs=1, seed=1), small_model())
        assert hist_a != hist_b

    def test_history_schema(self):
        ds = small_corpus(docs=12)
        _, history = train(ds, TrainConfig(epochs=3, seed=0), small_model())
        assert [h["epoch"] for h in history] == [1, 2, 3]
        for h in history:
            assert set(h) == {"epoch", "loss", "accuracy"}
            assert 0.0 <= h["accuracy"] <= 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(
                LabeledDataset(items=[], n_classes=2),
                TrainConfig(epochs=1, seed=0),
                small_model(),
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch_and_instance(self):
        ds = small_corpus(docs=6)
        model_cfg = small_model()
        params = init_params(model_cfg, embed_dim=64, seed=0)
        # poison one weight so the first forward pass explodes
        name = next(n for n in params.tensors if n.endswith(".wx"))
        params.tensors[name] = DiffArray(params.tensors[name].data * np.inf)
        with pytest.raises(TrainingDiverged, match="epoch 1"):
            train(ds, TrainConfig(epochs=1, seed=0), model_cfg, params=params)

    def test_activation_params_move_under_their_own_rate(self):
        ds = small_corpus(docs=12)
        model_cfg = small_model(activation=ActivationSpec("sital"))
        params, _ = train(ds, TrainConfig(epochs=2, seed=3), model_cfg)
        gammas = [t for n, t in params.tensors.items() if n.endswith(".gamma")]
        assert gammas, "sital sites must expose learnable gamma"
        assert any(not np.allclose(g.data, 1.0) for g in gammas)


class TestAdam:
    def set_grads(self, rng, params):
        for t in params.tensors.values():
            scale = 10.0 ** rng.uniform(-6, 1)
            t.grad = rng.standard_normal(t.data.shape) * scale

    def test_bit_identical_to_per_tensor_loop(self):
        cfg = TrainConfig(lr_weights=3e-3, lr_activation=7e-3)
        flat_params, loop_params = fresh_params(), fresh_params()
        flat, loop = training._Adam(flat_params, cfg), PerTensorAdam(loop_params, cfg)
        names = list(flat_params.tensors)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(7):
            self.set_grads(rng_a, flat_params)
            self.set_grads(rng_b, loop_params)
            flat.step()
            loop.step(loop_params)
        m = flat_parts(flat_params, flat.m)
        v = flat_parts(flat_params, flat.v)
        for name in names:
            assert np.array_equal(flat_params.tensors[name].data, loop_params.tensors[name].data), name
            assert np.array_equal(m[name], loop.m[name]), name
            assert np.array_equal(v[name], loop.v[name]), name

    def test_activation_and_weight_rates(self):
        # the first step moves each element by lr * g / (|g| + eps), which is
        # lr to within a relative eps / |g|
        cfg = TrainConfig(lr_weights=3e-4, lr_activation=5e-4)
        params = fresh_params()
        before = {n: t.data.copy() for n, t in params.tensors.items()}
        optimizer = training._Adam(params, cfg)
        for t in params.tensors.values():
            t.grad = np.full(t.data.shape, 0.25)
        optimizer.step()
        names = list(params.tensors)
        assert any(n.startswith("act.") for n in names)
        for name in names:
            lr = cfg.lr_activation if name.startswith("act.") else cfg.lr_weights
            moved = before[name] - params.tensors[name].data
            assert_allclose(moved, lr, rtol=1e-6, err_msg=name)


class TestTrainParamsContract:
    """What train promises about the params it is given."""

    def test_zero_grads_once_per_step_before_forward(self, monkeypatch):
        ds = small_corpus(docs=6)
        model_cfg = small_model()
        events = []

        class Recording(ModelParams):
            def zero_grads(self):
                events.append("zero")
                super().zero_grads()

        init = init_params(model_cfg, embed_dim=64, seed=0)
        params = Recording(config=init.config, embed_dim=init.embed_dim, tensors=init.tensors)
        forward = training.deffsi_forward

        def recording_forward(*args, **kwargs):
            assert all(t.grad is None for t in params.tensors.values())
            events.append("forward")
            return forward(*args, **kwargs)

        monkeypatch.setattr(training, "deffsi_forward", recording_forward)
        train(ds, TrainConfig(epochs=2, seed=0), model_cfg, params=params)
        assert events == ["zero", "forward"] * (2 * len(ds))

    def test_trains_the_tensors_present_at_call_time(self):
        ds = small_corpus(docs=6)
        model_cfg = small_model()
        params = init_params(model_cfg, embed_dim=64, seed=0)
        name = "head.w"
        replaced = params.tensors[name]
        params.tensors[name] = DiffArray(replaced.data.copy())
        kept = replaced.data.copy()
        start = params.tensors[name].data.copy()
        trained, _ = train(ds, TrainConfig(epochs=1, seed=0), model_cfg, params=params)
        assert trained.tensors[name] is params.tensors[name]
        assert not np.array_equal(trained.tensors[name].data, start)
        assert np.array_equal(replaced.data, kept)

    def test_subclass_is_trained_in_place(self):
        ds = small_corpus(docs=6)
        model_cfg = small_model()

        class Subclass(ModelParams):
            pass

        init = init_params(model_cfg, embed_dim=64, seed=0)
        params = Subclass(config=init.config, embed_dim=init.embed_dim, tensors=init.tensors)
        tensors = dict(params.tensors)
        start = {n: t.data.copy() for n, t in tensors.items()}
        trained, _ = train(ds, TrainConfig(epochs=1, seed=0), model_cfg, params=params)
        assert trained is params
        assert all(trained.tensors[n] is t for n, t in tensors.items())
        assert any(not np.array_equal(t.data, start[n]) for n, t in tensors.items())


class TestDocumentLength:
    @pytest.mark.parametrize(
        "model_cfg",
        [ModelConfig(), small_model(blocks=2, conv_width=3)],
        ids=["defaults", "blocks2-width3"],
    )
    def test_train_and_evaluate_check_min_tokens(self, model_cfg, monkeypatch):
        need = model_cfg.min_tokens()
        rng = np.random.default_rng(1)

        def dataset(lengths):
            # as wide as the default scales need, which check_document requires
            docs = [EmbeddingMatrix(rng.standard_normal((n, 64))) for n in lengths]
            return LabeledDataset(items=[(d, i % 3) for i, d in enumerate(docs)], n_classes=3)

        fits = dataset([need, need + 3])
        params, _ = train(fits, TrainConfig(epochs=1, seed=0), model_cfg)
        assert set(evaluate(fits, model_cfg, params)) == {"accuracy", "macro_f1"}

        calls = []
        forward = training.deffsi_forward
        monkeypatch.setattr(
            training, "deffsi_forward", lambda *a, **k: calls.append(1) or forward(*a, **k)
        )
        short = dataset([need, need - 1])
        message = (
            f"document 1 has {need - 1} tokens.*blocks={model_cfg.blocks} "
            f"and conv_width={model_cfg.conv_width}.*at least {need}"
        )
        with pytest.raises(ValueError, match=message):
            train(short, TrainConfig(epochs=1, seed=0), model_cfg)
        with pytest.raises(ValueError, match=message):
            evaluate(short, model_cfg, params)
        assert calls == []


    @pytest.mark.parametrize(
        "scales, fits, narrow, message",
        [
            ([4, 8], 32, 31, r"width N = 31; mfa.scales up to 8 need N >= 4\*max\(mfa.scales\) = 32"),
            # accepted, every document got the all-0.5 feature vector
            (None, 64, 48, r"document 0 has embedding width N = 48; .* default scales .* need N >= 64"),
        ],
        ids=["explicit", "default"],
    )
    def test_train_and_evaluate_check_the_scales(self, monkeypatch, scales, fits, narrow, message):
        model_cfg = small_model(mfa=MfaConfig(method="mf-dfa", scales=scales))
        rng = np.random.default_rng(2)

        def dataset(width):
            docs = [EmbeddingMatrix(rng.standard_normal((8, width))) for _ in range(3)]
            return LabeledDataset(items=[(d, i % 3) for i, d in enumerate(docs)], n_classes=3)

        fit = dataset(fits)
        params, _ = train(fit, TrainConfig(epochs=1, seed=0), model_cfg)
        assert set(evaluate(fit, model_cfg, params)) == {"accuracy", "macro_f1"}

        monkeypatch.setattr(training, "hurst_features", lambda *a: pytest.fail("features ran"))
        monkeypatch.setattr(training, "deffsi_forward", lambda *a, **k: pytest.fail("forward ran"))
        with pytest.raises(ValueError, match=message):
            train(dataset(narrow), TrainConfig(epochs=1, seed=0), model_cfg)
        with pytest.raises(ValueError, match=message):
            evaluate(dataset(narrow), model_cfg, params)

    def test_train_and_evaluate_check_the_params_width(self, monkeypatch):
        model_cfg = small_model()
        params = init_params(model_cfg, embed_dim=128, seed=0)
        rng = np.random.default_rng(3)
        docs = [EmbeddingMatrix(rng.standard_normal((8, 64))) for _ in range(3)]
        narrow = LabeledDataset(items=[(d, i % 3) for i, d in enumerate(docs)], n_classes=3)
        monkeypatch.setattr(training, "hurst_features", lambda *a: pytest.fail("features ran"))
        message = "document 0 has embedding width 64; the model parameters were built for width 128"
        with pytest.raises(ValueError, match=message):
            train(narrow, TrainConfig(epochs=1, seed=0), model_cfg, params=params)
        with pytest.raises(ValueError, match=message):
            evaluate(narrow, model_cfg, params)


class TestInputRefusals:
    """Inputs the model cannot take are refused before any Hurst feature."""

    @pytest.fixture(autouse=True)
    def no_features(self, monkeypatch):
        monkeypatch.setattr(training, "hurst_features", lambda *a: pytest.fail("features ran"))

    @pytest.mark.parametrize("scales", [[], [16.7, 32.2]], ids=["empty", "non-integer"])
    def test_bad_scales_refused_when_configured(self, scales):
        with pytest.raises(ValueError, match="scales must be"):
            train(small_corpus(docs=6), TrainConfig(epochs=1), small_model(mfa=MfaConfig(scales=scales)))

    def test_label_outside_the_model_classes(self):
        # label 3 would reach cross_entropy only in the middle of the first epoch
        corpus = synth_embedded_corpus(8, 4, 8, 64, 4.0, seed=0)
        model_cfg = small_model(n_classes=3)
        params = init_params(model_cfg, embed_dim=64, seed=0)
        idx = next(i for i, (_, label) in enumerate(corpus.items) if label == 3)
        message = rf"document {idx} has label 3 outside the model's classes \[0, n_classes=3\)"
        with pytest.raises(ValueError, match=message):
            train(corpus, TrainConfig(epochs=1), model_cfg)
        with pytest.raises(ValueError, match=message):
            evaluate(corpus, model_cfg, params)

    def test_tag_outside_the_model_classes(self):
        # tag 2 is inside the dataset's 3 classes but not the model's 2
        rng = np.random.default_rng(0)
        docs = [EmbeddingMatrix(rng.standard_normal((8, 64))) for _ in range(3)]
        tags = [np.zeros(8, dtype=np.int64) for _ in docs]
        tags[2][5] = 2
        ds = LabeledDataset(items=list(zip(docs, tags)), n_classes=3)
        model_cfg = small_model(n_classes=2, task="tagging")
        params = init_params(model_cfg, embed_dim=64, seed=0)
        message = r"document 2 has tag 2 outside the model's classes \[0, n_classes=2\)"
        with pytest.raises(ValueError, match=message):
            train(ds, TrainConfig(epochs=1), model_cfg)
        with pytest.raises(ValueError, match=message):
            evaluate(ds, model_cfg, params)

    @pytest.mark.parametrize(
        "other",
        [
            dict(activation=ActivationSpec("relu")),
            dict(mfa=MfaConfig(method="mf-dhv", q_grid=np.linspace(-2, 2, 5))),
            dict(task="tagging"),
        ],
        ids=["activation", "mfa", "task"],
    )
    def test_params_for_another_config(self, other):
        # the network reads params.config while the features follow model_cfg,
        # so a mismatch would score a hybrid of the two
        ds = small_corpus(docs=6)
        params = init_params(small_model(), embed_dim=64, seed=0)
        model_cfg = small_model(**other)
        message = f"parameters were built for another config \\(differing: {next(iter(other))}\\)"
        with pytest.raises(ValueError, match=message):
            train(ds, TrainConfig(epochs=1), model_cfg, params=params)
        with pytest.raises(ValueError, match=message):
            evaluate(ds, model_cfg, params)

    def test_tagging_model_on_an_untagged_corpus(self):
        # before the check, every feature ran and the first step failed
        # with "label count does not match logit rows"
        ds = small_corpus(docs=6)
        model_cfg = small_model(task="tagging")
        message = r"a task='tagging' model cannot take this dataset: it has no per-token tags"
        with pytest.raises(ValueError, match=message):
            train(ds, TrainConfig(epochs=1), model_cfg)
        with pytest.raises(ValueError, match=message):
            evaluate(ds, model_cfg, init_params(model_cfg, embed_dim=64, seed=0))

    def test_classification_model_on_a_tagged_corpus(self):
        rng = np.random.default_rng(0)
        docs = [EmbeddingMatrix(rng.standard_normal((8, 12))) for _ in range(4)]
        tags = [rng.integers(0, 2, size=8) for _ in docs]
        ds = LabeledDataset(items=list(zip(docs, tags)), n_classes=2)
        model_cfg = small_model(n_classes=2)
        message = r"a task='classification' model cannot take this dataset: it has per-token tags"
        with pytest.raises(ValueError, match=message):
            train(ds, TrainConfig(epochs=1), model_cfg)
        with pytest.raises(ValueError, match=message):
            evaluate(ds, model_cfg, init_params(model_cfg, embed_dim=12, seed=0))

    def test_params_for_an_equal_config_accepted(self):
        params = init_params(small_model(), embed_dim=64, seed=0)
        copy = ModelConfig.from_json_dict(config_json(small_model()))
        training._check_inputs(small_corpus(docs=6), copy, params)  # refuses nothing


class TestEvaluate:
    def test_metrics_keys_and_range(self):
        ds = small_corpus(docs=12)
        model_cfg = small_model()
        params, _ = train(ds, TrainConfig(epochs=1, seed=0), model_cfg)
        metrics = evaluate(ds, model_cfg, params)
        assert set(metrics) == {"accuracy", "macro_f1"}
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert 0.0 <= metrics["macro_f1"] <= 1.0

    def test_trained_model_beats_chance(self):
        ds = small_corpus(docs=45)
        model_cfg = small_model()
        params, _ = train(ds, TrainConfig(epochs=6, seed=0), model_cfg)
        metrics = evaluate(ds, model_cfg, params)
        assert metrics["accuracy"] > 0.6

    def test_tagging_counts_every_token(self, monkeypatch):
        rng = np.random.default_rng(0)
        docs = [EmbeddingMatrix(rng.standard_normal((8, 64))) for _ in range(4)]
        tags = [rng.integers(0, 2, size=8) for _ in range(4)]
        ds = LabeledDataset(items=list(zip(docs, tags)), n_classes=2)
        model_cfg = small_model(n_classes=2, task="tagging")
        params = init_params(model_cfg, embed_dim=64, seed=0)
        seen = []
        real = training.macro_f1_score
        monkeypatch.setattr(training, "macro_f1_score", lambda t, p, c: seen.append(t) or real(t, p, c))
        metrics = evaluate(ds, model_cfg, params)
        assert seen == [np.concatenate(tags).tolist()]
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_tagging_trains_on_every_token(self):
        rng = np.random.default_rng(1)
        items = [(EmbeddingMatrix(rng.standard_normal((8, 64))), rng.integers(0, 2, size=8)) for _ in range(4)]
        model_cfg = small_model(n_classes=2, task="tagging")
        _, history = train(LabeledDataset(items=items, n_classes=2), TrainConfig(epochs=1), model_cfg)
        assert np.isfinite(history[0]["loss"])
        assert (history[0]["accuracy"] * 32).is_integer()  # hits over the 32 tokens


class TestTrainStepHelpers:
    # numpy helpers whose Python-level bookkeeping took about 14% of a
    # criterion-09 train step; the step's kernels use GEMMs, slices and
    # ufuncs in their place
    BANNED = [(np, name) for name in ("tensordot", "split", "stack", "take_along_axis", "put_along_axis")]
    BANNED.append((np.lib.stride_tricks, "sliding_window_view"))

    @pytest.mark.parametrize("task", ["classification", "tagging"])
    def test_step_calls_no_python_level_numpy_helper(self, monkeypatch, task):
        cfg = small_model(  # the criterion-09 model
            hidden=16,
            filters=8,
            dense_width=16,
            attn_dim=4,
            mfa=MfaConfig(method="mf-dfa", q_grid=np.linspace(-4, 4, 5)),
            task=task,
        )
        dataset = synth_embedded_corpus(1, 3, 12, 64, 4.0, seed=5)
        doc, label = dataset.items[0]
        target = np.arange(12) % 3 if task == "tagging" else label
        params = init_params(cfg, embed_dim=64, seed=5)
        fv = hurst_features(doc, cfg)
        optimizer = training._Adam(params, TrainConfig(epochs=1, seed=5))

        def banned(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called on the train step")
            return call

        for owner, name in self.BANNED:
            monkeypatch.setattr(owner, name, banned(name))
        before = optimizer.data.copy()
        params.zero_grads()
        ad.cross_entropy(deffsi_forward(doc, cfg, params, fv=fv), target).backward()
        optimizer.step()
        assert not np.array_equal(optimizer.data, before)
        assert "sliding_window_view" not in vars(ad)
