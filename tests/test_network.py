import gc
import hashlib
import json
import sys
import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fractamine.autodiff as ad
import fractamine.neuralnet as neuralnet
from fractamine.activations import KINDS, ActivationSpec
from fractamine.autodiff import DiffArray
from fractamine.multifractal import METHODS, MfaConfig
from fractamine.neuralnet import (
    ModelConfig,
    attention_fv,
    birnn_forward,
    check_document,
    config_json,
    deffsi_forward,
    final_channels,
    hurst_features,
    init_params,
    load_checkpoint,
    predict_proba,
    save_checkpoint,
    scnn_forward,
)
from fractamine.series import EmbeddingMatrix
from fractamine.training import TrainConfig

RNG = np.random.default_rng(11)


def micro_config(**overrides):
    base = dict(
        n_classes=3,
        hidden=5,
        filters=4,
        blocks=1,
        conv_width=2,
        dense_width=6,
        attn_dim=3,
        mfa=MfaConfig(method="mf-dfa", q_grid=np.linspace(-2, 2, 5)),
    )
    base.update(overrides)
    return ModelConfig(**base)


def micro_doc(n_tokens=8, dim=6):
    return EmbeddingMatrix(RNG.standard_normal((n_tokens, dim)))


def init_params_by_hand(cfg, embed_dim, seed):
    """init_params as it was written out tensor by tensor, kept as the
    reference for the table-driven one."""
    rng = np.random.default_rng(seed)
    uniform = neuralnet._uniform
    h = cfg.hidden
    f = cfg.filters
    w = cfg.conv_width
    m = int(cfg.mfa.q_grid.size)
    t = {}

    in_dim = embed_dim
    for layer in range(2):
        for dirn in ("f", "b"):
            t[f"lstm{layer}{dirn}.wx"] = uniform(rng, in_dim, 4 * h)
            t[f"lstm{layer}{dirn}.wh"] = uniform(rng, h, 4 * h)
            t[f"lstm{layer}{dirn}.b"] = np.zeros(4 * h)
        in_dim = 2 * h

    t["fvproj.w"] = uniform(rng, m, 2 * h)
    t["fvproj.b"] = np.zeros(2 * h)
    t["gate1.kappa"] = uniform(rng, 2 * h, 2 * h)
    t["gate1.bias"] = np.zeros(2 * h)

    plan = [2 * h]
    channels = 2 * h + f
    for _ in range(cfg.blocks):
        plan.append(channels)
        channels += f
    t["conv.pre.c1.k"] = uniform(rng, w, plan[0], f)
    t["conv.pre.c1.b"] = np.zeros(f)
    t["conv.pre.c2.k"] = uniform(rng, w, f, f)
    t["conv.pre.c2.b"] = np.zeros(f)
    for i in range(cfg.blocks):
        t[f"conv.block{i}.c1.k"] = uniform(rng, w, plan[i + 1], f)
        t[f"conv.block{i}.c1.b"] = np.zeros(f)
        t[f"conv.block{i}.c2.k"] = uniform(rng, w, f, f)
        t[f"conv.block{i}.c2.b"] = np.zeros(f)

    k = cfg.attn_dim
    t["attn.w_mean"] = uniform(rng, k)
    t["attn.w_pos"] = uniform(rng, k)
    t["attn.bias"] = np.zeros(k)
    t["attn.q"] = uniform(rng, k)

    cf = 2 * h + (cfg.blocks + 1) * f
    t["fva_proj.w"] = uniform(rng, m, cf)
    t["fva_proj.b"] = np.zeros(cf)
    t["gate2.kappa"] = uniform(rng, cf, cf)
    t["gate2.bias"] = np.zeros(cf)

    t["dense0.w"] = uniform(rng, cf, cfg.dense_width)
    t["dense0.b"] = np.zeros(cfg.dense_width)
    t["head.w"] = uniform(rng, cfg.dense_width, cfg.n_classes)
    t["head.b"] = np.zeros(cfg.n_classes)

    if cfg.activation.kind == "sital":
        sites = ["conv.pre", *(f"conv.block{i}" for i in range(cfg.blocks)), "dense0"]
        for site in sites:
            t[f"act.{site}.gamma"] = np.asarray(cfg.activation.params["gamma"])
            t[f"act.{site}.eta"] = np.asarray(cfg.activation.params["eta"])
    return {name: DiffArray(v).data for name, v in t.items()}


class TestConfig:
    def test_defaults_validate(self):
        cfg = ModelConfig()
        assert cfg.task == "classification"
        assert cfg.activation.kind == "sital"

    def test_min_tokens_of_defaults(self):
        assert ModelConfig().min_tokens() == 8
        assert ModelConfig(task="tagging").min_tokens() == 1

    @pytest.mark.parametrize("blocks, width", [(1, 2), (1, 3), (2, 2), (2, 4), (3, 3)])
    def test_min_tokens_is_what_the_stack_accepts(self, blocks, width):
        cfg = micro_config(blocks=blocks, conv_width=width)
        need = cfg.min_tokens()
        params = init_params(cfg, embed_dim=6, seed=0)
        fv = np.full(5, 0.5)
        assert deffsi_forward(micro_doc(n_tokens=need), cfg, params, fv=fv).data.shape == (3,)
        with pytest.raises(ValueError, match="scnn stage"):
            deffsi_forward(micro_doc(n_tokens=need - 1), cfg, params, fv=fv)

    def test_bad_task(self):
        with pytest.raises(ValueError):
            ModelConfig(task="regression")

    @pytest.mark.parametrize(
        "name, value", [("activation", "relu"), ("activation", None), ("mfa", "mf-dfa"), ("mfa", {})]
    )
    def test_nested_configs_must_have_their_type(self, name, value):
        # these built and then failed in the first forward pass
        with pytest.raises(TypeError, match=f"{name} must be an"):
            ModelConfig(**{name: value})

    @pytest.mark.parametrize(
        "name", ["n_classes", "hidden", "filters", "blocks", "conv_width", "dense_width", "attn_dim"]
    )
    @pytest.mark.parametrize("value", [16.0, 2.5, True])
    def test_sizes_must_be_integers(self, name, value):
        # hidden=16.0 used to build and then fail inside init_params
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ModelConfig(**{name: value})

    def test_numpy_integer_sizes_accepted(self):
        cfg = micro_config(hidden=np.int64(5), blocks=np.int32(1))
        assert init_params(cfg, embed_dim=6, seed=0).tensors

    def test_json_round_trip(self):
        cfg = micro_config()
        again = ModelConfig.from_json_dict(config_json(cfg))
        assert config_json(again) == config_json(cfg)

    @pytest.mark.parametrize("key", list(config_json(ModelConfig())))
    def test_from_json_requires_every_key(self, key):
        # a checkpoint header missing a field must not load with a default
        payload = config_json(micro_config())
        del payload[key]
        with pytest.raises(KeyError):
            ModelConfig.from_json_dict(payload)

    @pytest.mark.parametrize(
        "nested, key",
        [("activation", f.name) for f in fields(ActivationSpec)]
        + [("mfa", f.name) for f in fields(MfaConfig)],
    )
    def test_from_json_requires_every_nested_key(self, nested, key):
        payload = config_json(micro_config())
        del payload[nested][key]
        with pytest.raises(KeyError, match=key):
            ModelConfig.from_json_dict(payload)

    @pytest.mark.parametrize(
        "config",
        [ActivationSpec("kdac"), MfaConfig(), micro_config(), TrainConfig()],
        ids=lambda config: type(config).__name__,
    )
    def test_config_json_keys_are_the_fields(self, config):
        # no field is left out or renamed, at any nesting level
        def check(payload, cfg):
            assert list(payload) == [f.name for f in fields(cfg)]
            for f in fields(cfg):
                if is_dataclass(getattr(cfg, f.name)):
                    check(payload[f.name], getattr(cfg, f.name))

        check(json.loads(json.dumps(config_json(config))), config)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_json_round_trip_every_kind_and_method(self, kind, method):
        mfa = MfaConfig(
            method=method, q_grid=np.linspace(-3, 3, 7), scales=[4, 8, 16], vol_window=5, dfa_poly_order=2
        )
        text = json.dumps(config_json(micro_config(activation=ActivationSpec(kind), mfa=mfa)))
        again = ModelConfig.from_json_dict(json.loads(text))
        assert json.dumps(config_json(again)) == text
        assert again.mfa.scales.dtype == np.int64

    def test_checkpoint_json_pinned(self):
        # the config JSON a checkpoint header carries; the string is the
        # one the field-by-field serializer wrote before MfaConfig had its own
        cfg = ModelConfig(
            n_classes=2, hidden=5, filters=4, blocks=1, conv_width=2, dense_width=6, attn_dim=3,
            activation=ActivationSpec("kdac"),
            mfa=MfaConfig(
                method="mf-dhv", q_grid=[-1.5, 0, 2], scales=[8, 16, 32], vol_window=8,
                dfa_poly_order=2,
            ),
        )
        pinned = (
            '{"n_classes": 2, "task": "classification", "hidden": 5, "filters": 4, "blocks": 1, '
            '"conv_width": 2, "dense_width": 6, "attn_dim": 3, "activation": {"kind": "kdac", '
            '"params": {"beta1": 1.0, "beta2": 0.1, "mu": 0.01}}, "mfa": {"method": "mf-dhv", '
            '"q_grid": [-1.5, 0.0, 2.0], "scales": [8, 16, 32], "vol_window": 8, "dfa_poly_order": 2}}'
        )
        assert json.dumps(config_json(cfg)) == pinned
        again = ModelConfig.from_json_dict(json.loads(pinned))
        assert json.dumps(config_json(again)) == pinned
        assert again.mfa.scales.dtype == np.int64

    def test_final_channels(self):
        cfg = micro_config(hidden=8, filters=4, blocks=2)
        assert final_channels(cfg) == 2 * 8 + 3 * 4


class TestInit:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig(),
            micro_config(blocks=2, conv_width=3),
            micro_config(task="tagging"),
            micro_config(activation=ActivationSpec("kdac")),
            micro_config(
                attn_dim=5, dense_width=7, n_classes=5, mfa=MfaConfig(method="mf-dfa", q_grid=np.linspace(-3, 3, 7))
            ),
        ],
        ids=["default", "blocks2-width3", "tagging", "kdac", "odd-sizes"],
    )
    def test_same_tensors_as_the_hand_written_init(self, cfg, seed):
        want = init_params_by_hand(cfg, 10, seed)
        got = {name: t.data for name, t in init_params(cfg, embed_dim=10, seed=seed).tensors.items()}
        assert list(got) == list(want)
        for name, value in want.items():
            assert got[name].dtype == value.dtype and got[name].shape == value.shape, name
            assert got[name].tobytes() == value.tobytes(), name

    def test_deterministic(self):
        cfg = micro_config()
        a = init_params(cfg, embed_dim=6, seed=3)
        b = init_params(cfg, embed_dim=6, seed=3)
        assert all(np.array_equal(a.tensors[n].data, b.tensors[n].data) for n in a.tensors)

    def test_per_site_activation_tensors(self):
        cfg = micro_config(blocks=2)
        params = init_params(cfg, embed_dim=6, seed=0)
        names = set(params.tensors)
        for site in ("conv.pre", "conv.block0", "conv.block1", "dense0"):
            assert f"act.{site}.gamma" in names
            assert f"act.{site}.eta" in names

    def test_non_sital_configs_have_no_activation_tensors(self):
        cfg = micro_config(activation=ActivationSpec("relu"))
        params = init_params(cfg, embed_dim=6, seed=0)
        assert not any(n.startswith("act.") for n in params.tensors)

    def test_biases_start_at_zero(self):
        params = init_params(micro_config(), embed_dim=6, seed=1)
        for name, t in params.tensors.items():
            if name.endswith(".b") or name.endswith("bias"):
                assert_allclose(t.data, 0.0)


class TestComponents:
    def test_birnn_output_width(self):
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=0)
        out = birnn_forward(micro_doc(), params)
        assert out.data.shape == (8, 2 * cfg.hidden)

    def test_gate_blend_is_convex(self):
        h = 4
        a = DiffArray(RNG.standard_normal((5, h)))
        b = DiffArray(RNG.standard_normal((5, h)))
        kappa = DiffArray(RNG.standard_normal((h, h)))
        bias = DiffArray(np.zeros(h))
        out = ad.gate(a, b, kappa, bias).data
        lo = np.minimum(a.data, b.data) - 1e-12
        hi = np.maximum(a.data, b.data) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_gate_extremes(self):
        # a huge positive gate preactivation passes branch a through
        h = 3
        a = DiffArray(np.ones((2, h)))
        b = DiffArray(-np.ones((2, h)))
        kappa = DiffArray(np.zeros((h, h)))
        bias = DiffArray(np.full(h, 50.0))
        assert_allclose(ad.gate(a, b, kappa, bias).data, 1.0, atol=1e-12)

    def test_scnn_length_bookkeeping(self):
        cfg = micro_config(hidden=4, filters=2, blocks=2, conv_width=4)
        params = init_params(cfg, embed_dim=6, seed=0)
        x = DiffArray(RNG.standard_normal((64, 8)))
        out = scnn_forward(x, params)
        # 64 ->(two width-4 convs) 58 -> pool 29 -> convs 23 -> pool 11 -> convs 5
        assert out.data.shape == (5, final_channels(cfg))

    def test_scnn_too_short_raises_with_site(self):
        cfg = micro_config(blocks=2, conv_width=4)
        params = init_params(cfg, embed_dim=6, seed=0)
        x = DiffArray(RNG.standard_normal((12, 10)))
        # refused at entry, before any stage runs: 46 tokens reach the last block
        with pytest.raises(ValueError, match=r"conv\.pre: .* 12 is below ModelConfig\.min_tokens\(\) = 46"):
            scnn_forward(x, params)

    def test_attention_weights_normalized(self):
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=0)
        fv = DiffArray(RNG.standard_normal(cfg.mfa.q_grid.size))
        out = attention_fv(fv, params)
        assert out.data.shape == (cfg.mfa.q_grid.size,)


class TestHurstFeatures:
    def test_short_signal_falls_back_to_half(self):
        cfg = micro_config()
        doc = micro_doc(n_tokens=4, dim=6)  # far too short for any scale
        fv = hurst_features(doc, cfg)
        assert fv.shape == (cfg.mfa.q_grid.size,)
        assert_allclose(fv, 0.5)

    def test_wide_fs_mfa_documents_get_estimates(self):
        # the model's default fs-mfa on 768-wide documents: the mean
        # embedding's periodogram peak often lies above N/3, and denoise
        # must still fit a harmonic there rather than fall back to 0.5
        cfg = ModelConfig(n_classes=3)
        rng = np.random.default_rng(768)
        rows = [hurst_features(EmbeddingMatrix(rng.standard_normal((n, 768))), cfg) for n in (12, 24, 48) * 8]
        assert not any(np.all(fv == 0.5) for fv in rows)

    def test_long_signal_uses_estimates(self):
        cfg = micro_config(mfa=MfaConfig(method="mf-dfa", q_grid=np.array([2.0])))
        doc = EmbeddingMatrix(RNG.standard_normal((4, 512)))
        fv = hurst_features(doc, cfg)
        assert np.all(np.isfinite(fv))
        assert not np.allclose(fv, 0.5)


class TestForward:
    def test_classification_logits_shape(self):
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=0)
        fv = RNG.standard_normal(cfg.mfa.q_grid.size)
        logits = deffsi_forward(micro_doc(), cfg, params, fv=fv)
        assert logits.data.shape == (3,)

    def test_tagging_per_token_logits(self):
        cfg = micro_config(task="tagging")
        params = init_params(cfg, embed_dim=6, seed=0)
        doc = micro_doc(n_tokens=10)
        fv = RNG.standard_normal(cfg.mfa.q_grid.size)
        logits = deffsi_forward(doc, cfg, params, fv=fv)
        assert logits.data.ndim == 2
        assert logits.data.shape[1] == 3

    def test_predict_proba_normalized(self):
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=0)
        proba = predict_proba(micro_doc(), cfg, params, fv=np.zeros(5))
        assert_allclose(proba.sum(), 1.0, rtol=1e-12)
        assert np.all(proba > 0)

    @pytest.mark.parametrize(
        "fv",
        [np.zeros(4), np.zeros(6), np.full(5, np.nan), np.array([0.5, 0.5, np.inf, 0.5, 0.5]), np.zeros((1, 5))],
        ids=["short", "long", "nan", "inf", "2-d"],
    )
    def test_predict_proba_refuses_a_bad_fv_before_the_network(self, monkeypatch, fv):
        # a wrong length failed only after the whole forward, and NaN gave NaN probabilities
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=0)

        def not_reached(*args):
            raise AssertionError("the BiLSTM ran")

        monkeypatch.setattr(neuralnet, "birnn_forward", not_reached)
        with pytest.raises(ValueError, match=r"fv must be a finite vector of length 5"):
            predict_proba(micro_doc(), cfg, params, fv=fv)

    def test_predict_proba_refuses_params_for_another_config(self):
        # the network would read params.config while the features follow cfg
        params = init_params(micro_config(activation=ActivationSpec("sital")), embed_dim=6, seed=0)
        other = micro_config(
            activation=ActivationSpec("relu"), mfa=MfaConfig(method="mf-dhv", q_grid=np.linspace(-2, 2, 5))
        )
        with pytest.raises(ValueError, match=r"another config \(differing: activation, mfa\)"):
            predict_proba(micro_doc(), other, params, fv=np.zeros(5))

    def test_predict_proba_refuses_another_width_before_the_features(self, monkeypatch):
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=0)
        monkeypatch.setattr(neuralnet, "hurst_features", lambda *a: pytest.fail("features ran"))
        with pytest.raises(ValueError, match="embedding width 4; .* built for width 6"):
            predict_proba(micro_doc(dim=4), cfg, params)

    @pytest.mark.parametrize(
        "n_tokens, dim, scales, message",
        [
            (8, 64, [16, 64], r"the document has embedding width N = 64; mfa.scales up to 64 need N >= .* = 256"),
            (3, 6, None, r"the document has 3 tokens; a classification model .* needs at least 8"),
        ],
        ids=["explicit-scales", "short"],
    )
    def test_predict_proba_refuses_what_evaluate_refuses_before_the_features(
        self, monkeypatch, n_tokens, dim, scales, message
    ):
        # the scales case used to score the all-0.5 fallback vector; the short
        # document got its features and a BiLSTM pass before scnn_forward refused it
        cfg = micro_config(mfa=MfaConfig(method="mf-dfa", q_grid=np.linspace(-2, 2, 5), scales=scales))
        params = init_params(cfg, embed_dim=dim, seed=0)
        doc = EmbeddingMatrix(np.random.default_rng(0).standard_normal((n_tokens, dim)))
        monkeypatch.setattr(neuralnet, "hurst_features", lambda *a: pytest.fail("features ran"))
        monkeypatch.setattr(neuralnet, "birnn_forward", lambda *a: pytest.fail("the BiLSTM ran"))
        with pytest.raises(ValueError, match=message):
            predict_proba(doc, cfg, params)

    @pytest.mark.parametrize("method", ["mf-dhv", "fs-mfa"])
    def test_width_must_exceed_vol_window(self, method):
        # accepted, every document got the all-0.5 feature vector
        cfg = micro_config(mfa=MfaConfig(method=method, q_grid=np.linspace(-2, 2, 5), vol_window=800))
        doc = EmbeddingMatrix(np.random.default_rng(0).standard_normal((8, 768)))
        assert_allclose(hurst_features(doc, cfg), 0.5)
        with pytest.raises(ValueError, match=r"width N = 768; .* mfa.vol_window = 800 needs N > mfa.vol_window"):
            check_document(doc, cfg, None)
        check_document(doc, micro_config(mfa=MfaConfig(method=method, vol_window=767)), None)

    def test_vol_window_not_read_by_mf_dfa(self):
        cfg = micro_config(mfa=MfaConfig(method="mf-dfa", vol_window=800))
        check_document(EmbeddingMatrix(np.zeros((8, 768))), cfg, None)

    def test_predict_proba_accepts_an_equal_config(self):
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=0)
        copy = ModelConfig.from_json_dict(config_json(cfg))
        assert copy is not params.config
        doc = micro_doc()
        assert np.array_equal(
            predict_proba(doc, copy, params, fv=np.zeros(5)), predict_proba(doc, cfg, params, fv=np.zeros(5))
        )

    def test_explicit_fv_overrides_computation(self):
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=0)
        doc = micro_doc()
        a = deffsi_forward(doc, cfg, params, fv=np.zeros(5)).data
        b = deffsi_forward(doc, cfg, params, fv=np.ones(5)).data
        assert not np.allclose(a, b)

    def test_forward_deterministic(self):
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=0)
        doc = micro_doc()
        fv = np.full(5, 0.5)
        a = deffsi_forward(doc, cfg, params, fv=fv).data
        b = deffsi_forward(doc, cfg, params, fv=fv).data
        assert np.array_equal(a, b)

    # the optimizer gathers every tensor's gradient after each backward pass
    @pytest.mark.parametrize(
        "cfg",
        [
            micro_config(),
            micro_config(task="tagging"),
            micro_config(activation=ActivationSpec("relu")),
            micro_config(blocks=2, conv_width=3),
        ],
        ids=["default", "tagging", "relu", "blocks2-width3"],
    )
    def test_gradient_reaches_every_tensor(self, cfg):
        params = init_params(cfg, embed_dim=6, seed=0)
        n_tokens = max(8, cfg.min_tokens())
        logits = deffsi_forward(micro_doc(n_tokens), cfg, params, fv=RNG.standard_normal(5))
        target = np.arange(n_tokens) % 3 if cfg.task == "tagging" else np.array(1)
        loss = ad.cross_entropy(logits, target)
        params.zero_grads()
        loss.backward()
        missing = [n for n, t in params.tensors.items() if t.grad is None]
        assert missing == []


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=4)
        prefix = str(tmp_path / "model")
        save_checkpoint(params, prefix)
        again = load_checkpoint(prefix)
        assert again.embed_dim == 6
        assert all(
            np.array_equal(params.tensors[n].data, again.tensors[n].data)
            for n in params.tensors
        )

    @pytest.mark.parametrize("failing_file", [0, 1], ids=["json", "bin"])
    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path, monkeypatch, failing_file):
        cfg = micro_config()
        earlier = init_params(cfg, embed_dim=6, seed=4)
        prefix = str(tmp_path / "model")
        save_checkpoint(earlier, prefix)
        synced = []

        def fsync_fails_on(fd):
            # a full disk surfaces at the flush of one of the staged files
            synced.append(fd)
            if len(synced) > failing_file:
                raise OSError("no space left on device")

        monkeypatch.setattr(neuralnet.os, "fsync", fsync_fails_on)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(init_params(cfg, embed_dim=6, seed=5), prefix)
        again = load_checkpoint(prefix)
        assert all(np.array_equal(earlier.tensors[n].data, again.tensors[n].data) for n in earlier.tensors)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin", "model.json"]

    def test_load_closes_its_files(self, tmp_path, monkeypatch):
        params = init_params(micro_config(), embed_dim=6, seed=4)
        prefix = str(tmp_path / "model")
        save_checkpoint(params, prefix)
        # an unclosed file warns from its finalizer, where an error
        # reaches only sys.unraisablehook
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            again = load_checkpoint(prefix)
            gc.collect()
        assert unraisable == []
        assert all(np.array_equal(params.tensors[n].data, again.tensors[n].data) for n in params.tensors)

    def test_predictions_survive_round_trip(self, tmp_path):
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=4)
        prefix = str(tmp_path / "model")
        save_checkpoint(params, prefix)
        again = load_checkpoint(prefix)
        doc = micro_doc()
        fv = np.zeros(5)
        assert np.array_equal(
            predict_proba(doc, cfg, params, fv=fv),
            predict_proba(doc, again.config, again, fv=fv),
        )

    def test_version_mismatch_rejected(self, tmp_path):
        cfg = micro_config()
        params = init_params(cfg, embed_dim=6, seed=0)
        prefix = str(tmp_path / "model")
        save_checkpoint(params, prefix)
        header = tmp_path / "model.json"
        meta = json.loads(header.read_text())
        meta["format_version"] = 99
        header.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format_version"):
            load_checkpoint(prefix)

    def test_torn_save_rejected(self, tmp_path, monkeypatch):
        # the second rename fails: the new header lands beside the old blob
        prefix = str(tmp_path / "model")
        save_checkpoint(init_params(micro_config(), embed_dim=6, seed=4), prefix)
        real_replace = neuralnet.os.replace
        renames = []

        def second_rename_fails(src, dst):
            renames.append(dst)
            if len(renames) == 2:
                raise OSError("rename interrupted")
            real_replace(src, dst)

        monkeypatch.setattr(neuralnet.os, "replace", second_rename_fails)
        newer = micro_config(mfa=MfaConfig(method="mf-dhv", q_grid=np.linspace(-2, 2, 5)))
        with pytest.raises(OSError, match="interrupted"):
            save_checkpoint(init_params(newer, embed_dim=6, seed=5), prefix)
        with pytest.raises(ValueError, match="sha256"):
            load_checkpoint(prefix)

    @pytest.mark.parametrize(
        "edit,named",
        [
            ("shape", r"checkpoint tensor 'dense0.w' has shape \(6, 18\), the stored config needs \(18, 6\)"),
            ("name", r"checkpoint tensor 'dense9.w' is not part of the stored config"),
            ("missing", r"checkpoint lacks tensor 'dense0.w'"),
            ("activation", r"checkpoint tensor 'act.dense0.eta' has shape \(1,\), the stored config needs \(\)"),
        ],
        ids=["shape-dense0.w", "name-dense9.w", "missing-dense0.w", "shape-act.dense0.eta"],
    )
    def test_edited_header_rejected(self, tmp_path, monkeypatch, edit, named):
        prefix = str(tmp_path / "model")
        save_checkpoint(init_params(micro_config(), embed_dim=6, seed=0), prefix)
        header = tmp_path / "model.json"
        meta = json.loads(header.read_text())
        # the value count stays the same, so only the manifest check can notice
        entry = meta["manifest"]["dense0.w"]
        assert entry["shape"] == [18, 6]
        if edit == "shape":
            entry["shape"] = [6, 18]
        elif edit == "name":
            meta["manifest"]["dense9.w"] = meta["manifest"].pop("dense0.w")
        elif edit == "missing":
            del meta["manifest"]["dense0.w"]
        else:
            meta["manifest"]["act.dense0.eta"]["shape"] = [1]
        header.write_text(json.dumps(meta))
        monkeypatch.setattr(neuralnet, "_uniform", lambda *a: pytest.fail("drew random numbers"))
        with pytest.raises(ValueError, match=named):
            load_checkpoint(prefix)

    def test_swapped_offsets_rejected(self, tmp_path):
        prefix = str(tmp_path / "model")
        save_checkpoint(init_params(micro_config(), embed_dim=6, seed=0), prefix)
        header = tmp_path / "model.json"
        meta = json.loads(header.read_text())
        # same shapes, so names, shapes and the value count all still agree
        q, w_mean = meta["manifest"]["attn.q"], meta["manifest"]["attn.w_mean"]
        assert q["shape"] == w_mean["shape"]
        was_q, was_w_mean = q["offset"], w_mean["offset"]
        q["offset"], w_mean["offset"] = was_w_mean, was_q
        header.write_text(json.dumps(meta))
        # the table lists attn.w_mean before attn.q
        named = rf"checkpoint tensor 'attn\.w_mean' has offset {was_q}, the stored config puts it at {was_w_mean}"
        with pytest.raises(ValueError, match=named):
            load_checkpoint(prefix)

    def test_value_count_checked_against_the_stored_config(self, tmp_path):
        prefix = str(tmp_path / "model")
        save_checkpoint(init_params(micro_config(), embed_dim=6, seed=0), prefix)
        header, blob = tmp_path / "model.json", tmp_path / "model.bin"
        meta = json.loads(header.read_text())
        total = meta["total_values"]
        # a blob one value short, with a header that agrees with it but for the manifest
        raw = blob.read_bytes()[:-8]
        blob.write_bytes(raw)
        meta["blob_sha256"] = hashlib.sha256(raw).hexdigest()
        meta["total_values"] = total - 1
        header.write_text(json.dumps(meta))
        named = f"checkpoint blob holds {total - 1} values, the stored config needs {total}"
        with pytest.raises(ValueError, match=named):
            load_checkpoint(prefix)

    @pytest.mark.parametrize(
        "cfg", [micro_config(blocks=2), micro_config(task="tagging", activation=ActivationSpec("relu"))]
    )
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch, cfg):
        params = init_params(cfg, embed_dim=6, seed=4)
        prefix = str(tmp_path / "model")
        save_checkpoint(params, prefix)
        monkeypatch.setattr(neuralnet, "_uniform", lambda *a: pytest.fail("drew random numbers"))
        monkeypatch.setattr(neuralnet, "init_params", lambda *a, **k: pytest.fail("built fresh params"))
        again = load_checkpoint(prefix)
        assert list(again.tensors) == list(params.tensors)
        assert all(np.array_equal(params.tensors[n].data, again.tensors[n].data) for n in params.tensors)
