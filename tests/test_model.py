"""Multi-component model head, prediction ranking, and checkpoint format."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_post, make_sequence, tiny_model_config
from tagrec.encoder import EncoderConfig
from tagrec.model import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    ModelConfig,
    ModelConfigError,
    TripletModel,
    TruncatedCheckpointError,
    VersionMismatchError,
    VocabHashMismatchError,
    encode_post,
    load_checkpoint,
    predict_top_k,
    save_checkpoint,
)
from tagrec.tokenizer import CLS_ID, SEP_ID, train_tokenizer
from tagrec.vocab import TagVocabulary


def make_vocab(n: int) -> TagVocabulary:
    return TagVocabulary(
        tags=tuple(f"tag{i:02d}" for i in range(n)),
        counts=tuple(100 - i for i in range(n)),
        theta=1,
    )


def raw_batch(rng, cfg: EncoderConfig, batch: int, seq: int):
    ids = rng.integers(0, min(cfg.vocab_size, 40), (batch, seq))
    mask = np.ones((batch, seq), dtype=bool)
    mask[:, seq - 1 :] = False
    return ids, mask


class TestForward:
    def test_head_matches_independent_numpy_computation(self, rng):
        """Concat the per-component pooled vectors in canonical order, then
        sigmoid-linear them by hand; the model must agree."""
        encoders = {
            "title": EncoderConfig(vocab_size=40, layers=1, heads=2, model_dim=4, ffn_dim=8, max_positions=8),
            "description": EncoderConfig(vocab_size=40, layers=1, heads=2, model_dim=8, ffn_dim=8, max_positions=8),
            "code": EncoderConfig(vocab_size=40, layers=1, heads=2, model_dim=6, ffn_dim=8, max_positions=8),
        }
        config = ModelConfig(components=("code", "title", "description"), encoders=encoders, num_tags=5)
        model = TripletModel(config, make_vocab(5), seed=3)
        batch = {c: raw_batch(rng, encoders[c], 2, 6) for c in config.components}

        got = model.forward(batch).data

        pooled = np.concatenate(
            [model.encoders[c].forward(*batch[c]).data for c in ("title", "description", "code")],
            axis=-1,
        )
        logits = pooled @ model.classifier_weight.data + model.classifier_bias.data
        want = 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)
        assert got.shape == (2, 5)

    def test_components_canonicalized(self):
        config = tiny_model_config(40, 3, components=("code", "title"))
        assert config.components == ("title", "code")

    def test_permuting_head_columns_permutes_probabilities(self, rng):
        config = tiny_model_config(40, 6, components=("title",))
        model = TripletModel(config, make_vocab(6), seed=1)
        batch = {"title": raw_batch(rng, config.encoders["title"], 3, 6)}
        before = model.forward(batch).data.copy()
        perm = np.array([4, 2, 0, 5, 1, 3])
        model.classifier_weight.data = model.classifier_weight.data[:, perm]
        model.classifier_bias.data = model.classifier_bias.data[perm]
        after = model.forward(batch).data
        np.testing.assert_array_equal(after, before[:, perm])

    def test_single_component_skips_concat(self, rng):
        config = tiny_model_config(40, 4, components=("description",))
        model = TripletModel(config, make_vocab(4), seed=0)
        probs = model.forward({"description": raw_batch(rng, config.encoders["description"], 1, 5)}).data
        assert probs.shape == (1, 4)
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_missing_component_rejected(self, rng):
        config = tiny_model_config(40, 4)
        model = TripletModel(config, make_vocab(4), seed=0)
        with pytest.raises(ModelConfigError, match="missing components"):
            model.forward({"title": raw_batch(rng, config.encoders["title"], 1, 5)})


class TestPredict:
    def _flat_head_model(self, bias: list[float]) -> TripletModel:
        """Zero weights so probabilities depend only on the bias vector."""
        config = tiny_model_config(261, len(bias), components=("title",))
        model = TripletModel(config, make_vocab(len(bias)), seed=0)
        model.classifier_weight.data[:] = 0.0
        model.classifier_bias.data[:] = np.array(bias, dtype=np.float32)
        return model

    def test_ranking_is_descending_by_probability(self):
        model = self._flat_head_model([0.1, 0.9, -0.3, 0.5])
        pred = model.predict({"title": make_sequence([5, 6], max_len=8)})
        assert pred.ranked.tolist() == [1, 3, 0, 2]
        expected = 1.0 / (1.0 + np.exp(-np.array([0.1, 0.9, -0.3, 0.5], dtype=np.float32)))
        np.testing.assert_allclose(pred.probabilities, expected, rtol=1e-6)

    def test_probability_ties_rank_by_tag_index(self):
        model = self._flat_head_model([0.0, 0.0, 0.0, 0.0, 0.0])
        pred = model.predict({"title": make_sequence([5], max_len=8)})
        assert np.all(pred.probabilities == 0.5)
        assert pred.ranked.tolist() == [0, 1, 2, 3, 4]

    def test_predict_builds_no_graph(self, monkeypatch):
        model = self._flat_head_model([0.1, 0.9])
        forward = model.forward
        outputs = []

        def recording_forward(batch):
            outputs.append(forward(batch))
            return outputs[-1]

        monkeypatch.setattr(model, "forward", recording_forward)
        model.predict({"title": make_sequence([5], max_len=8)})
        assert not outputs[0].requires_grad and outputs[0]._parents == ()

    def test_top_k_names_and_bounds(self):
        model = self._flat_head_model([0.1, 0.9, -0.3, 0.5])
        pred = model.predict({"title": make_sequence([5], max_len=8)})
        assert predict_top_k(pred, 2) == ["tag01", "tag03"]
        assert predict_top_k(pred, 4) == ["tag01", "tag03", "tag00", "tag02"]
        with pytest.raises(ValueError, match="k must be"):
            predict_top_k(pred, 0)
        with pytest.raises(ValueError, match="k must be"):
            predict_top_k(pred, 5)


class TestShareWeights:
    def test_shared_encoders_are_one_object(self):
        config = tiny_model_config(40, 3, share_weights=True)
        model = TripletModel(config, make_vocab(3), seed=0)
        assert model.encoders["title"] is model.encoders["description"] is model.encoders["code"]
        names = [n for n, _ in model.parameters()]
        assert all(n.startswith("encoder.shared.") for n in names[:-2])
        separate = TripletModel(tiny_model_config(40, 3), make_vocab(3), seed=0)
        assert len(names) < len(list(separate.parameters()))

    def test_separate_encoders_differ_and_are_prefixed(self):
        model = TripletModel(tiny_model_config(40, 3), make_vocab(3), seed=0)
        assert model.encoders["title"] is not model.encoders["code"]
        assert not np.array_equal(
            model.encoders["title"].tok_emb.data, model.encoders["code"].tok_emb.data
        )
        names = [n for n, _ in model.parameters()]
        assert names[-2:] == ["classifier.weight", "classifier.bias"]
        for component in ("title", "description", "code"):
            assert any(n.startswith(f"encoder.{component}.") for n in names)

    def test_share_requires_identical_configs(self):
        encoders = {
            "title": EncoderConfig(vocab_size=40, model_dim=8, heads=2, ffn_dim=8, layers=1),
            "code": EncoderConfig(vocab_size=40, model_dim=16, heads=2, ffn_dim=8, layers=1),
        }
        with pytest.raises(ModelConfigError, match="share_weights"):
            ModelConfig(components=("title", "code"), encoders=encoders, num_tags=3, share_weights=True)


class TestModelConfig:
    def test_validation_errors(self):
        enc = EncoderConfig(vocab_size=40, model_dim=8, heads=2, ffn_dim=8, layers=1)
        with pytest.raises(ModelConfigError, match="at least one"):
            ModelConfig(components=(), encoders={}, num_tags=3)
        with pytest.raises(ModelConfigError, match="unknown components"):
            ModelConfig(components=("body",), encoders={"body": enc}, num_tags=3)
        with pytest.raises(ModelConfigError, match="duplicate"):
            ModelConfig(components=("title", "title"), encoders={"title": enc}, num_tags=3)
        with pytest.raises(ModelConfigError, match="do not match"):
            ModelConfig(components=("title",), encoders={"code": enc}, num_tags=3)
        with pytest.raises(ModelConfigError, match="num_tags"):
            ModelConfig(components=("title",), encoders={"title": enc}, num_tags=0)
        with pytest.raises(ModelConfigError, match="truncation"):
            ModelConfig(components=("title",), encoders={"title": enc}, num_tags=3, truncation="middle")

    def test_num_tags_must_match_vocab(self):
        with pytest.raises(ModelConfigError, match="num_tags"):
            TripletModel(tiny_model_config(40, 3), make_vocab(4), seed=0)

    def test_json_round_trip(self):
        config = tiny_model_config(40, 7, components=("title", "code"), share_weights=True)
        again = ModelConfig.from_json_dict(config.to_json_dict())
        assert again == config

    def test_malformed_json_dict(self):
        with pytest.raises(ModelConfigError, match="malformed"):
            ModelConfig.from_json_dict({"components": ["title"]})


class TestEncodePost:
    def test_lengths_and_layout_per_component(self):
        tok = train_tokenizer("some text to cover bytes", vocab_size=260)
        encoders = {
            "title": EncoderConfig(vocab_size=300, layers=1, heads=2, model_dim=4, ffn_dim=8, max_positions=6),
            "code": EncoderConfig(vocab_size=300, layers=1, heads=2, model_dim=4, ffn_dim=8, max_positions=10),
        }
        config = ModelConfig(components=("title", "code"), encoders=encoders, num_tags=2)
        post = make_post(1, ("a", "b"), title="abcdefghij", code="xyz")
        seqs = encode_post(post, tok, config)
        assert set(seqs) == {"title", "code"}
        assert len(seqs["title"].ids) == 6
        assert len(seqs["code"].ids) == 10
        assert seqs["title"].ids[0] == CLS_ID
        assert seqs["title"].ids[1:5].tolist() == [ord(c) for c in "abcd"]
        assert seqs["title"].ids[5] == SEP_ID

    def test_tail_truncation_keeps_last_tokens(self):
        tok = train_tokenizer("abcdefghij", vocab_size=260)
        enc = EncoderConfig(vocab_size=300, layers=1, heads=2, model_dim=4, ffn_dim=8, max_positions=6)
        config = ModelConfig(components=("title",), encoders={"title": enc}, num_tags=2, truncation="tail_only")
        seqs = encode_post(make_post(1, ("a",), title="abcdefghij"), tok, config)
        assert seqs["title"].ids[1:5].tolist() == [ord(c) for c in "ghij"]


class TestCheckpoints:
    def _small(self, seed: int = 9) -> TripletModel:
        return TripletModel(tiny_model_config(261, 5), make_vocab(5), seed=seed)

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = self._small()
        model.classifier_bias.data[:] = np.arange(5, dtype=np.float32) * 0.25
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, model.vocab)
        assert loaded.config == model.config
        for (name_a, pa), (name_b, pb) in zip(model.parameters(), loaded.parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)
        seqs = {c: make_sequence([7, 8, 9], max_len=8) for c in model.config.components}
        np.testing.assert_array_equal(
            model.predict(seqs).probabilities, loaded.predict(seqs).probabilities
        )

    def test_header_bytes_are_pinned(self, tmp_path):
        # Written out by hand, so a change to the format or to the config's
        # JSON layout fails here, not only in a comparison of two new files.
        config = (
            b'{"components":["title"],"num_tags":5,"share_weights":false,"truncation":"head_only",'
            b'"encoders":{"title":{"vocab_size":261,"layers":1,"heads":2,"model_dim":8,"ffn_dim":16,'
            b'"max_positions":8,"dropout_rate":0.0,"pooling":"max"}}}'
        )
        header = b"TAGRECK1" + b"\x01\x00\x00\x00" + b"\xe1\x00\x00\x00" + config
        vocab_digest = bytes.fromhex("40a94704ea3d44c531ac6e10c49a5cb1ded5d730f4d00cf30a656a8a84f5c0d3")
        config_obj = tiny_model_config(261, 5, components=("title",), pooling="max")
        path = tmp_path / "model.ckpt"
        save_checkpoint(TripletModel(config_obj, make_vocab(5), seed=9), path)
        blob = path.read_bytes()
        assert len(config) == 0xE1
        assert blob[: len(header) + 32] == header + vocab_digest
        assert len(blob) == len(header) + 32 + 4 * 2813  # 2,813 float32 parameters

    def test_bad_magic(self, tmp_path):
        model = self._small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(b"NOTAMAGIC"[: len(CHECKPOINT_MAGIC)] + blob[len(CHECKPOINT_MAGIC) :])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path, model.vocab)

    def test_version_mismatch(self, tmp_path):
        model = self._small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError, match="99"):
            load_checkpoint(path, model.vocab)

    def test_vocab_hash_mismatch(self, tmp_path):
        model = self._small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        other = TagVocabulary(tags=model.vocab.tags, counts=tuple(c + 1 for c in model.vocab.counts), theta=1)
        with pytest.raises(VocabHashMismatchError):
            load_checkpoint(path, other)

    def test_truncation_detected_in_header_and_body(self, tmp_path):
        model = self._small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        for cut in (6, len(blob) - 10):
            path.write_bytes(blob[:cut])
            with pytest.raises(TruncatedCheckpointError):
                load_checkpoint(path, model.vocab)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = self._small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path, model.vocab)

    def test_float64_models_cannot_be_saved(self, tmp_path):
        model = TripletModel(tiny_model_config(261, 5), make_vocab(5), seed=0, dtype=np.float64)
        with pytest.raises(CheckpointError, match="float32"):
            save_checkpoint(model, tmp_path / "model.ckpt")

    def test_shared_weight_checkpoint_restores_sharing(self, tmp_path):
        config = tiny_model_config(261, 4, share_weights=True)
        model = TripletModel(config, make_vocab(4), seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, model.vocab)
        assert loaded.config.share_weights
        assert loaded.encoders["title"] is loaded.encoders["code"]
