"""Edge-case tests across modules (inputs at the boundaries)."""

import numpy as np
import pytest

from repro.generation import GenerationConfig, greedy_decode, score_continuation
from repro.inference import InferenceEngine
from repro.model import ModelConfig, TransformerLM
from repro.text import Tokenizer, Vocab


class TestSingleTokenPrompt:
    def test_prefill_one_token(self, untrained_engine):
        session = untrained_engine.start_session([5])
        assert session.last_logits.shape == (untrained_engine.config.vocab_size,)
        session.step(3)
        assert session.position == 2

    def test_empty_prompt_rejected(self, untrained_engine):
        with pytest.raises(ValueError):
            untrained_engine.start_session([])

    def test_greedy_from_single_token(self, untrained_engine):
        out = greedy_decode(
            untrained_engine, [7], GenerationConfig(max_new_tokens=3, eos_id=2)
        )
        assert len(out) <= 3


class TestSequenceLimits:
    def test_session_up_to_max_seq(self, tokenizer):
        config = ModelConfig(
            vocab_size=len(tokenizer), d_model=32, n_heads=4, n_blocks=1,
            d_ff=32, max_seq=8,
        )
        engine = InferenceEngine(TransformerLM(config, seed=0).to_store())
        session = engine.start_session([1, 2, 3, 4])
        for token in (5, 6, 7, 8):
            session.step(token)
        # Cache is now full; one more token through any entry must fail
        # loudly and the same way, before a hook fires or a cache moves.
        fired = []
        for name in engine.linear_layer_names():
            engine.hooks.register(name, lambda out, ctx: fired.append(ctx.full_name))
        overflows = (
            lambda: session.step(9),
            lambda: engine.forward([9, 10], session.caches, 7, 5),
            lambda: engine.forward(np.array([[9], [10]]), session.caches, 8, 5),
            lambda: engine.forward_step_batch([9], [session.caches], [8], [5]),
            lambda: engine.forward_chunk_batch([[9, 10]], [session.caches], [7], [5]),
        )
        for overflow in overflows:
            with pytest.raises(ValueError, match="KV cache overflow"):
                overflow()
        assert [c.length for c in session.caches] == [8]
        assert fired == []

    def test_option_scoring_near_limit(self, untrained_engine):
        max_seq = untrained_engine.config.max_seq
        prompt = list(range(5, 5 + max_seq - 2))
        score = score_continuation(untrained_engine, prompt, [3, 4])
        assert np.isfinite(score)


class TestTokenizerEdges:
    def test_empty_string(self, tokenizer):
        assert tokenizer.encode("") == []
        assert tokenizer.decode([]) == ""

    def test_whitespace_only(self, tokenizer):
        assert tokenizer.encode("   \n\t ") == []

    def test_zero_token(self, tokenizer):
        assert tokenizer.tokenize("0 apples") == ["0", "apples"]

    def test_long_number(self, tokenizer):
        tokens = tokenizer.tokenize("123456789")
        assert tokens == list("123456789")

    def test_vocab_of_nothing(self):
        vocab = Vocab([])
        assert len(vocab) == 5  # just the specials
        tok = Tokenizer(vocab)
        assert tok.encode("anything") == [vocab.unk_id]


class TestModelEdges:
    def test_one_block_one_head(self, tokenizer):
        config = ModelConfig(
            vocab_size=len(tokenizer), d_model=16, n_heads=1, n_blocks=1,
            d_ff=16, max_seq=16,
        )
        model = TransformerLM(config, seed=0)
        logits, _ = model.forward(np.array([[1, 2, 3]]))
        assert logits.shape == (1, 3, len(tokenizer))
        engine = InferenceEngine(model.to_store())
        np.testing.assert_allclose(
            engine.forward_full([1, 2, 3]), logits.data[0], atol=1e-4
        )

    def test_moe_top1(self, tokenizer):
        config = ModelConfig(
            vocab_size=len(tokenizer), d_model=16, n_heads=2, n_blocks=1,
            d_ff=16, max_seq=16, n_experts=2, top_k=1,
        )
        engine = InferenceEngine(TransformerLM(config, seed=1).to_store())
        logits = engine.forward_full([4, 5, 6])
        assert np.isfinite(logits).all()

    def test_moe_all_experts_active(self, tokenizer):
        """top_k == n_experts degenerates to a dense mixture."""
        config = ModelConfig(
            vocab_size=len(tokenizer), d_model=16, n_heads=2, n_blocks=1,
            d_ff=16, max_seq=16, n_experts=2, top_k=2,
        )
        engine = InferenceEngine(TransformerLM(config, seed=2).to_store())
        from repro.inference import CaptureState

        engine.capture = CaptureState()
        engine.forward_full([4, 5, 6])
        top = engine.capture.expert_selections[(0, 0)]
        engine.capture = None
        assert set(top.flatten()) == {0, 1}
