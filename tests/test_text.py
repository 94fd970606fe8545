"""Tests for vocabulary and tokenizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tasks import World, all_tasks
from repro.text import BOS, EOS, PAD, UNK, Tokenizer, Vocab, normalize_text


class TestVocab:
    def test_special_tokens_first(self, tokenizer):
        v = tokenizer.vocab
        assert v.id(PAD) == 0 and v.id(BOS) == 1 and v.eos_id == 2
        assert v.token(v.unk_id) == UNK

    def test_dedup(self):
        v = Vocab(["cat", "cat", "dog"])
        assert len(v) == 5 + 2

    def test_unknown_maps_to_unk(self, tokenizer):
        assert tokenizer.vocab.id("zzz-not-a-token") == tokenizer.vocab.unk_id

    def test_bijection(self, tokenizer):
        for idx in range(0, len(tokenizer.vocab), 37):
            token = tokenizer.vocab.token(idx)
            assert tokenizer.vocab.id(token) == idx


class TestTokenizer:
    def test_digit_splitting(self, tokenizer):
        assert tokenizer.tokenize("alice has 42 apples") == [
            "alice", "has", "4", "2", "apples",
        ]

    def test_punctuation_isolated(self, tokenizer):
        assert tokenizer.tokenize("7 + 35 = 42 .") == [
            "7", "+", "3", "5", "=", "4", "2", ".",
        ]

    def test_decode_merges_digits(self, tokenizer):
        ids = tokenizer.encode("the answer is 2600 .")
        assert tokenizer.decode(ids) == "the answer is 2600 ."

    def test_decode_stops_at_eos(self, tokenizer):
        ids = tokenizer.encode("paris", add_eos=True) + tokenizer.encode("rome")
        assert tokenizer.decode(ids) == "paris"

    def test_normalize(self):
        assert normalize_text("Hello,  World?") == "hello , world ?"

    def test_roundtrip_task_text(self, tokenizer):
        text = "question : what is the capital of france ? answer : paris ."
        assert tokenizer.decode(tokenizer.encode(text)) == text

    def test_special_token_passthrough(self, tokenizer):
        assert tokenizer.tokenize("<sep> x") == ["<sep>", "x"]


class TestVocabClosure:
    """Every text any task generator emits must encode without <unk> —
    the vocabulary is closed over the synthetic world."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_training_texts_in_vocab(self, world, tokenizer, seed):
        rng = np.random.default_rng(seed)
        for task in all_tasks(world):
            for text in task.training_texts(rng, 30):
                ids = tokenizer.encode(text)
                assert tokenizer.vocab.unk_id not in ids, (task.name, text)

    def test_eval_prompts_in_vocab(self, world, tokenizer):
        rng = np.random.default_rng(5)
        for task in all_tasks(world):
            for ex in task.examples(rng, 20):
                texts = (
                    [ex.prompt, *ex.options]
                    if hasattr(ex, "options")
                    else [ex.prompt, ex.reference]
                )
                for text in texts:
                    ids = tokenizer.encode(text)
                    assert tokenizer.vocab.unk_id not in ids, (task.name, text)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_property_number_roundtrip(n):
    """Numbers survive encode->decode via digit merge."""
    world = World(seed=2025)
    from repro.training.data import build_tokenizer

    tok = build_tokenizer(world)
    text = f"the answer is {n} ."
    assert tok.decode(tok.encode(text)) == text
