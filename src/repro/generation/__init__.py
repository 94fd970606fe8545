"""Decoding strategies: greedy / beam search / option scoring /
continuous batching / speculative draft-and-verify."""

from repro.generation.batched import BatchedDecoder
from repro.generation.decode import (
    GenerationConfig,
    beam_search_decode,
    choose_option,
    generate_ids,
    greedy_decode,
    score_continuation,
    score_options,
)
from repro.generation.round import DecodeRound, decode_plan
from repro.generation.spec_batched import BatchedSpeculativeDecoder
from repro.generation.speculative import SpeculativeDecoder

__all__ = [
    "BatchedDecoder",
    "BatchedSpeculativeDecoder",
    "DecodeRound",
    "GenerationConfig",
    "SpeculativeDecoder",
    "beam_search_decode",
    "choose_option",
    "decode_plan",
    "generate_ids",
    "greedy_decode",
    "score_continuation",
    "score_options",
]
