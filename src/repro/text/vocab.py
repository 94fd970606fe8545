"""Vocabulary: token <-> id mapping with reserved special tokens."""

from __future__ import annotations

from typing import Iterable

__all__ = ["Vocab", "PAD, BOS, EOS, SEP, UNK".replace(", ", "\", \"")]

PAD = "<pad>"
BOS = "<bos>"
EOS = "<eos>"
SEP = "<sep>"
UNK = "<unk>"
SPECIAL_TOKENS = (PAD, BOS, EOS, SEP, UNK)

__all__ = ["Vocab", "PAD", "BOS", "EOS", "SEP", "UNK", "SPECIAL_TOKENS"]


class Vocab:
    """Immutable token/id bijection; ids 0..4 are the special tokens."""

    def __init__(self, tokens: Iterable[str]) -> None:
        ordered: list[str] = list(SPECIAL_TOKENS)
        seen = set(ordered)
        for token in tokens:
            if token not in seen:
                seen.add(token)
                ordered.append(token)
        self._id_to_token = ordered
        self._token_to_id = {t: i for i, t in enumerate(ordered)}

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id(self, token: str) -> int:
        """Token id, falling back to ``<unk>``."""
        return self._token_to_id.get(token, self._token_to_id[UNK])

    def token(self, idx: int) -> str:
        """Surface form of a token id."""
        return self._id_to_token[idx]

    def tokens(self) -> list[str]:
        """All tokens in id order."""
        return list(self._id_to_token)

    @property
    def eos_id(self) -> int:
        """Id of the end-of-sequence token."""
        return self._token_to_id[EOS]

    @property
    def unk_id(self) -> int:
        """Id of the unknown-token fallback."""
        return self._token_to_id[UNK]
