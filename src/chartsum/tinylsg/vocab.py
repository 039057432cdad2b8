"""Word-level vocabulary with fixed reserved indices."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ChartsumError
from ..rouge import tokenize

BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
GLOBAL_ID = 4
# Nothing pads, but id 0 stays "<pad>": checkpoint vocabularies start with it.
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>", "<g>")


@dataclass(frozen=True)
class Vocab:
    id_to_token: tuple[str, ...]

    def __post_init__(self):
        if self.id_to_token[: len(RESERVED_TOKENS)] != RESERVED_TOKENS:
            raise ValueError("vocabulary must start with the reserved tokens")
        token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(token_to_id) != len(self.id_to_token):
            repeated = sorted(tok for tok, n in Counter(self.id_to_token).items() if n > 1)
            raise ValueError(f"vocabulary repeats the tokens {repeated}")
        object.__setattr__(self, "_token_to_id", token_to_id)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def token_id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def encode(self, text: str) -> list[int]:
        """Token ids for the text; out-of-vocabulary words map to UNK. No BOS/EOS added."""
        return [self.token_id(tok) for tok in tokenize(text)]

    def decode(self, ids: Sequence[int]) -> str:
        """Space-joined tokens of the ids, skipping the reserved ones."""
        return " ".join(self.id_to_token[i] for i in ids if i >= len(RESERVED_TOKENS))


def build_vocab(texts: Iterable[str]) -> Vocab:
    """Count rouge-style tokens and index them by frequency desc, then lexicographic."""
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(tokenize(text))
    if not counts:
        raise ChartsumError("cannot build a vocabulary from zero tokens")
    kept = sorted(counts, key=lambda tok: (-counts[tok], tok))
    return Vocab(id_to_token=RESERVED_TOKENS + tuple(kept))
