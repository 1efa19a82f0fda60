"""The gate alphabet and the candidate search space.

§3.1 fixes the rotation-gate alphabet ``A_R`` with ``|A_R| = 5`` — the
tokens appearing in the figures are ``rx, ry, rz, h, p`` — and reports
"2500 possible circuit combinations" for depths ``p = 1..4``. That count
pins the interpretation: 2500 = 4 depths x 5^4 length-4 *sequences with
repetition* (a sequence repeating a gate subsumes shorter effective
combinations). :func:`paper_space_size` checks this arithmetic, and the
enumerators below expose the alternative conventions (unordered
combinations, permutations) so the ablation benches can sweep them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from repro.qaoa.mixers import MIXER_TOKENS
from repro.utils.rng import as_rng
from repro.utils.validation import check_choice, check_positive

__all__ = [
    "DEFAULT_TOKENS",
    "ENUMERATION_MODES",
    "GateAlphabet",
    "gate_sequences",
    "count_sequences",
    "enumerate_search_space",
    "paper_space_size",
]

#: the paper's A_R (|A_R| = 5)
DEFAULT_TOKENS: tuple[str, ...] = ("rx", "ry", "rz", "h", "p")


@dataclass(frozen=True)
class GateAlphabet:
    """An ordered token vocabulary with index maps (the controller needs a
    stable token <-> integer correspondence)."""

    tokens: tuple[str, ...] = DEFAULT_TOKENS

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("alphabet must contain at least one token")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError(f"duplicate tokens in alphabet {self.tokens}")
        unknown = [t for t in self.tokens if t not in MIXER_TOKENS]
        if unknown:
            raise ValueError(
                f"tokens {unknown} are not buildable mixers; valid: {MIXER_TOKENS}"
            )

    @property
    def size(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        try:
            return self.tokens.index(token)
        except ValueError:
            raise KeyError(f"token {token!r} not in alphabet {self.tokens}") from None

    def token(self, index: int) -> str:
        if not 0 <= index < self.size:
            raise IndexError(f"token index {index} out of range for size {self.size}")
        return self.tokens[index]

    def sample_sequence(self, length: int, rng) -> tuple[str, ...]:
        """Uniform random token sequence of the given length."""
        rng = as_rng(rng)
        return tuple(self.tokens[i] for i in rng.integers(0, self.size, size=length))

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self) -> int:
        return self.size


def gate_sequences(
    alphabet: GateAlphabet,
    k: int,
    *,
    ordered: bool = True,
    repetition: bool = True,
) -> Iterator[tuple[str, ...]]:
    """All gate tuples of exactly ``k`` gates under the chosen convention.

    ordered+repetition = sequences (``size^k``); ordered only =
    permutations; repetition only = multisets; neither = combinations.
    """
    check_positive(k, "k")
    if ordered and repetition:
        yield from itertools.product(alphabet.tokens, repeat=k)
    elif ordered and not repetition:
        yield from itertools.permutations(alphabet.tokens, k)
    elif not ordered and repetition:
        yield from itertools.combinations_with_replacement(alphabet.tokens, k)
    else:
        yield from itertools.combinations(alphabet.tokens, k)


def count_sequences(size: int, k: int, *, ordered: bool = True, repetition: bool = True) -> int:
    """Closed-form count matching :func:`gate_sequences`."""
    check_positive(size, "size")
    check_positive(k, "k")
    if ordered and repetition:
        return size**k
    if ordered and not repetition:
        return math.perm(size, k) if k <= size else 0
    if not ordered and repetition:
        return math.comb(size + k - 1, k)
    return math.comb(size, k) if k <= size else 0


#: enumeration convention -> the :func:`gate_sequences` switches it means
ENUMERATION_MODES = {
    "sequences": dict(ordered=True, repetition=True),
    "permutations": dict(ordered=True, repetition=False),
    "combinations": dict(ordered=False, repetition=False),
    "multisets": dict(ordered=False, repetition=True),
}


def enumerate_search_space(
    alphabet: GateAlphabet,
    k_max: int,
    *,
    k_min: int = 1,
    mode: str = "sequences",
    deduplicate: bool = True,
) -> list[tuple[str, ...]]:
    """Every candidate mixer with k_min..k_max gates.

    Modes: ``"sequences"`` (ordered, repetition — the paper's space),
    ``"combinations"`` (unordered, no repetition — the Fig. 7 labels),
    ``"permutations"``. With ``deduplicate`` adjacent-duplicate-free
    canonical forms are kept once (e.g. ``('rx','rx')`` merges to a single
    RX(4 beta) and is retained, but repeated enumeration duplicates are
    dropped). ``k_min=2`` restricts to multi-gate mixers, the space the
    paper's Figs. 6-7 draw candidates from.
    """
    check_positive(k_max, "k_max")
    check_positive(k_min, "k_min")
    if k_min > k_max:
        raise ValueError(f"k_min {k_min} exceeds k_max {k_max}")
    check_choice(mode, "mode", tuple(ENUMERATION_MODES))
    seen = set()
    out: list[tuple[str, ...]] = []
    for k in range(k_min, k_max + 1):
        for seq in gate_sequences(alphabet, k, **ENUMERATION_MODES[mode]):
            if deduplicate:
                if seq in seen:
                    continue
                seen.add(seq)
            out.append(seq)
    return out


def paper_space_size(
    p_max: int = 4, k: int = 4, alphabet_size: int = 5
) -> int:
    """The §3.1 count: ``p_max`` depths x ``alphabet_size^k`` sequences.

    Defaults reproduce the paper's 2500 (= 4 x 5^4).
    """
    return p_max * count_sequences(alphabet_size, k, ordered=True, repetition=True)
