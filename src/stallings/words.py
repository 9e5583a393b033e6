"""Alphabets, signed words and finite presentations.

A generator with index ``i`` is encoded as the integer ``i + 1``; its formal
inverse is ``-(i + 1)``.  A :class:`Word` is an immutable sequence of such
signed integers and is *not* required to be freely reduced.

Each :class:`Alphabet` keeps a token table: the two spaced tokens of every
generator, ``name`` and ``name^-1``, mapped to their letters, and its
reverse.  Almost every token of a word text is one of these, so parsing
looks tokens up there and runs the token regex only on a miss (exponents
such as ``^3``, unknown names, bad tokens), which then raises or parses
exactly as the regex alone would; formatting joins from the reverse map.
The table holds ``2 * len(names)`` entries each way and never grows.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

from .errors import AlphabetMismatch, ParseError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?")


def letter(index: int, sign: int = 1) -> int:
    """Encode a generator index and sign as a signed letter."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return sign * (index + 1)


def letter_index(lt: int) -> int:
    return abs(lt) - 1


class Word:
    """A word in the free monoid over an alphabet and its formal inverses."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        self.letters = tuple(letters)
        if 0 in self.letters:
            raise ValueError("0 is not a valid letter")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        """Unreduced concatenation; callers reduce explicitly."""
        return Word(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def inverse(self) -> "Word":
        """Letter-wise reversal with sign flip."""
        return Word(-lt for lt in reversed(self.letters))

    def is_identity(self) -> bool:
        return not self.letters

    def max_index(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((abs(lt) - 1 for lt in self.letters), default=-1)

    def __repr__(self) -> str:
        return f"Word({list(self.letters)!r})"


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    The result is the unique freely reduced form of ``w``, independent of
    cancellation order.
    """
    stack: list[int] = []
    for lt in w.letters:
        if stack and stack[-1] == -lt:
            stack.pop()
        else:
            stack.append(lt)
    return Word(stack)


class Alphabet:
    """An ordered finite set of distinct generator names.

    The order is fixed at construction; it drives every tie-break downstream
    (tracing order, spanning trees, canonical numbering).
    """

    # _letters: spaced token -> letter for ``name`` and ``name^-1``;
    # _tokens: the reverse, letter -> token
    __slots__ = ("names", "_index", "_letters", "_tokens")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet must be non-empty")
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid generator name: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be pairwise distinct")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._tokens = {lt: name if lt > 0 else f"{name}^-1"
                        for i, name in enumerate(names) for lt in (i + 1, -(i + 1))}
        self._letters = {token: lt for lt, token in self._tokens.items()}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlphabetMismatch(f"unknown generator: {name!r}") from None

    def is_compact(self) -> bool:
        """True when every generator is a single lowercase letter, which
        enables the compact word syntax (uppercase = inverse)."""
        return all(len(n) == 1 and n.islower() for n in self.names)

    def parse_word(self, text: str) -> Word:
        """Parse either spaced tokens (``a b^-1 a``) or, for single-lowercase
        alphabets, compact form (``aBa``); ``1`` or blank text is the identity."""
        text = text.strip()
        if not text or text == "1":
            return Word()
        if " " in text or "^" in text or text in self._index:
            return self._parse_spaced(text)
        if self.is_compact():
            return self._parse_compact(text)
        return self._parse_spaced(text)

    def _parse_spaced(self, text: str) -> Word:
        letters = self._letters
        out: list[int] = []
        for token in text.split():
            lt = letters.get(token)
            if lt is not None:
                out.append(lt)
                continue
            m = _TOKEN_RE.fullmatch(token)
            if not m:
                raise ParseError(f"bad word token: {token!r}")
            idx = self.index(m.group(1))
            try:
                exp = int(m.group(2)) if m.group(2) else 1
                out.extend([letter(idx, 1 if exp >= 0 else -1)] * abs(exp))
            except (ValueError, OverflowError, MemoryError):  # int()'s digit limit, or too long
                raise ParseError(f"exponent too large: {token!r}") from None
        return Word(out)

    def _parse_compact(self, text: str) -> Word:
        out = []
        for ch in text:
            if ch.islower():
                out.append(letter(self.index(ch), 1))
            elif ch.isupper():
                out.append(letter(self.index(ch.lower()), -1))
            else:
                raise ParseError(f"bad character in compact word: {ch!r}")
        return Word(out)

    def format_word(self, w: Word) -> str:
        if w.is_identity():
            return "1"
        try:
            return " ".join(map(self._tokens.__getitem__, w.letters))
        except KeyError:
            raise AlphabetMismatch("word uses letters outside this alphabet") from None


def merge_alphabets(a: Alphabet, b: Alphabet) -> Alphabet:
    """Concatenate two alphabets with disjoint generator names."""
    overlap = set(a.names) & set(b.names)
    if overlap:
        raise AlphabetMismatch(f"alphabets share generators: {sorted(overlap)}")
    return Alphabet(a.names + b.names)


def shift_word(w: Word, offset: int) -> Word:
    """Re-index a word into a merged alphabet whose letters start at ``offset``."""
    return Word(lt + offset if lt > 0 else lt - offset for lt in w)


class Presentation:
    """A finite presentation G = <X | R>.

    Relators are stored freely reduced; a relator that reduces to the empty
    word is rejected.
    """

    # _layout: the coset-table columns and relator cycles of subgroup._layout
    __slots__ = ("alphabet", "relators", "_layout")

    def __init__(self, alphabet: Alphabet, relators: Iterable[Word] = ()):
        self.alphabet = alphabet
        reduced = []
        for r in relators:
            if r.max_index() >= len(alphabet):
                raise AlphabetMismatch("relator uses letters outside the alphabet")
            rr = free_reduce(r)
            if rr.is_identity():
                raise ValueError("relator reduces to the empty word")
            reduced.append(rr)
        self.relators = tuple(reduced)
        self._layout = None

    @classmethod
    def parse(cls, gens: Sequence[str], relator_texts: Iterable[str]) -> "Presentation":
        alphabet = Alphabet(gens)
        return cls(alphabet, [alphabet.parse_word(t) for t in relator_texts])

    def word(self, text: str) -> Word:
        return self.alphabet.parse_word(text)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.alphabet == other.alphabet
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.relators))

    def __repr__(self) -> str:
        rels = ", ".join(self.alphabet.format_word(r) for r in self.relators)
        return f"<{', '.join(self.alphabet.names)} | {rels}>"


def free_presentation(gens: Sequence[str]) -> Presentation:
    return Presentation(Alphabet(gens), ())
