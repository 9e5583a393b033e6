import random
import re

import pytest
from hypothesis import given, strategies as st

from stallings import (
    Alphabet,
    AlphabetMismatch,
    ParseError,
    Presentation,
    Word,
    free_reduce,
    letter,
    letter_index,
    merge_alphabets,
    shift_word,
)

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
words = st.lists(letters, max_size=30).map(Word)


def test_letter_encoding_round_trip():
    for idx in range(5):
        for sign in (1, -1):
            lt = letter(idx, sign)
            assert letter_index(lt) == idx
            assert (lt > 0) == (sign == 1)


def test_letter_rejects_bad_sign():
    with pytest.raises(ValueError):
        letter(0, 2)


def test_word_rejects_zero():
    with pytest.raises(ValueError):
        Word([1, 0])


def test_word_algebra():
    w = Word([1, -2])
    assert w * w == Word([1, -2, 1, -2])
    assert w.inverse() == Word([2, -1])
    assert w ** 3 == Word([1, -2] * 3)
    assert w ** -2 == (w.inverse()) ** 2
    assert w ** 0 == Word()
    assert Word().is_identity()
    assert w.max_index() == 1
    assert Word().max_index() == -1


def test_free_reduce_examples():
    assert free_reduce(Word([1, -1])) == Word()
    assert free_reduce(Word([1, 2, -2, -1])) == Word()
    assert free_reduce(Word([1, 2, -2, 1])) == Word([1, 1])


@given(words)
def test_free_reduce_idempotent(w):
    assert free_reduce(free_reduce(w)) == free_reduce(w)


@given(words)
def test_free_reduce_kills_inverse(w):
    assert free_reduce(w * w.inverse()).is_identity()


@given(words, words)
def test_free_reduce_homomorphism(u, v):
    assert free_reduce(u * v) == free_reduce(free_reduce(u) * free_reduce(v))


@given(words)
def test_inverse_involution(w):
    assert w.inverse().inverse() == w


@given(words)
def test_free_reduce_parity(w):
    assert (len(w) - len(free_reduce(w))) % 2 == 0


class TestAlphabet:
    def test_validation(self):
        with pytest.raises(ValueError):
            Alphabet([])
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])
        with pytest.raises(ValueError):
            Alphabet(["1bad"])

    @pytest.mark.parametrize("name", ["a\n", "a\r\n", "a ", " a", "\na", "a\tb", "a-b", "é"])
    def test_names_with_whitespace_or_other_characters_are_rejected(self, name):
        with pytest.raises(ValueError, match="invalid generator name"):
            Alphabet([name, "b"])

    def test_index(self):
        ab = Alphabet(["a", "b"])
        assert ab.index("b") == 1
        with pytest.raises(AlphabetMismatch):
            ab.index("c")

    def test_parse_spaced(self):
        ab = Alphabet(["a", "b"])
        assert ab.parse_word("a b^-1 a") == Word([1, -2, 1])
        assert ab.parse_word("a^3") == Word([1, 1, 1])
        assert ab.parse_word("b^-2") == Word([-2, -2])
        assert ab.parse_word("1") == Word()
        assert ab.parse_word("") == Word()

    def test_parse_compact(self):
        ab = Alphabet(["a", "b"])
        assert ab.parse_word("aBa") == Word([1, -2, 1])
        assert ab.parse_word("a") == Word([1])

    def test_compact_unavailable_for_long_names(self):
        ab = Alphabet(["s1", "s2"])
        assert not ab.is_compact()
        assert ab.parse_word("s1 s2^-1") == Word([1, -2])

    def test_parse_errors(self):
        ab = Alphabet(["a", "b"])
        with pytest.raises(ParseError):
            ab.parse_word("a!")
        with pytest.raises(AlphabetMismatch):
            ab.parse_word("c")

    def test_e_is_a_generator_name(self):
        assert Alphabet(["e", "f"]).parse_word("e") == Word([1])
        with pytest.raises(AlphabetMismatch):
            Alphabet(["a", "b"]).parse_word("e")

    def test_huge_exponent_is_a_parse_error(self):
        ab = Alphabet(["a", "b"])
        for text in ("a^9223372036854775808", "b^-99999999999999999999",
                     "a^4611686018427387904", "b^-4611686018427387904"):
            with pytest.raises(ParseError):
                ab.parse_word(text)

    def test_format_round_trip(self):
        ab = Alphabet(["a", "b"])
        for text in ("a b^-1 a", "b b", "1"):
            w = ab.parse_word(text)
            assert ab.parse_word(ab.format_word(w)) == w

    def test_format_rejects_foreign_letters(self):
        ab = Alphabet(["a"])
        with pytest.raises(AlphabetMismatch):
            ab.format_word(Word([2]))


def test_merge_alphabets_and_shift():
    merged = merge_alphabets(Alphabet(["a", "b"]), Alphabet(["c"]))
    assert merged.names == ("a", "b", "c")
    assert shift_word(Word([1, -1]), 2) == Word([3, -3])
    with pytest.raises(AlphabetMismatch):
        merge_alphabets(Alphabet(["a"]), Alphabet(["a"]))


class TestPresentation:
    def test_relators_stored_reduced(self):
        p = Presentation.parse(["a"], ["a a a^-1 a a"])
        assert p.relators == (Word([1, 1, 1]),)

    def test_empty_relator_rejected(self):
        with pytest.raises(ValueError):
            Presentation.parse(["a"], ["a a^-1"])

    def test_foreign_relator_rejected(self):
        # checked as given: a foreign relator that cancels is foreign, not empty
        for r in (Word([2]), Word([2, -2]), Word([1, 2, -2])):
            with pytest.raises(AlphabetMismatch,
                               match="^relator uses letters outside the alphabet$"):
                Presentation(Alphabet(["a"]), [r])

    def test_equality_and_repr(self):
        p = Presentation.parse(["a", "b"], ["a a"])
        q = Presentation.parse(["a", "b"], ["a a"])
        assert p == q
        assert hash(p) == hash(q)
        assert "a a" in repr(p)


# The spaced parser and formatter as they were before the token table: every
# token goes through the regex, every letter through the name tuple.
_REFERENCE_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def _reference_parse(ab, text):
    text = text.strip()
    if not text or text == "1":
        return Word()
    if " " in text or "^" in text or text in ab.names:
        return _reference_spaced(ab, text)
    if ab.is_compact():
        return ab._parse_compact(text)
    return _reference_spaced(ab, text)


def _reference_spaced(ab, text):
    out = []
    for token in text.split():
        m = _REFERENCE_TOKEN_RE.match(token)
        if not m:
            raise ParseError(f"bad word token: {token!r}")
        idx = ab.index(m.group(1))
        try:
            exp = int(m.group(2)) if m.group(2) else 1
            out.extend([letter(idx, 1 if exp >= 0 else -1)] * abs(exp))
        except (ValueError, OverflowError, MemoryError):  # int()'s digit limit, or too long
            raise ParseError(f"exponent too large: {token!r}") from None
    return Word(out)


def _reference_format(ab, w):
    if w.is_identity():
        return "1"
    if w.max_index() >= len(ab.names):
        raise AlphabetMismatch("word uses letters outside this alphabet")
    return " ".join(ab.names[letter_index(lt)] + ("" if lt > 0 else "^-1") for lt in w)


def _outcome(f, *args):
    """The result, or the type and message of the exception raised."""
    try:
        return f(*args)
    except ValueError as e:  # ParseError and AlphabetMismatch are ValueErrors
        return type(e), str(e)


# Exponents at least 2**60 fail before any list is allocated; the 5000-digit
# one is past int()'s digit limit.
_EXPONENTS = ["1", "2", "3", "-1", "-2", "-3", "0", "-0", "01", "-01", "00", "+1", "٣",
              str(2**61), f"-{2**62}", str(2**63), "1" + "0" * 20, "9" * 5000]
_BAD_TOKENS = ["!", "^2", "1a", "-", "a!", "a^", "a^-", "a^^2", "a^-1^-1", "a^1.5", "1", "A"]
_UNKNOWN = ["c", "zz", "s9", "E", "_"]


def _random_text(rng, ab):
    names = list(ab.names)
    kind = rng.random()
    if kind < 0.1:
        return rng.choice(["", " ", "1", " 1 ", "\t", "1 1", "11"])
    if kind < 0.3 and ab.is_compact():
        chars = names + [n.upper() for n in names] + ["1", "!", "é", "c", "C", " "]
        return "".join(rng.choice(chars) for _ in range(rng.randint(1, 8)))
    tokens = []
    for _ in range(rng.randint(1, 8)):
        r = rng.random()
        name = rng.choice(names)
        if r < 0.5:
            tokens.append(name)
        elif r < 0.7:
            tokens.append(f"{name}^-1")
        elif r < 0.85:
            tokens.append(f"{name}^{rng.choice(_EXPONENTS)}")
        elif r < 0.93:
            tokens.append(rng.choice(_UNKNOWN))
        else:
            tokens.append(rng.choice(_BAD_TOKENS))
    seps = [" "] * 12 + ["  ", "\t", "\n", " \t "]
    return "".join(t + rng.choice(seps) for t in tokens)


ALPHABETS = [["a", "b"], ["a", "b", "c"], ["e", "f"], ["s1", "s2", "s3"], ["x", "Y"],
             ["a", "a1", "_b", "Long_name"]]


@pytest.mark.parametrize("names", ALPHABETS, ids="-".join)
def test_parse_word_matches_the_regex_parser(names):
    ab = Alphabet(names)
    rng = random.Random(f"parse {names}")
    for _ in range(600):
        text = _random_text(rng, ab)
        assert _outcome(ab.parse_word, text) == _outcome(_reference_parse, ab, text), text
    assert len(ab._letters) == len(ab._tokens) == 2 * len(ab)  # the table never grows


@pytest.mark.parametrize("names", ALPHABETS, ids="-".join)
def test_format_word_matches_the_name_tuple_and_round_trips(names):
    ab = Alphabet(names)
    n = len(ab)
    rng = random.Random(f"format {names}")
    for _ in range(300):
        w = Word(rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(rng.randint(0, 12)))
        assert ab.format_word(w) == _reference_format(ab, w)
        assert ab.parse_word(ab.format_word(w)) == w
        foreign = Word(list(w) + [rng.choice([-1, 1]) * rng.randint(n + 1, n + 3)])
        assert _outcome(ab.format_word, foreign) == _outcome(_reference_format, ab, foreign) == (
            AlphabetMismatch, "word uses letters outside this alphabet")
