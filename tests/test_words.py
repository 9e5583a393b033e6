import pytest
from hypothesis import given, strategies as st

from stallings import (
    Alphabet,
    AlphabetMismatch,
    ParseError,
    Presentation,
    Word,
    cyclic_reduce,
    free_reduce,
    letter,
    letter_index,
    letter_sign,
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
            assert letter_sign(lt) == sign


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


def test_cyclic_reduce():
    assert cyclic_reduce(Word([-1, 2, 1])) == Word([2])
    assert cyclic_reduce(Word([1, 2, -2, -1])) == Word()
    assert cyclic_reduce(Word([1, 2])) == Word([1, 2])


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


@given(words)
def test_cyclic_reduce_is_reduced(w):
    r = cyclic_reduce(w)
    assert free_reduce(r) == r
    assert len(r) < 2 or r[0] != -r[-1]


class TestAlphabet:
    def test_validation(self):
        with pytest.raises(ValueError):
            Alphabet([])
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])
        with pytest.raises(ValueError):
            Alphabet(["1bad"])

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
        with pytest.raises(AlphabetMismatch):
            Presentation(Alphabet(["a"]), [Word([2])])

    def test_equality_and_repr(self):
        p = Presentation.parse(["a", "b"], ["a a"])
        q = Presentation.parse(["a", "b"], ["a a"])
        assert p == q
        assert hash(p) == hash(q)
        assert "a a" in repr(p)
