import pytest

from stallings import Presentation, free_presentation


@pytest.fixture
def f2():
    return free_presentation(["a", "b"])


@pytest.fixture
def s3():
    # symmetric group on 3 letters, Coxeter presentation
    return Presentation.parse(["s1", "s2"], ["s1 s1", "s2 s2", "s1 s2 s1 s2 s1 s2"])


@pytest.fixture
def d3():
    # dihedral group of order 6, rotation/reflection presentation
    return Presentation.parse(["a", "b"], ["a a a", "b b", "a b a b"])


@pytest.fixture
def delta333():
    # affine Coxeter group of type A~2
    return Presentation.parse(
        ["a", "b", "c"],
        ["a a", "b b", "c c",
         "a b a b a b", "b c b c b c", "a c a c a c"],
    )


@pytest.fixture
def q8():
    # quaternion group of order 8
    return Presentation.parse(["a", "b"], ["a a a a", "a a b^-1 b^-1", "b^-1 a b a"])


@pytest.fixture
def random_presentation():
    """Seeded small presentations over the first k of a, b, c: one to three
    freely reduced relators of length 1-6, so some have relators of length
    one or relators that are not cyclically reduced."""
    def make(rng, k):
        names = ["a", "b", "c"][:k]
        while True:
            relators = [" ".join(rng.choice(names) + rng.choice(["", "^-1"])
                                 for _ in range(rng.randint(1, 6)))
                        for _ in range(rng.randint(1, 3))]
            try:
                return Presentation.parse(names, relators)
            except ValueError:  # a relator reduced to the empty word
                continue
    return make
