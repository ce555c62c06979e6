"""Corpus generators: deterministic canonical lasso enumeration and the
seeded random sampler."""

import pytest

from omegapower import LassoWord, corpus_lassos, random_lassos, t_lasso, t_member

from corpus_reference import filter_after_canonical


def test_enumeration_frozen():
    assert [str(w) for w in corpus_lassos(2, 0, 1)] == ["(0)", "(1)"]
    listed = [str(w) for w in corpus_lassos(2, 1, 1)]
    assert "0(1)" in listed and "1(0)" in listed
    assert "0(0)" not in listed
    assert listed == ["(0)", "(1)", "0(1)", "1(0)"]


def test_enumeration_with_filter():
    listed = [str(w) for w in corpus_lassos(3, 0, 2, t_lasso)]
    assert "(12)" in listed
    assert "(21)" not in listed
    assert listed == ["(0)", "(1)", "(01)", "(10)", "(12)"]


def test_enumeration_is_canonical_and_duplicate_free():
    listed = list(corpus_lassos(2, 3, 3))
    assert len(listed) == len(set(listed))
    for w in listed:
        assert LassoWord(w.spoke, w.cycle, size=w.size) == w


def test_enumeration_deterministic():
    a = [str(w) for w in corpus_lassos(3, 2, 2)]
    b = [str(w) for w in corpus_lassos(3, 2, 2)]
    assert a == b


def test_enumeration_counts_grow_with_bounds():
    small = set(corpus_lassos(2, 1, 2))
    large = set(corpus_lassos(2, 2, 3))
    assert small < large


def test_random_sampler_is_seeded():
    a = list(random_lassos(3, 50, 4, 4, seed=7))
    b = list(random_lassos(3, 50, 4, 4, seed=7))
    c = list(random_lassos(3, 50, 4, 4, seed=8))
    assert a == b
    assert a != c
    assert len(a) == len(set(a)) == 50
    for w in a:
        assert len(w.spoke) <= 4 and len(w.cycle) <= 4
        assert LassoWord(w.spoke, w.cycle, size=w.size) == w


def test_random_sampler_filter():
    for w in random_lassos(3, 30, 5, 5, seed=3, keep=t_lasso):
        assert t_member(w)


@pytest.mark.parametrize("seed", [20260814, 5])
def test_random_sampler_matches_the_canonicalize_first_reference(seed):
    # the sigma2-main draw: keep on the raw parts gives the list that
    # filtering every canonical LassoWord gave
    got = random_lassos(3, 2000, 8, 8, seed, keep=t_lasso)
    want = filter_after_canonical(3, 2000, 8, 8, seed, keep=t_member)
    assert len(got) == 2000
    assert [(str(w), w.size) for w in got] == [(str(w), w.size) for w in want]


def test_unfiltered_sampler_matches_the_canonicalize_first_reference():
    # the a-omega-decomposition draw
    got = random_lassos(4, 200, 6, 6, 20260814)
    want = filter_after_canonical(4, 200, 6, 6, 20260814)
    assert [(str(w), w.size) for w in got] == [(str(w), w.size) for w in want]


def test_enumeration_filter_on_parts_matches_filtering_the_words():
    got = list(corpus_lassos(3, 4, 4, t_lasso))
    assert got == [w for w in corpus_lassos(3, 4, 4) if t_member(w)]
