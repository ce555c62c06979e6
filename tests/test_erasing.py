"""The 3-letter tree language T, the erasing map, the balanced language E
with its two characterizations, the star-shaped language over {0} and E,
and the omega-power deciders."""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegapower import (
    FiniteWord,
    FiniteWord as word,
    LassoWord,
    Member,
    NotInT,
    WorkbenchError,
    a3_member,
    a3_omega_member,
    b2_omega_member,
    corpus_lassos,
    e_counter_member,
    e_def_member,
    e_preimage_check,
    erase_fin,
    erase_lasso,
    t_lasso,
    t_member,
)
from omegapower.erasing import _accepts, _e_depth, _summaries
from omegapower.recurrence import _warshall

from erase_reference import erase_lasso_within, stabilized_erase_prefix


def lasso(text):
    spoke, _, cyc = text.partition("(")
    return LassoWord(spoke, cyc.rstrip(")"), size=3)


def words3(bound):
    for n in range(bound + 1):
        yield from itertools.product((0, 1, 2), repeat=n)


def test_t_member_finite():
    assert t_member(word("12", 3))
    assert not t_member(word("21", 3))
    assert t_member(word("", 3))
    assert t_member(word("1122", 3))
    assert not t_member(word("1221", 3))


def test_t_member_lasso():
    assert t_member(lasso("1(12)"))
    assert t_member(lasso("(1122)"))
    assert not t_member(lasso("(21)"))
    assert not t_member(lasso("1(2)"))  # cycle balance dips eventually
    assert t_member(lasso("1(0)"))


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(
    st.lists(st.sampled_from((0, 1, 2)), max_size=8),
    st.lists(st.sampled_from((0, 1, 2)), min_size=1, max_size=8),
    st.integers(0, 8),
    st.integers(1, 3),
)
def test_t_is_a_property_of_the_omega_word(u, v, k, r):
    # the spoke may swallow k cycle letters (rotating the cycle) and the
    # cycle may repeat r times; none of that changes the word, so none of
    # it may change the parts predicate
    k %= len(v) + 1
    w = LassoWord(u, v, size=3)
    # the finite route on a prefix of the canonical word, which covers its
    # spoke and its cycle, plus the cycle balance
    n = len(w.spoke) + len(w.cycle)
    want = t_member(w.prefix(n)) and w.cycle.letters.count(1) >= w.cycle.letters.count(2)
    representations = [(u, v), (u + v[:k], v[k:] + v[:k]), (u, v * r)]
    for spoke, cycle in representations:
        assert LassoWord(spoke, cycle, size=3) == w
        assert t_lasso(spoke, cycle) is want, (spoke, cycle)
    assert t_member(w) is want


def test_t_lasso_rejects_letters_outside_the_alphabet():
    for u, v in [((), (3,)), ((0, 3), (1,)), ((-1,), (0,))]:
        with pytest.raises(WorkbenchError):
            t_lasso(u, v)


def test_erase_finite_frozen():
    assert erase_fin(word("12", 3)) == word("0", 2)
    assert erase_fin(word("112", 3)) == word("10", 2)
    assert erase_fin(word("", 3)) == word("", 2)
    assert erase_fin(word("0", 3)) == word("0", 2)
    assert erase_fin(word("11", 3)) == word("11", 2)
    with pytest.raises(NotInT):
        erase_fin(word("21", 3))


def test_erase_length_law():
    for tup in words3(10):
        s = FiniteWord(tup, 3)
        if t_member(s):
            out = erase_fin(s)
            assert len(out) == s.letters.count(0) + s.letters.count(1)


def test_erase_outside_t_raises():
    for letters in ((2,), (1, 2, 2)):
        with pytest.raises(NotInT):
            erase_fin(letters)
        with pytest.raises(NotInT):
            erase_fin(word(letters, 3))


def t_lasso_spoke(w):
    return t_lasso(w, (0,))


def t_lasso_cycle(w):
    return t_lasso((), w)


@pytest.mark.parametrize("letters", [(0, 3), (-1,), ("1",), ([1],), (1, 2, 3)])
@pytest.mark.parametrize(
    "decider",
    [t_member, erase_fin, e_def_member, e_counter_member, t_lasso_spoke, t_lasso_cycle, a3_member],
)
def test_letters_outside_the_alphabet_are_rejected(decider, letters):
    forms = [letters, list(letters), (x for x in letters)]
    if all(x in range(4) for x in letters):
        forms.append(FiniteWord(letters, 4))
    for w in forms:
        with pytest.raises(WorkbenchError):
            decider(w)


def test_deciders_read_any_letter_sequence():
    # a generator is read once, so a decider must not read its argument twice
    for tup in words3(5):
        for decider in (t_member, e_def_member, e_counter_member, a3_member):
            want = decider(FiniteWord(tup, 3))
            assert decider(tup) == decider(list(tup)) == decider(iter(tup)) == want, tup
        if t_member(tup):
            assert erase_fin(iter(tup)) == erase_fin(tup)


def test_erase_homomorphism_small():
    pool = [FiniteWord(t, 3) for t in words3(5) if t_member(FiniteWord(t, 3))]
    for s in pool:
        for t in pool:
            joined = erase_fin(s).letters + erase_fin(t).letters
            assert erase_fin(FiniteWord(s.letters + t.letters, 3)) == FiniteWord(joined, 2)


def test_erase_lasso_frozen():
    assert erase_lasso(lasso("1(12)")) == LassoWord("1", "0", size=2)
    assert erase_lasso(lasso("(1122)")) == LassoWord("", "0", size=2)
    assert erase_lasso(lasso("(1)")) == LassoWord("", "1", size=2)
    with pytest.raises(NotInT):
        erase_lasso(lasso("(21)"))


def test_erase_lasso_closes_within_two_cycles():
    # the boundary-state loop needs exactly two cycles on 1(210)
    w = lasso("1(210)")
    assert erase_lasso_within(w, 1) is None
    assert erase_lasso_within(w, 2) == erase_lasso(w) == LassoWord("", "0", size=2)
    # every T-lasso with |u| <= 4 and 1 <= |v| <= 4, as written
    cases = [
        LassoWord(u, v, size=3)
        for u in words3(4)
        for v in words3(4)
        if v and t_lasso(u, v)
    ]
    assert len(cases) == 3840
    for w in cases:
        assert erase_lasso_within(w, 2) == erase_lasso(w), str(w)


def test_erase_lasso_matches_stabilized_prefixes():
    for w in corpus_lassos(3, 3, 4, t_lasso):
        image = erase_lasso(w)
        stable = stabilized_erase_prefix(w, 48)
        assert image.prefix(len(stable)) == stable


def test_e_frozen():
    assert e_def_member(word("12", 3))
    assert e_def_member(word("1122", 3))
    assert not e_def_member(word("0", 3))
    assert not e_def_member(word("", 3))
    assert e_counter_member(word("12", 3))
    assert not e_counter_member(word("1212", 3))
    assert e_counter_member(word("1122", 3))
    assert not e_def_member(word("1212", 3))


def test_e_characterizations_agree():
    for tup in words3(9):
        s = FiniteWord(tup, 3)
        assert e_def_member(s) == e_counter_member(s), str(s)


def test_e_words_start_one_end_two():
    for tup in words3(12):
        if e_counter_member(tup):
            assert tup and tup[0] == 1 and tup[-1] == 2


def test_a3_frozen():
    assert a3_member(word("0", 3))
    assert a3_member(word("11", 3))
    assert not a3_member(word("1", 3))
    assert a3_member(word("12", 3))  # an E-word
    assert not a3_member(word("", 3))
    assert not a3_member(word("2", 3))


def test_a3_composition():
    # prefixing a ({0} u E)* word onto a concatenation-shaped member stays
    # inside the language
    assert a3_member(word("01211", 3))
    assert a3_member(word("1122011", 3))
    assert a3_member(word("112201", 3))
    assert a3_member(word("011", 3))


@lru_cache(maxsize=None)
def _a3_segments(t):
    # t splits into {0} and E factors
    if not t:
        return True
    if t[0] == 0 and _a3_segments(t[1:]):
        return True
    return any(
        e_counter_member(FiniteWord(t[:k], 3)) and _a3_segments(t[k:])
        for k in range(2, len(t) + 1)
    )


@lru_cache(maxsize=None)
def _a3_groups(t):
    # t splits into one or more factors c 1 with c in ({0} u E)*
    if not t:
        return False
    return any(
        t[k] == 1 and _a3_segments(t[:k]) and (k + 1 == len(t) or _a3_groups(t[k + 1 :]))
        for k in range(len(t))
    )


def a3_reference(t):
    """A3 read off its definition by trying every split of t."""
    if t == (0,):
        return True
    if t and e_counter_member(FiniteWord(t, 3)):
        return True
    # a single bare 1 is excluded by the side condition
    return bool(t) and t != (1,) and _a3_groups(t)


def test_a3_matches_naive_reference():
    for tup in words3(9):
        assert a3_member(FiniteWord(tup, 3)) == a3_reference(tup), str(tup)


@st.composite
def words_half_in_t(draw):
    """Words over {0,1,2} of 10 to 40 letters; half of them are repaired
    into T: a 2 that would take the counter below 0 becomes a 1."""
    t = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=10, max_size=40))
    if draw(st.booleans()):
        c = 0
        for k, x in enumerate(t):
            if x == 2 and c == 0:
                t[k] = x = 1
            c += (x == 1) - (x == 2)
    return tuple(t)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(words_half_in_t())
def test_a3_matches_naive_reference_past_the_exhaustive_range(t):
    assert a3_member(FiniteWord(t, 3)) == a3_reference(t)


def test_b2_frozen():
    assert not b2_omega_member(LassoWord("1", "0", size=2))
    assert b2_omega_member(LassoWord("", "0", size=2))
    assert b2_omega_member(LassoWord("", "10", size=2))
    assert b2_omega_member(LassoWord("11", "0", size=2))
    with pytest.raises(WorkbenchError):
        b2_omega_member(LassoWord("", "2", size=3))


def test_a3_omega_frozen():
    assert a3_omega_member(lasso("(0)")) is Member.YES
    assert a3_omega_member(lasso("(1122)")) is Member.YES
    assert a3_omega_member(lasso("1(12)")) is Member.NO
    assert a3_omega_member(lasso("(1)")) is Member.YES
    with pytest.raises(NotInT):
        a3_omega_member(lasso("(2)"))


def test_a3_omega_budget_exhaustion_is_honest():
    assert a3_omega_member(lasso("(1122)"), budget=1) is Member.INCONCLUSIVE
    assert a3_omega_member(lasso("(1122)"), budget=2) is Member.YES


def test_a3_omega_budget_binds_only_past_the_bracket_depth():
    # 4,000 letters but no matched pair inside another: depth 1 decides
    # it, where the length cap (|u|+|v|) // 2 = 2000 left it inconclusive
    assert _e_depth((1,), (1, 2) * 1999 + (0,)) == 1
    assert a3_omega_member(lasso("1(" + "12" * 1999 + "0)"), budget=10) is Member.NO


def _machine_steps(ctrl, letter):
    """Set-based reference for the factor machine over products of A-words.

    Controls: C between words, S between the (c 1) groups of a chain word,
    (E, ctx, d) inside an E-factor at depth d, where ctx records whether
    finishing the factor may close an A-word (started at C) or only a
    group (started inside a chain).  Yields (ctrl', word_completed)."""
    kind = ctrl[0]
    if kind == "C":
        if letter == 0:
            yield ("C",), True  # the word 0
            yield ("S",), False  # 0 opens a chain group
        elif letter == 1:
            yield ("E", "c", 1), False  # E-word as the whole A-word, or its head
            yield ("S",), False  # bare 1 closes the first chain group
    elif kind == "S":
        if letter == 0:
            yield ("S",), False
        elif letter == 1:
            yield ("S",), False  # group closed, chain continues
            yield ("C",), True  # group closed, chain word complete
            yield ("E", "s", 1), False
    else:
        _, ctx, d = ctrl
        if letter == 0:
            yield ctrl, False
        elif letter == 1:
            yield ("E", ctx, d + 1), False
        else:
            if d > 1:
                yield ("E", ctx, d - 1), False
            elif ctx == "c":
                yield ("C",), True  # the E-word was a whole A-word
                yield ("S",), False  # ... or the head of a chain group
            else:
                yield ("S",), False


def _control(i, cap):
    if i < 2:
        return (("C",), ("S",))[i]
    if i <= cap + 1:
        return ("E", "c", i - 1)
    return ("E", "s", i - cap - 1)


@pytest.mark.parametrize("cap", [1, 2, 3, 5])
def test_lane_sweep_matches_the_set_machine(cap):
    # one lane per control up to depth cap, swept together, must give the
    # set image of the reference machine with depths above cap dropped;
    # words of length 1 check the lane step of each letter
    nodes = range(2 * cap + 2)
    index = {_control(i, cap): i for i in nodes}
    for n in range(1, 5):
        for letters in itertools.product((0, 1, 2), repeat=n):
            rows = _summaries(letters, cap, nodes)
            for x in nodes:
                runs = {(_control(x, cap), False)}
                for letter in letters:
                    runs = {
                        (nxt, done or completed)
                        for ctrl, done in runs
                        for nxt, completed in _machine_steps(ctrl, letter)
                        if nxt in index
                    }
                reach = sum({1 << index[c] for c, _ in runs})
                done = sum({1 << index[c] for c, d in runs if d})
                assert rows[x] == (reach, done), (letters, x)


def test_a_step_completes_a_word_exactly_when_it_enters_c():
    # the lemma behind _summaries' completed lanes, which copy C alone
    for i in range(2 * 5 + 2):
        for letter in (0, 1, 2):
            for nxt, completed in _machine_steps(_control(i, 5), letter):
                assert completed == (nxt == ("C",)), (_control(i, 5), letter, nxt)


def test_warshall_closes_long_cycles():
    # no T-lasso is known whose verdict needs a boundary path of more than
    # two steps, so the closure is pinned on graphs of its own
    assert _warshall([0b0010, 0b0100, 0b1000, 0b0001]) == [0b1111] * 4
    assert _warshall([0b0010, 0b0100, 0b1000, 0]) == [0b1110, 0b1100, 0b1000, 0]
    assert _warshall([0b10, 0b10]) == [0b10, 0b10]


def test_depth_cap_is_complete():
    # the docstring's cap D, the bracket depth of u v v, loses no run:
    # eight more levels, or the length cap max(1, (|u|+|v|) // 2) that D
    # replaced, change no verdict
    for w in corpus_lassos(3, 4, 4, t_lasso):
        u, v = w.spoke.letters, w.cycle.letters
        d = _e_depth(u, v)
        want = _accepts(u, v, d)
        assert _accepts(u, v, d + 8) == want, str(w)
        assert _accepts(u, v, max(1, (len(u) + len(v)) // 2)) == want, str(w)


def _holding_ground(u, v):
    """The lasso u(v) after the last 2s of a cycle that loses ground (more
    2s than 1s) become 1s."""
    for k in reversed(range(len(v))):
        if v.count(1) >= v.count(2):
            break
        if v[k] == 2:
            v[k] = 1
    return LassoWord(u, v, size=3)


@st.composite
def t_lassos(draw):
    """Lassos over {0,1,2} with |u|, |v| <= 24, repaired into T: a 2 that
    would take the counter below 0 becomes a 1, and so do the last 2s of a
    cycle that loses ground; half of them start with a 1, where the only NO
    answers live."""
    def letters(least):
        n = draw(st.integers(least, 24))
        return draw(st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n))

    u = letters(0)
    v = letters(1)
    if draw(st.booleans()):
        u = [1] + u[:23]
    c = 0
    word = u + v
    for k, x in enumerate(word):
        if x == 2 and c == 0:
            word[k] = x = 1
        c += (x == 1) - (x == 2)
    u, v = word[: len(u)], word[len(u) :]
    return _holding_ground(u, v)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(t_lassos())
def test_a3_omega_agrees_with_the_erased_image(w):
    assert t_member(w)
    assert a3_omega_member(w) is e_preimage_check(w)


@st.composite
def nested_t_lassos(draw):
    """T-lassos of at most 40 letters made of runs of 1s closed by runs of
    2s (a run of k 1s by k, k-1 or k-2 2s, or by none), with 0, 12 or 01
    inside each, so matched pairs nest deeply; the cycle is repaired by
    _holding_ground."""
    word = []
    for k, short, inner in draw(
        st.lists(
            st.tuples(
                st.integers(1, 8),
                st.sampled_from((0, 0, 0, 1, 2, 8)),
                st.sampled_from(((), (0,), (1, 2), (0, 1))),
            ),
            min_size=1,
            max_size=6,
        )
    ):
        word += [1] * k + list(inner) + [2] * max(0, k - short)
    word = word[:40]
    cut = draw(st.integers(0, len(word) - 1))
    return _holding_ground(word[:cut], word[cut:])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(nested_t_lassos())
def test_a3_omega_at_the_bracket_depth_agrees_with_the_erased_image(w):
    assert t_member(w)
    assert a3_omega_member(w) is e_preimage_check(w)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(t_lassos())
def test_erase_lasso_agrees_with_stabilized_prefixes(w):
    # erasing u v v settles every letter emitted before the second v, so
    # the stable prefix covers the image's spoke and one turn of its cycle
    image = erase_lasso(w)
    stable = stabilized_erase_prefix(w, len(w.spoke) + 2 * len(w.cycle))
    assert len(stable) >= len(image.spoke) + len(image.cycle)
    assert image.prefix(len(stable)) == stable


def test_e_preimage_frozen():
    assert e_preimage_check(lasso("(1122)")) is Member.YES
    assert e_preimage_check(lasso("1(12)")) is Member.NO
    assert e_preimage_check(lasso("(1)")) is Member.YES


def test_main_identity_small_corpus():
    for w in corpus_lassos(3, 2, 4, t_lasso):
        got = a3_omega_member(w)
        want = e_preimage_check(w)
        if Member.INCONCLUSIVE in (got, want):
            continue
        assert got is want, str(w)
