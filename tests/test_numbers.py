"""The number rules: every count, index, bound, budget, alphabet size and
bit the package takes is refused with a WorkbenchError unless it has its
type.  A count is an int, not a bool, that is at least 0; an alphabet size
is an int from 2 to 4; a bit is the int 0 or 1; a seed is an int of either
sign."""

import pytest

from omegapower import (
    FiniteWord,
    KnjAddress,
    KnjEncodedWord,
    LassoWord,
    QPair,
    WorkbenchError,
    a3_omega_member,
    corpus_lassos,
    full_tree,
    is_suitable,
    m_index,
    m_offset,
    parse_word_literal,
    prefix,
    q_of_index,
    random_lassos,
    run_suite,
    successors,
    ts_lasso_accepts,
    ts_replay,
)

BAD = (True, 2.0, 2.5, -1, "3", None)

ONE = LassoWord("", "1")
LASSO = LassoWord("1", "0")
CARRIER = KnjEncodedWord(0, 1, ONE)
WITNESS = {"start_index": 0, "prefix": [], "loop": [1]}

# (name, call on the value); a parameter whose documented default is None
# takes None as "use the default", so its row leaves None out.  The budgets
# of a_omega_member and e_preimage_check are ignored and have no row.
ROWS = [
    ("m_offset", lambda x: m_offset(x)),
    ("m_index", lambda x: m_index(x)),
    ("q_of_index", lambda x: q_of_index(x)),
    ("successors index", lambda x: successors(x, 0)),
    ("successors bit", lambda x: successors(0, x)),
    ("QPair beta bit", lambda x: QPair((x,), (0,))),
    ("QPair alpha bit", lambda x: QPair((0,), (x,))),
    ("FiniteWord size", lambda x: FiniteWord((1,), x)),
    ("LassoWord size", lambda x: LassoWord((), (1,), x)),
    ("KnjEncodedWord N", lambda x: KnjEncodedWord(x, 1, ONE)),
    ("KnjEncodedWord j", lambda x: KnjEncodedWord(0, x, ONE)),
    ("KnjAddress N", lambda x: KnjAddress(x, 1)),
    ("KnjAddress j", lambda x: KnjAddress(0, x)),
    ("prefix of a lasso", lambda x: prefix(LASSO, x)),
    ("prefix of a carrier", lambda x: prefix(CARRIER, x)),
    ("LassoWord.prefix", lambda x: LASSO.prefix(x)),
    ("LassoWord.letter_at", lambda x: LASSO.letter_at(x)),
    ("KnjEncodedWord.prefix", lambda x: CARRIER.prefix(x)),
    ("KnjEncodedWord.block_run", lambda x: CARRIER.block_run(x)),
    ("is_suitable S", lambda x: is_suitable(None, x, 0)),
    ("is_suitable j", lambda x: is_suitable(None, 0, x)),
    ("a3_omega_member budget", lambda x: a3_omega_member(LassoWord("", "12"), x)),
    ("parse_word_literal size", lambda x: parse_word_literal("K[0,0](1)", x)),
    ("corpus_lassos size", lambda x: list(corpus_lassos(x, 1, 1))),
    ("corpus_lassos max_spoke", lambda x: list(corpus_lassos(2, x, 1))),
    ("corpus_lassos max_cycle", lambda x: list(corpus_lassos(2, 1, x))),
    ("random_lassos size", lambda x: random_lassos(x, 2, 1, 1, 0)),
    ("random_lassos count", lambda x: random_lassos(2, x, 1, 1, 0)),
    ("random_lassos max_spoke", lambda x: random_lassos(2, 2, x, 1, 0)),
    ("random_lassos max_cycle", lambda x: random_lassos(2, 2, 1, x, 0)),
    ("ts_lasso_accepts start", lambda x: ts_lasso_accepts(full_tree(), x, ONE)),
    ("ts_replay start", lambda x: ts_replay(full_tree(), x, ONE, dict(WITNESS, start_index=x))),
    ("state_of_index", lambda x: full_tree().state_of_index(x)),
    ("run_suite bound", lambda x: run_suite("knj-roundtrip", bound=x)),
    ("run_suite budget", lambda x: run_suite("sigma2-main", bound=0, budget=x)),
]

NONE_IS_DEFAULT = {"FiniteWord size", "LassoWord size", "run_suite bound", "run_suite budget"}


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("name, call", ROWS, ids=[name for name, _ in ROWS])
def test_every_number_parameter_refuses_what_is_not_its_type(name, call, value):
    if value is None and name in NONE_IS_DEFAULT:
        call(value)
    elif value == -1 and name == "m_index":
        # no block offset is negative: a negative int is an answer, not an error
        assert call(value) is None
    else:
        with pytest.raises(WorkbenchError):
            call(value)


@pytest.mark.parametrize("value", [True, 2.0, 2.5, "3", None], ids=repr)
def test_a_seed_is_an_int_of_either_sign(value):
    if value is not None:  # run_suite takes seed=None as its default seed
        with pytest.raises(WorkbenchError, match="seed"):
            run_suite("a-omega-decomposition", bound=0, seed=value)
    with pytest.raises(WorkbenchError, match="seed"):
        random_lassos(2, 2, 1, 1, value)


def test_a_negative_seed_is_a_seed():
    assert run_suite("a-omega-decomposition", bound=0, seed=-5).parameters["seed"] == -5
    assert random_lassos(2, 2, 1, 1, -5) == random_lassos(2, 2, 1, 1, -5)


@pytest.mark.parametrize("size", [0, 1, 5], ids=repr)
def test_an_alphabet_size_is_two_to_four(size):
    for call in (
        lambda: FiniteWord((), size),
        lambda: parse_word_literal("1(0)", size),
        lambda: list(corpus_lassos(size, 0, 1)),
        lambda: random_lassos(size, 2, 1, 1, 0),
    ):
        with pytest.raises(WorkbenchError, match="unsupported alphabet size"):
            call()


def test_the_rule_keeps_its_words_and_answers():
    # the messages that callers match, and the answers on valid input
    with pytest.raises(WorkbenchError, match="nonnegative"):
        LASSO.prefix(-1)
    with pytest.raises(WorkbenchError, match="unsupported alphabet size True"):
        parse_word_literal("1(0)", True)
    with pytest.raises(WorkbenchError, match="a negative int"):
        m_offset(-(10**5000))
    assert m_offset(2) == 20 and m_index(20) == 2 and m_index(-3) is None
    assert CARRIER.block_run(0) == m_offset(2) and LASSO.letter_at(5) == 0
    assert successors(1, 0) == frozenset({5, 9})
