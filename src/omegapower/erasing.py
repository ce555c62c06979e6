"""The 3-letter witness language and its erasing map.

T is the set of 3-letter words (and lassos) in which no prefix has more 2s
than 1s.  The erasing map sends a word in T to a binary word: 0 passes
through, 1 is emitted and remembered, and each 2 flips the most recent
unflipped 1 to 0.  So |erase(s)| = n_0(s) + n_1(s), and the map is a
homomorphism on T because a factor in T never reaches across its own left
boundary.

E is the language of nonempty balanced words whose erasure-but-last starts
with a 1; equivalently (the dual characterization) the words that start
with 1, end with 2, are balanced, and keep every interior prefix strictly
positive.  A is {0}, E, and the T-words of length >= 2 that end in 1: these
are the chains (c_0 1)(c_1 1)...(c_k 1) with each c_i a product of
{0}-letters and E-words, the single word "1" excluded (see a3_member).

a3_omega_member decides membership of a lasso in the omega-power of A with
a factor machine whose only unbounded part is the E-depth counter; capping
it at D, the deepest nesting of matched 1-2 pairs in u v v, makes the
search exact, and one bit-parallel sweep of the cycle summarizes the lasso
product at the cycle boundary.
e_preimage_check answers the same question through the erasing map; the
two never consult each other.
"""

from .errors import NotInT, WorkbenchError
from .recurrence import close, recurs
from .verdicts import Member
from .words import FiniteWord, LassoWord, canonical_parts


_LETTERS3 = frozenset((0, 1, 2))


def _letters3(w) -> tuple:
    letters = w.letters if isinstance(w, FiniteWord) else tuple(w)
    try:
        ok = _LETTERS3.issuperset(letters)
    except TypeError:  # an unhashable letter
        ok = False
    if not ok:
        raise WorkbenchError("expected a word over {0,1,2}")
    return letters


def _never_below(letters) -> bool:
    """Whether no prefix of the checked letters has more 2s than 1s."""
    c = 0
    for x in letters:
        if x == 1:
            c += 1
        elif x == 2:
            if not c:
                return False
            c -= 1
    return True


def _erase(letters) -> list:
    """The erasing map on checked letters of a word in T, as a list."""
    emitted = []
    live = []
    for x in letters:
        if x == 0:
            emitted.append(0)
        elif x == 1:
            live.append(len(emitted))
            emitted.append(1)
        else:
            emitted[live.pop()] = 0
    return emitted


def t_keep(u, v) -> bool:
    """t_lasso on tuples or lists of checked letters; the corpus filter of
    sigma2-main, which draws its letters from {0,1,2}."""
    return _never_below(u + v) and v.count(1) >= v.count(2)


def t_lasso(u, v) -> bool:
    """Whether the lasso u(v), given as letter sequences, lies in T: no
    prefix of u v has more 2s than 1s, and the cycle does not lose ground.

    This is exact, so it gives the same answer for every representation of
    the same omega-word: with cycle balance b >= 0, a prefix ending in the
    k-th copy of v counts (k-1) b more than the same place in the first
    copy, and with b < 0 the count eventually goes below 0."""
    return t_keep(_letters3(u), _letters3(v))


def t_member(w) -> bool:
    """No prefix has more 2s than 1s; for lassos additionally the cycle
    cannot lose ground (see t_lasso)."""
    if isinstance(w, LassoWord):
        return t_lasso(w.spoke.letters, w.cycle.letters)
    return _never_below(_letters3(w))


def erase_fin(s: FiniteWord) -> FiniteWord:
    letters = _letters3(s)
    if not _never_below(letters):
        raise NotInT("a 2 arrived with no unflipped 1 to its left")
    return FiniteWord._trusted(tuple(_erase(letters)), 2)


def erase_lasso(a: LassoWord) -> LassoWord:
    """Image of a T-lasso u(v) under the erasing map, as a lasso.

    Two copies of the cycle settle it: erase u v v; the letters emitted
    while reading u, as they stand then, are the head of the image, and
    those emitted while reading the first v are its cycle.

    Lemma.  Only an emitted 1 can change; it flips to 0 when the counter
    (1s minus 2s so far, the height of the stack of unflipped 1s) first
    drops below the height at which it was pushed.  Let c be the counter
    after u, b >= 0 the cycle balance and g <= 0 the lowest counter value
    within one v relative to the value at its start.  The k-th copy of v
    starts at c + (k-1) b and never goes below c + (k-1) b + g, a floor
    that does not fall as k grows.

    - A 1 pushed before the second v and still unflipped after it was not
      undercut during the second v, so its height is at most c + b + g,
      and no later copy goes below that: every letter emitted while
      reading u or the first v is final after u v v.
    - A 1 pushed at offset i of the k-th v sits at c + (k-1) b plus a
      height that depends on v and i alone, and so does every later
      counter value: whether it flips is the same for every k >= 1.

    So the image is the settled letters of u, then those of the first v
    repeated.  The cycle is nonempty: v has at least as many 1s as 2s, so
    at least one letter 0 or 1.
    """
    if not t_member(a):
        raise NotInT(f"{a} has a prefix with more 2s than 1s")
    u, v = a.spoke.letters, a.cycle.letters
    emitted = _erase(u + v + v)
    head = len(u) - u.count(2)
    cycle = emitted[head : head + len(v) - v.count(2)]
    return LassoWord._trusted(*canonical_parts(emitted[:head], cycle), 2)


def e_def_member(s: FiniteWord) -> bool:
    """Defining characterization: s in T, balanced, nonempty, and erasing
    all but the last letter leaves a word starting with 1."""
    letters = _letters3(s)
    if not letters or letters.count(1) != letters.count(2) or not _never_below(letters):
        return False
    # a prefix of a word in T is in T
    return _erase(letters[:-1])[:1] == [1]


def e_counter_member(s: FiniteWord) -> bool:
    """Counter characterization: starts with 1, ends with 2, balanced, and
    every interior prefix keeps n_1 strictly above n_2."""
    letters = _letters3(s)
    if not letters or letters[0] != 1 or letters[-1] != 2:
        return False
    c = 0
    for x in letters[:-1]:
        c += (x == 1) - (x == 2)
        if c <= 0:
            return False
    return c == 1  # the final 2 brings the balance to zero


def a3_member(s: FiniteWord) -> bool:
    """A = {0} union E union the chains (c_0 1)...(c_k 1), c_i in ({0}+E)*,
    excluding the bare word 1; the chains are the T-words of length >= 2
    that end in 1.

    Lemma.  In a word of T, pair each 2 with the latest unmatched 1 before
    it.  A 1 together with everything up to its matching 2 is an E-word,
    because the counter (1s minus 2s) first returns to its level there.  So
    a T-word splits, in exactly one way, into 0s, unmatched 1s and E-words.
    A word is a chain iff it is such a split whose last piece is an
    unmatched 1, i.e. a T-word that ends in 1 (a last letter 1 is always
    unmatched).  A word outside T has a 2 that no piece can hold."""
    letters = _letters3(s)
    return (
        letters == (0,)
        or e_counter_member(letters)
        or (len(letters) > 1 and letters[-1] == 1 and _never_below(letters))
    )


def b2_omega_member(w: LassoWord) -> bool:
    """Binary words other than 1 0^omega."""
    for x in w.spoke.letters + w.cycle.letters:
        if x not in (0, 1):
            raise WorkbenchError("expected a binary lasso")
    return w.spoke.letters != (1,) or w.cycle.letters != (0,)


# ------------------------------------------------------- omega-power of A

def _summaries(letters, cap, lanes):
    """Sweep the factor machine over letters from several controls at once.

    The factor machine for products of A-words has the controls C (between
    words), S (between the (c 1) groups of a chain word) and E(ctx, d)
    (inside an E-factor at depth d, where ctx = c if closing the factor may
    finish an A-word started at C, and ctx = s inside a chain).  Capped at
    depth cap they are numbered 0 = C, 1 = S, 1+d = E(c, d) and cap+1+d =
    E(s, d) for d = 1..cap.

    Lemma.  A run completes an A-word exactly when it enters C: the steps
    into C are C reading 0 (the word 0), S reading 1 (the last group of a
    chain) and E(c, 1) reading 2 (an E-word), and these are the steps that
    finish an A-word.

    Each of the n start controls in lanes owns lanes i and n+i, cap+1 bits
    wide, of four ints C, S, E(c, .) and E(s, .).  Lane i holds every run
    and lane n+i the runs that completed a word: each letter steps all
    lanes alike, then copies C from lane i into lane n+i.  C and S use bit
    0 of a lane; E(ctx, d) uses bit d.  A letter 1 shifts the E ints left
    and the lane mask drops depths above cap; a letter 2 shifts them
    right, and what lands on bit 0 is a closed E-factor.  Returns, per
    start control, the mask of controls reachable after letters and the
    mask of those reachable through a completed word."""
    n = len(lanes)
    w = cap + 1
    half = n * w
    low = ((1 << (2 * half)) - 1) // ((1 << w) - 1)  # bit 0 of every lane
    body = low * ((1 << w) - 2)  # bits 1..cap of every lane
    every = (1 << half) - 1  # the every-run lanes
    c = s = e = f = 0
    for i, x in enumerate(lanes):
        if x == 0:
            c |= 1 << (i * w)
        elif x == 1:
            s |= 1 << (i * w)
        elif x <= w:
            e |= 1 << (i * w + x - 1)
        else:
            f |= 1 << (i * w + x - w)
    for x in letters:
        if x == 0:
            # C stays (the word 0) or opens a chain group; S and E stay
            s |= c
        elif x == 1:
            # C opens E(c, 1) or closes the first group with a bare 1; S
            # closes a group (continuing or finishing the chain) or opens
            # E(s, 1); E goes one deeper
            e = (e << 1 & body) | c << 1
            f = (f << 1 & body) | s << 1
            c, s = s, c | s
        else:
            # C and S die; E goes one shallower, and E(c, 1) closes into C
            # (a finished A-word) or S, E(s, 1) into S
            e >>= 1
            f >>= 1
            c, s = e & low, (e | f) & low
            e &= body
            f &= body
        c |= (c & every) << half
    mask = (1 << w) - 1
    e |= s  # S on bit 0 and E(c, d) on bit d read as controls 1 and 1+d
    rows = []
    for at in range(0, half, w):
        top = at + half
        rows.append((
            (c >> at & 1) | (e >> at & mask) << 1 | (f >> at & mask) << w,
            (c >> top & 1) | (e >> top & mask) << 1 | (f >> top & mask) << w,
        ))
    return rows


def _accepts(u, v, cap):
    """Whether the factor machine, capped at depth cap, has a run on u(v)
    that completes infinitely many words.

    Every cycle of the lasso product passes the first cycle position, so
    the search runs on the 2 cap + 2 controls there: one sweep of v gives,
    for each, the controls it reaches and those it reaches through a
    completed word; recurrence.close closes those rows, and
    recurrence.recurs decides from the controls reachable from the end of
    u."""
    (start, _), = _summaries(u, cap, (0,))
    return recurs(*close(_summaries(v, cap, range(2 * cap + 2))), start)


def _e_depth(u, v) -> int:
    """The depth cap D of a3_omega_member on checked letters, in one pass:
    max(1, the largest drawdown of the counter (1s minus 2s) over u v v)."""
    c = top = d = 0
    for x in u + v + v:
        if x == 1:
            c += 1
            if c > top:
                top = c
        elif x == 2:
            c -= 1
            if top - c > d:
                d = top - c
    return max(1, d)


# the E-depth budget of a3_omega_member when none is given
DEFAULT_BUDGET = 10_000


def a3_omega_member(a: LassoWord, budget: int = DEFAULT_BUDGET) -> Member:
    """Membership of a T-lasso u(v) in the omega-power of A.

    The lasso is in A^omega iff the factor machine (see _summaries) has a
    run on it that completes infinitely many words.  Such a run never goes
    deeper than D = _e_depth(u, v), the largest number of matched 1-2 pairs
    of u v v that enclose one position (each 2 matched with the latest
    unmatched 1 before it):

    - E controls leave only by closing, so in a run with infinitely many
      completions every E-factor closes.  Depth is counted inside one
      E-factor, so it is the most the counter rises above the factor's
      start within it.
    - Let w_i..w_j be an E-factor and c(k) the count of 1s minus 2s in
      w_1..w_k.  Then c(k) > c(i-1) for i <= k < j, and c(j) = c(i-1).
    - For k >= |u|, c(k+|v|) = c(k) + b with cycle balance b >= 0.  So if
      j-|v| >= max(i, |u|+1), then c(j-|v|) <= c(i-1), against the
      positivity of the interior.  Hence j-i+1 <= |v| or j <= |u|+|v|,
      and shifting a factor that starts past u back by whole periods
      (which changes neither its letters nor its counter differences)
      places it inside u v v.
    - Inside u v v the factor's 1s and 2s match among themselves exactly
      as they match in u v v: it is balanced and its counter stays above
      its start, so no 2 in it reaches a 1 before it, and no 1 in it is
      left for a 2 after it.  Its depth at a position is the number of
      its matched pairs enclosing that position, at most D.

    That number is the largest drawdown max(c(p) - c(q), p <= q) of the
    counter over u v v: each of the d levels a drawdown descends was
    pushed by a 1 at or before p and is popped by a 2 after it, so d
    matched pairs enclose position p; and k nested pairs around a position
    descend k levels from it to the outermost 2.  D takes at least 1, so
    the machine keeps its E controls.

    budget bounds the depth: if D exceeds it, the search runs at depth
    max(budget, 1); a YES found there stands, anything else is
    INCONCLUSIVE."""
    if not t_member(a):
        raise NotInT(f"{a} has a prefix with more 2s than 1s")
    u, v = a.spoke.letters, a.cycle.letters
    cap = _e_depth(u, v)
    if cap <= budget:
        return Member.of(_accepts(u, v, cap))
    return Member.YES if _accepts(u, v, max(budget, 1)) else Member.INCONCLUSIVE


def e_preimage_check(a: LassoWord, budget: int = None) -> Member:
    """The same omega-power question answered through the erasing map: the
    image must be a binary word other than 1 0^omega.  erase_lasso checks
    that a is in T.

    The budget is ignored: erase_lasso settles every T-lasso in two
    cycles, so this route always decides.  It stays only because the
    benchmark's QueryMix.other_route passes the CLI budget positionally;
    it goes once that call stops passing it."""
    return Member.of(b2_omega_member(erase_lasso(a)))
