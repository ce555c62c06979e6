"""References for the erase image of a lasso.

Kept with the tests: erasing.erase_lasso computes the image of a T-lasso
exactly, as a lasso, from two copies of its cycle.  Two references check
it: erasing two finite prefixes of different depth with erasing.erase_fin
and keeping the positions on which they agree, and the cycle-by-cycle loop
that erase_lasso once ran until a reduced boundary state repeated.
"""

from omegapower.erasing import erase_fin
from omegapower.words import FiniteWord, LassoWord, canonical_parts, prefix


def stabilized_erase_prefix(a: LassoWord, depth: int) -> FiniteWord:
    """Stabilized prefix of the erase image of a T-lasso: erase two prefix
    depths directly and keep the positions on which they agree."""
    e1 = erase_fin(prefix(a, depth))
    e2 = erase_fin(prefix(a, 3 * depth))
    keep = 0
    while keep < len(e1) and keep < len(e2) and e1.letters[keep] == e2.letters[keep]:
        keep += 1
    return FiniteWord(e1.letters[:keep], 2)


def erase_lasso_within(a: LassoWord, budget: int):
    """Image of a T-lasso u(v) by the boundary-state loop, or None if no
    state repeats within budget cycles.

    Simulates cycle by cycle with a reduced boundary state: 1s deep enough
    that the future counter can never reach them are frozen and flushed,
    so the pending window stays bounded and a boundary state repeats; the
    flushed output between two visits of the same state is the cycle of
    the image."""
    u = a.spoke.letters
    v = a.cycle.letters
    # worst future dip of the running counter over one cycle; nonnegative
    # cycle balance means later cycles never dip lower
    g = 0
    fdip = 0
    for x in v:
        g += (x == 1) - (x == 2)
        fdip = min(fdip, g)

    out = []
    pending = []  # emitted letters not yet safe to flush
    live = []  # indices into pending with unflipped 1s
    frozen = 0  # unflipped 1s already flushed as permanent

    def feed(x):
        if x == 0:
            pending.append(0)
        elif x == 1:
            live.append(len(pending))
            pending.append(1)
        else:
            pending[live.pop()] = 0

    def boundary():
        nonlocal frozen, live, pending
        c = frozen + len(live)
        threshold = c + fdip  # stack depths <= threshold can never pop again
        keep = 0
        while keep < len(live) and frozen + keep + 1 <= threshold:
            keep += 1
        frozen += keep
        live = live[keep:]
        cut = live[0] if live else len(pending)
        if cut:
            out.extend(pending[:cut])
            pending = pending[cut:]
            live = [i - cut for i in live]
        return (tuple(pending), tuple(live))

    for x in u:
        feed(x)
    seen = {boundary(): len(out)}
    for _ in range(budget):
        for x in v:
            feed(x)
        key = boundary()
        if key in seen:
            mark = seen[key]
            return LassoWord(*canonical_parts(out[:mark], out[mark:]), size=2)
        seen[key] = len(out)
    return None
