"""Two-probe reference for the suitability check of the classification map.

Kept with the tests: construction.is_suitable builds one trusted probe with
block letter 0 and relies on mu-membership ignoring block letters; this is
the definition read literally, with one range-checked probe word per block
letter m in {0, 1}.
"""

from omegapower import pairs
from omegapower.construction import mu_member
from omegapower.errors import WorkbenchError
from omegapower.words import FiniteWord


def two_probe_is_suitable(t, s_len: int, j: int) -> bool:
    """(t, S, j) is suitable iff S respects the address bound when t is
    empty, t is a mu-word ending with 3 otherwise, and t 2^S m 2^{M_{j+1}} 3
    is outside mu for both block letters m."""
    if s_len < 0 or j < 0:
        raise WorkbenchError("S and j must be nonnegative")
    if t is None:
        t = FiniteWord((), 4)
    if len(t) == 0:
        if s_len > pairs.m_offset(j):
            return False
    else:
        if not mu_member(t):
            return False
        if t.letters[-1] != 3:
            return False
    run = pairs.m_offset(j + 1)
    for m in (0, 1):
        probe = FiniteWord(t.letters + (2,) * s_len + (m,) + (2,) * run + (3,), 4)
        if mu_member(probe):
            return False
    return True
