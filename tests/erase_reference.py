"""Prefix-stabilization reference for the erase image of a lasso.

Kept with the tests: erasing.erase_lasso computes the image of a T-lasso
exactly, as a lasso; this erases two finite prefixes of different depth
with erasing.erase_fin and keeps the positions on which they agree.
"""

from omegapower.erasing import erase_fin
from omegapower.words import FiniteWord, LassoWord, prefix


def stabilized_erase_prefix(a: LassoWord, depth: int) -> FiniteWord:
    """Stabilized prefix of the erase image of a T-lasso: erase two prefix
    depths directly and keep the positions on which they agree."""
    e1 = erase_fin(prefix(a, depth))
    e2 = erase_fin(prefix(a, 3 * depth))
    keep = 0
    while keep < len(e1) and keep < len(e2) and e1.letters[keep] == e2.letters[keep]:
        keep += 1
    return FiniteWord(e1.letters[:keep], 2)
