"""Recurrence on one-period boundary summaries: the closing half of the
route-A lasso deciders.

erasing.a3_omega_member (the factor machine of A^omega) and
construction.pi_omega_knj_member (the tree under guessed bits) sweep one
period of a lasso's cycle and get, per boundary node i, a summary rows[i] =
(reach, marked): the bitmask of nodes one period away, and of those reached
through a marked edge.  Every cycle of the lasso product passes the first
cycle position, so whether a run from the nodes in start passes marked
edges infinitely often is read off these rows: close(rows) once, then
recurs(reach, good, start) for any start.  The route-B deciders search
their products with lasso.accepting_lasso instead and share nothing here.
"""


def _warshall(rows):
    """Transitive closure of a graph given as bitmask rows: bit j of rows[i]
    is an edge i -> j (Warshall, JACM 1962).  Closes rows in place."""
    for k, row in enumerate(rows):
        bit = 1 << k
        for i, r in enumerate(rows):
            if r & bit:
                rows[i] = r | row
    return rows


def _star(reach, mask):
    """The nodes in mask together with every node the closed rows reach
    from them."""
    out = mask
    while mask:
        y = (mask & -mask).bit_length() - 1
        out |= reach[y]
        mask &= mask - 1
    return out


def close(rows):
    """(reach, good) for the summaries rows: reach[i] is the mask of nodes
    one or more periods away from i, and bit x of good is set iff x reaches
    itself through a marked summary, that is iff a node of marked_x is x
    or reaches x."""
    reach = _warshall([r for r, _ in rows])
    good = 0
    for x, (_, marked) in enumerate(rows):
        if _star(reach, marked) >> x & 1:
            good |= 1 << x
    return reach, good


def recurs(reach, good, start) -> bool:
    """Whether a run from the nodes in the bitmask start passes marked edges
    infinitely often: a node reachable from start is good.  A run that
    does is eventually confined to one strongly connected part and passes
    marked summaries there; conversely a good node's loop repeats."""
    return bool(_star(reach, start) & good)
