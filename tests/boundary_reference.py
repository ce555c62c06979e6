"""Boundary-closure reference for transition-system lasso acceptance.

Kept with the tests: the shipped deciders are rtree.ts_lasso_witness, which
hands the cycle-only product of each (tree, cycle, entry state) to the
accepting-cycle search lasso.accepting_lasso, and
construction.pi_omega_knj_member, whose bit-lane summaries per (tree, cycle)
recurrence.close closes; both keep those per-cycle answers across calls.
This is a third, set-based way to the same answer that shares no code with
either and keeps nothing between calls: it walks r.delta by definition
through tree_reference.step and run_pair, the only delta walker, never the
compiled codes both deciders read.
"""

from omegapower import pairs
from omegapower.words import LassoWord

from tree_reference import run_pair, step


def matrix_lasso_accepts(r, start: int, alpha: LassoWord) -> bool:
    """Transition-system lasso acceptance by boolean closure over tree
    states at cycle boundaries: C is plain one-cycle reachability, A is
    one-cycle reachability seeing an accepting hit, and acceptance means
    some boundary state reachable after the spoke sits on a C*AC* loop."""
    u, v = alpha.spoke.letters, alpha.cycle.letters
    boundary = {run_pair(r, pairs.q_of_index(start))}
    for a in u:
        boundary = {step(r, s, b, a) for s in boundary for b in (0, 1)}
    reach = {}
    hit_reach = {}
    for s0 in r.states:
        frontier = {(s0, False)}
        for a in v:
            nxt = set()
            for s, h in frontier:
                for b in (0, 1):
                    s2 = step(r, s, b, a)
                    nxt.add((s2, h or (b == 1 and s2 in r.live)))
            frontier = nxt
        reach[s0] = {s for s, _ in frontier}
        hit_reach[s0] = {s for s, h in frontier if h}

    def closure(relation):
        out = {}
        for s in r.states:
            seen = {s}
            stack = [s]
            while stack:
                x = stack.pop()
                for y in relation[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            out[s] = seen
        return out

    def compose(ma, mb):
        return {s: {y for t in ma[s] for y in mb[t]} for s in r.states}

    c = closure(reach)
    h = compose(compose(c, hit_reach), c)
    return any(t in h[t] for s in boundary for t in c[s])
