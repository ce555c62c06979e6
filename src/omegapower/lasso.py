"""The accepting-cycle search of the route-B lasso deciders.

automata.lasso_accepts (a Buchi product over lasso positions, once per
call), rtree.ts_lasso_witness (a tree product under guessed bits, once per
tree, cycle and entry state, answers kept across calls) and
oracles.omega_factor_evidence (the factor-cut graph of a lasso, once per
call) each ask if a cycle through a hit edge is reachable in a finite
graph.  It is iff some reachable strongly connected component holds a hit
edge, which one pass of Tarjan's algorithm (SIAM J. Comput. 1972) decides
in linear time.  The route-A lasso deciders a3_omega_member and
pi_omega_knj_member close boundary summaries in recurrence.py instead; no
route-A decider reaches this search (tests/test_lasso.py).
"""


def accepting_lasso(root, step):
    """(prefix, loop) label lists of a walk from root into a cycle through a
    hit edge, or None if there is none.  step(node) lists node's out-edges
    as (target, label, hit) and is called once per explored node.

    The pass stops at the first hit edge src -> target whose target is still
    on Tarjan's stack when the edge is examined, as it then lies inside
    src's component.  prefix is the depth-first path from root to src; loop
    starts with the hit edge and returns to src by breadth-first search over
    the explored nodes."""
    index, low, done, stack = {root: 0}, {root: 0}, set(), [root]
    out = {root: step(root)}

    def labels(source, goal):
        back, queue = {source: None}, [source]
        for node in queue:
            if node == goal:
                break
            for target, label, _ in out[node]:
                if target in out and target not in back:
                    back[target] = (node, label)
                    queue.append(target)
        walk = []
        while back[goal] is not None:
            goal, label = back[goal]
            walk.append(label)
        return walk[::-1]

    # frames: (node, its unexamined out-edges, the tree edge into it)
    path = [(root, iter(out[root]), None)]
    while path:
        node, edges, entry = path[-1]
        for edge in edges:
            target, label, hit = edge
            if target not in index:
                index[target] = low[target] = len(index)
                stack.append(target)
                out[target] = step(target)
                path.append((target, iter(out[target]), edge))
                break
            if target not in done:
                if hit:
                    return [e[1] for _, _, e in path[1:]], [label] + labels(target, node)
                if index[target] < low[node]:
                    low[node] = index[target]
        else:
            path.pop()
            if low[node] == index[node]:
                while stack[-1] != node:
                    done.add(stack.pop())
                done.add(stack.pop())
            else:
                # the root keeps low 0 == index 0, so it pops as a component
                # root; every other node pops with its parent on the path
                src = path[-1][0]
                target, label, hit = entry
                if hit:
                    return [e[1] for _, _, e in path[1:]], [label] + labels(target, src)
                if low[node] < low[src]:
                    low[src] = low[node]
    return None
