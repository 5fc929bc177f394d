"""A fixed amount of pure-Python work, used to measure machine speed.

On a shared virtual machine the CPU speed a process sees can drift by
tens of percent within a minute, so the benchmark runs this program
between timed children and scales each child's time by REFERENCE_S over
the time of the runs just before and after it.  The work mimics
the program's: colour refinement over small labelled graphs, merges
through a union-find, certificates built by sorting tuples, and gv text
written and read back with a regex.  It must never change, or timings
taken before and after the change stop being comparable.
"""

import random
import re

REFINE_GRAPHS = 100
CERTIFY_GRAPHS = 650


def refine(rng: random.Random) -> int:
    n = 24
    labels = {v: rng.choice("abcd") for v in range(n)}
    edges = {(rng.randrange(n), rng.choice("xy"), rng.randrange(n))
             for _ in range(2 * n)}
    color = dict(labels)
    for _ in range(5):
        sig = {
            v: (color[v],
                tuple(sorted((l, color[t]) for s, l, t in edges if s == v)),
                tuple(sorted((l, color[s]) for s, l, t in edges if t == v)))
            for v in range(n)
        }
        rank = {s: f"c{i}" for i, s in enumerate(sorted(set(sig.values())))}
        color = {v: rank[sig[v]] for v in range(n)}
    return len(set(color.values()))


def certify(rng: random.Random) -> tuple:
    names = [f"n{i}" for i in range(12)]
    labels = {v: rng.choice(["she", "they", "believe", "and"]) for v in names}
    edges = {(rng.choice(names), rng.choice(["arg0", "arg1"]), rng.choice(names))
             for _ in range(14)}
    parent = {v: v for v in names}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _ in range(3):
        a, b = find(rng.choice(names)), find(rng.choice(names))
        if a != b:
            parent[max(a, b)] = min(a, b)
    nodes = sorted({find(v) for v in names})
    merged = sorted({(find(s), l, find(t)) for s, l, t in edges})
    best = None
    for _ in range(6):
        order = sorted(nodes, key=lambda v: (labels[v], rng.random()))
        pos = {v: i for i, v in enumerate(order)}
        cert = (tuple(labels[v] for v in order),
                tuple(sorted((pos[s], l, pos[t]) for s, l, t in merged)))
        if best is None or cert < best:
            best = cert
    text = "digraph {\n" + "".join(
        f'  "n{i}" [label="{labels[v]}"];\n' for i, v in enumerate(nodes)
    ) + "}\n"
    return repr(best), len(re.findall(r'"([^"]*)"', text))


def work() -> int:
    rng = random.Random(12345)
    colours = sum(refine(rng) for _ in range(REFINE_GRAPHS))
    certs = {certify(rng) for _ in range(CERTIFY_GRAPHS)}
    return colours + len(certs)


if __name__ == "__main__":
    work()
