"""The three workloads: their inputs, built through orepack, and their tasks.

A builder gets the freshly imported orepack modules, the workload seed and
a directory to write input files into. It returns the task list of one
pass. The seed decides the relabellings, the random hosts, the covered
vertices and the probe seeds; the set of graphs and the verbs run on them
are fixed, so every seed gives the same kinds and number of tasks.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass


@dataclass
class Task:
    group: str  # input family; tasks of one group cost about the same
    argv: list[str]  # arguments of `orepack`
    check: dict  # what checks.make_checker needs to know


class Inputs:
    """Writes graphs and instances as files and hands out seeded streams."""

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.count = 0

    def rng(self, *key) -> random.Random:
        return random.Random("/".join(map(str, (self.seed,) + key)))

    def write(self, text: str, suffix: str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:04d}{suffix}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        return path

    def graph(self, g) -> str:
        return self.write(self.lib.graphs.to_graph6(g), ".g6")

    def relabelled(self, g, *key):
        perm = list(range(g.n))
        self.rng(*key).shuffle(perm)
        return self.lib.graphs.relabel(g, perm), perm


# ---------------------------------------------------------------------------
# params-sweep


def _union(graphs, parts):
    g = parts[0]
    for part in parts[1:]:
        g = graphs.disjoint_union(g, part)
    return g


def _fixed_random(lib, n, p, index):
    # fixed draws, independent of the workload seed: G(n,p) costs vary by
    # orders of magnitude between draws, so the seed only relabels them
    return lib.probes.random_graph(n, p, random.Random(1000 * n + index))


def params_graphs(lib):
    """(name, family, spec, graph, relabellings per pass) for every H.

    Rough corrected costs: 3-13 ms for the first eight, 16-18 ms for
    K[2..7], 10K2 and hd(3,5), 40-75 ms for the next six, ~105 ms for 3C5
    and ~300 ms for G(30,0.7)#2. The counts put the p50 rank in the middle of
    the 16-18 ms cluster and the p90 rank in the middle of the 3C5 group,
    whose neighbours cost 30 % less and three times more. The G(n,p) draws
    are ones whose cost moves little with the labelling: G(32,0.7) draws
    that cost 0.1-0.5 s depending on it made tasks_per_s follow the seed.
    """
    gr, ex = lib.graphs, lib.extremal
    k2, c5 = gr.complete_graph(2), gr.cycle_graph(5)
    fd = ex.construct_fdiamond()

    def kk2(k):
        return (f"{k}K2", "kK2", {"k": k}, _union(gr, [k2] * k))

    def union(name, parts):
        return (name, "union", {}, _union(gr, parts))

    def multipartite(*sizes):
        return (f"K{list(sizes)}", "multipartite", {"sizes": list(sizes)}, gr.complete_multipartite(sizes)[0])

    def hdiamond(k, r, sizes, **pins):
        return (f"hd({k},{r},{sizes})", "hdiamond", {"k": k, "r": r, **pins}, ex.construct_hdiamond(k, r, sizes))

    def blowup(t):
        return (f"fd*{t}", "blowup", {}, gr.blow_up(fd, t))

    def gnp(n, p, index, family):
        return (f"G({n},{p})#{index}", family, {}, _fixed_random(lib, n, p, index))

    groups = (
        (10, [multipartite(3, 3, 3, 3), blowup(3), union("2C5", [c5] * 2), kk2(8),
              hdiamond(2, 4, [3, 4, 7, 7], chi_cr=(66, 19), chi_ore=(7, 2)), blowup(4),
              multipartite(4, 5, 6, 7), blowup(5)]),
        (13, [multipartite(2, 3, 4, 5, 6, 7), kk2(10),
              hdiamond(3, 5, [4, 6, 7, 7, 7], chi_cr=(32, 7), chi_ore=(23, 5))]),
        (8, [gnp(18, 0.12, 1, "sparse"), hdiamond(5, 7, [6] * 7), gnp(16, 0.15, 1, "sparse"), kk2(12),
             gnp(24, 0.7, 0, "dense"), union("C5+C7+K2", [c5, gr.cycle_graph(7), k2])]),
        (22, [union("3C5", [c5] * 3)]),
        (8, [gnp(30, 0.7, 2, "dense")]),
    )
    return [(*h, reps) for reps, hs in groups for h in hs]


def build_params_sweep(lib, inputs: Inputs) -> list[Task]:
    tasks = []
    for name, family, spec, g, reps in params_graphs(lib):
        for i in range(reps):
            h, _ = inputs.relabelled(g, name, i)
            path = inputs.graph(h)
            check = {"kind": "params", "path": path, "family": family, "spec": {"name": name, **spec}}
            tasks.append(Task(name, ["params", path], check))
    return tasks


# ---------------------------------------------------------------------------
# pack-refute

REFUTE_HOSTS = (
    # (family, parts, H, relabellings per pass); NO by counting in every
    # case. With the verify task the pass holds 20 tasks: the p50 rank
    # falls in the middle of the 60-70 ms cluster K_{5,7} / K_{4,4,7}, the
    # p90 rank in the middle of K_{4,5,6}; only the verify task costs more.
    ("cliques", (7, 8), "K3", 1),
    ("cliques", (8, 10), "K3", 1),
    ("bipartite", (4, 8), "C4", 1),
    ("tripartite", (3, 4, 5), "K3", 1),
    ("bipartite", (5, 7), "C4", 6),
    ("tripartite", (4, 4, 7), "K3", 6),
    ("cliques", (10, 11), "K3", 1),
    ("tripartite", (4, 5, 6), "K3", 2),
)


def build_pack_refute(lib, inputs: Inputs) -> list[Task]:
    gr, ex = lib.graphs, lib.extremal
    h_paths = {"K3": inputs.graph(gr.complete_graph(3)), "C4": inputs.graph(gr.cycle_graph(4))}
    tasks = []
    for family, parts, h, reps in REFUTE_HOSTS:
        if family == "cliques":
            g = gr.disjoint_union(gr.complete_graph(parts[0]), gr.complete_graph(parts[1]))
        else:
            g, _ = gr.complete_multipartite(list(parts))
        name = f"{h} in {family}{list(parts)}"
        for i in range(reps):
            host, _ = inputs.relabelled(g, name, i)
            path = inputs.graph(host)
            check = {"kind": "refute", "g": path, "h": h_paths[h], "family": family}
            tasks.append(Task(name, ["pack", path, h_paths[h]], check))
    # the prop2 construction for CE = 1, verified against fdiamond
    inst = ex.construct_prop2(3, 1, 7, 7)
    host, perm = inputs.relabelled(inst.graph, "prop2")
    payload = inst.to_json_dict()
    payload["graph6"] = gr.to_graph6(host)
    payload["w"] = perm[inst.w]
    inst_path = inputs.write(json.dumps(payload), ".json")
    fd_path = inputs.graph(ex.construct_fdiamond())
    check = {"kind": "verify", "instance": inst_path, "h": fd_path}
    tasks.append(Task("verify prop2(3,1,7,7)", ["verify", inst_path, fd_path], check))
    return tasks


# ---------------------------------------------------------------------------
# pack-find

# (n, r, p): one host per entry, drawn from the seed. p puts the minimum
# degree bound 4.2 standard deviations below the mean degree, so a draw
# is almost never rejected and set-up does the same work for every seed.
# With the blow-ups and the probes below, the costs form a 3-10 ms
# continuum holding the p50 rank, and a top fifth (the 120-vertex hosts
# and the average-degree probe, 10-17 ms) holding the p90 rank.
HS_HOSTS = (
    (60, 3, 0.87), (72, 3, 0.86), (90, 3, 0.84), (120, 3, 0.83),
    (60, 4, 0.92), (72, 4, 0.91), (96, 4, 0.9), (120, 4, 0.89),
)
BLOWUPS = ((2, 2), (4, 2), (6, 2))  # (t, relabellings per pass)
PROBES = (
    ("hajnal-szemeredi", 9, 3, 50),
    ("kierstead-kostochka", 12, 3, 50),
    ("average-degree", 30, None, 40),
)


def hs_host(lib, rng: random.Random, n: int, r: int, p: float):
    """A G(n, p) draw meeting delta >= (1 - 1/r) n, which forces a K_r-factor."""
    while True:
        g = lib.probes.random_graph(n, p, rng)
        if min(g.degrees()) * r >= (r - 1) * n:
            return g


def build_pack_find(lib, inputs: Inputs) -> list[Task]:
    gr, ex = lib.graphs, lib.extremal
    fd = ex.construct_fdiamond()
    fd_path = inputs.graph(fd)
    k_paths = {r: inputs.graph(gr.complete_graph(r)) for r in (3, 4)}
    tasks = []
    for t, reps in BLOWUPS:
        for i in range(reps):
            host, _ = inputs.relabelled(gr.blow_up(fd, t), "blowup", t, i)
            path = inputs.graph(host)
            check = {"kind": "find", "g": path, "h": fd_path, "r": None}
            tasks.append(Task(f"fd in fd*{t}", ["pack", path, fd_path, "--find"], check))
    for n, r, p in HS_HOSTS:
        rng = inputs.rng("host", n, r)
        path = inputs.graph(hs_host(lib, rng, n, r, p))
        w = rng.randrange(n)
        check = {"kind": "find", "g": path, "h": k_paths[r], "r": r}
        tasks.append(Task(f"K{r} in HS({n})", ["pack", path, k_paths[r], "--find"], check))
        check = {"kind": "cover", "g": path, "h": k_paths[r], "w": w, "r": r}
        tasks.append(Task(f"cover K{r} in HS({n})", ["cover", path, k_paths[r], str(w)], check))
    for family, n, r, samples in PROBES:
        seed = inputs.rng("probe", family).randrange(2**31)
        argv = ["probe", "--family", family, "--n", str(n), "--samples", str(samples), "--seed", str(seed)]
        if r is not None:
            argv += ["--r", str(r)]
        tasks.append(Task(f"probe {family}", argv, {"kind": "probe", "samples": samples}))
    return tasks


BUILDERS = {
    "params-sweep": build_params_sweep,
    "pack-refute": build_pack_refute,
    "pack-find": build_pack_find,
}
