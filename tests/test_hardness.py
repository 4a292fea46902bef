"""Orthogonal-vectors instances and the reduction-graph generators."""

from __future__ import annotations

import hashlib
import json
from itertools import product
from random import Random

import numpy as np
import pytest

from conftest import ov_brute_force_by_coordinates
from diamecc import (ConstructionSizeError, OVInstance, build_diam_3km4,
                     build_diam_5v8, build_diam_6v10, build_diam_8v13,
                     build_ecc_lb_directed, build_ecc_lb_undirected,
                     build_kov_layered, gen_ov, load_construction,
                     ov_brute_force, save_construction, sssp,
                     verify_construction)
from diamecc import hardness
from diamecc.graph import format_graph, parse_graph
from diamecc.hardness import DEFAULT_EDGE_CAP, MetadataError, check_size


# The layered core as it was built before the place-value middle levels and
# the two-sweep prune, kept verbatim as the oracle of TestLayeredReference,
# but for returning (vertex_count, edges, sets, t_lo) as a plain tuple.


def _ridx(digits, radices) -> int:
    idx = 0
    for dig, rad in zip(digits, radices):
        idx = idx * rad + dig
    return idx


def _build_layered(inst: OVInstance, prune: bool = True,
                   max_edges: int = DEFAULT_EDGE_CAP) -> tuple:
    k, n, d = inst.k, inst.n, inst.d
    check_size("kov", k, n, d, max_edges)
    t = k - 2
    s_size = n ** (k - 1)
    mid_size = (n ** t) * (d ** (t + 1))

    masks = [[sum(1 << c for c in range(d) if vec[c]) for vec in inst.vectors[j]]
             for j in range(k)]
    ones_at = [[[i for i in range(n) if inst.vectors[j][i][x]] for x in range(d)]
               for j in range(k)]

    # Layer offsets: L0, then t+1 middle layers, then the last layer.
    off = [0, s_size]
    for _ in range(t + 1):
        off.append(off[-1] + mid_size)
    total = off[-1] + s_size
    off.append(total)
    mid_rad = [n] * t + [d] * (t + 1)
    s_rad = [n] * (t + 1)

    edges = []
    # Left boundary: (a_0..a_t) -- (a_0..a_{t-1}, x) when each a_j is 1 on
    # coordinates x_0..x_{t-j}.
    for prefix in product(range(n), repeat=t):
        for xb in product(range(d), repeat=t + 1):
            cmask = []
            acc = 0
            for x in xb:
                acc |= 1 << x
                cmask.append(acc)
            if any(masks[j][prefix[j]] & cmask[t - j] != cmask[t - j] for j in range(t)):
                continue
            mid = off[1] + _ridx(prefix + xb, mid_rad)
            for last in ones_at[t][xb[0]]:
                edges.append((off[0] + _ridx(prefix + (last,), s_rad), mid, 0))
    # Middle: forget the last kept left-side vector, introduce the next
    # right-side one; unconditional on coordinates.
    for j in range(1, t + 1):
        for apart in product(range(n), repeat=t + 1 - j):
            for bpart in product(range(n), repeat=j - 1):
                for xb in product(range(d), repeat=t + 1):
                    src = off[j] + _ridx(apart + bpart + xb, mid_rad)
                    head = apart[:-1]
                    for c in range(n):
                        dst = off[j + 1] + _ridx(head + (c,) + bpart + xb, mid_rad)
                        edges.append((src, dst, j))
    # Right boundary: (b_1..b_{t+1}) -- (b_2..b_{t+1}, x) when each b_j is 1
    # on coordinates x_{t+1-j}..x_t.
    for bpart in product(range(n), repeat=t):
        for xb in product(range(d), repeat=t + 1):
            smask = [0] * (t + 1)
            acc = 0
            for r in range(t, -1, -1):
                acc |= 1 << xb[r]
                smask[r] = acc
            if any(masks[j][bpart[j - 2]] & smask[t + 1 - j] != smask[t + 1 - j]
                   for j in range(2, t + 2)):
                continue
            mid = off[t + 1] + _ridx(bpart + xb, mid_rad)
            for first in ones_at[1][xb[t]]:
                edges.append((mid, off[t + 2] + _ridx((first,) + bpart, s_rad), t + 1))

    alive = [True] * total
    if prune:
        _prune_to_fixpoint(edges, off, total, alive)

    remap = [-1] * total
    alive_prefix = [0] * (total + 1)
    nxt = 0
    for v in range(total):
        alive_prefix[v] = nxt
        if alive[v]:
            remap[v] = nxt
            nxt += 1
    alive_prefix[total] = nxt
    kept = [(remap[u], remap[v], tag) for u, v, tag in edges if alive[u] and alive[v]]
    sets = {}
    bounds = [(alive_prefix[off[layer]], alive_prefix[off[layer + 1]])
              for layer in range(k + 1)]
    sets["S"] = bounds[0]
    for layer in range(1, k):
        sets[f"L{layer}"] = bounds[layer]
    sets["T"] = bounds[k]
    return nxt, kept, sets, bounds[k][0]


def _prune_to_fixpoint(edges, off, total, alive):
    """Drop middle vertices lacking a live neighbor on either side, cascading."""
    last = len(off) - 2  # index of the final layer in off terms
    layer_of = [0] * total
    for layer in range(len(off) - 1):
        for v in range(off[layer], off[layer + 1]):
            layer_of[v] = layer
    left_n = [[] for _ in range(total)]
    right_n = [[] for _ in range(total)]
    for u, v, _ in edges:
        right_n[u].append(v)
        left_n[v].append(u)
    left_c = [len(left_n[v]) for v in range(total)]
    right_c = [len(right_n[v]) for v in range(total)]

    def internal(v):
        return 0 < layer_of[v] < last

    stack = [v for v in range(total)
             if internal(v) and (left_c[v] == 0 or right_c[v] == 0)]
    for v in stack:
        alive[v] = False
    while stack:
        v = stack.pop()
        for u in left_n[v]:
            right_c[u] -= 1
            if alive[u] and internal(u) and right_c[u] == 0:
                alive[u] = False
                stack.append(u)
        for u in right_n[v]:
            left_c[u] -= 1
            if alive[u] and internal(u) and left_c[u] == 0:
                alive[u] = False
                stack.append(u)


class TestOVInstances:
    def test_unsat_has_no_solution(self):
        for seed in range(5):
            inst = gen_ov(3, 4, 5, "unsat", seed)
            assert ov_brute_force(inst) is None

    def test_planted_has_solution(self):
        for seed in range(5):
            inst = gen_ov(3, 4, 5, "planted", seed)
            assert inst.planted is not None
            assert ov_brute_force(inst) is not None

    def test_manual_orthogonal_pair(self):
        inst = OVInstance(2, 1, 2, (((1, 0),), ((0, 1),)))
        assert ov_brute_force(inst) == (0, 0)

    def test_all_ones_unsat(self):
        inst = OVInstance(2, 2, 2, (((1, 1), (1, 1)), ((1, 1), (1, 1))))
        assert ov_brute_force(inst) is None

    def test_single_zero_vectors(self):
        zero = (0, 0, 0)
        inst = OVInstance(3, 1, 3, ((zero,), (zero,), (zero,)))
        assert ov_brute_force(inst) == (0, 0, 0)

    @pytest.mark.parametrize("length", [1, 2, 5, 64, 333, 2000])
    def test_bits_match_randint(self, length):
        # gen_ov's bit draw takes one getrandbits per round in place of a
        # randint(0, 1) per bit, which rests on CPython's retry rule in
        # _randbelow_with_getrandbits: the bits and the generator's next
        # draw must both be those of the randints.
        for seed in range(50):
            fast, slow = Random(seed), Random(seed)
            assert hardness._random_bits(fast, length) == [slow.randint(0, 1)
                                                           for _ in range(length)]
            assert fast.random() == slow.random()

    def test_agrees_with_coordinate_filter_oracle(self):
        rng = Random(50)
        for _ in range(40):
            k = rng.randint(2, 3)
            n = rng.randint(1, 4)
            d = rng.randint(2, 5)
            vecs = tuple(tuple(tuple(rng.randint(0, 1) for _ in range(d))
                               for _ in range(n)) for _ in range(k))
            inst = OVInstance(k, n, d, vecs)
            assert (ov_brute_force(inst) is not None) == \
                   ov_brute_force_by_coordinates(vecs)


class TestLayeredConstruction:
    def test_unsat_distances_exactly_k(self):
        for k in (2, 3, 4):
            out = build_kov_layered(gen_ov(k, 2, 3, "unsat", 0))
            S, T = (range(*out.sets[x]) for x in "ST")
            for s in S:
                row = sssp(out.graph, s)
                assert all(row[t] == k for t in T)

    def test_planted_witness(self):
        for k in (2, 3, 4):
            out = build_kov_layered(gen_ov(k, 3, 3, "planted", 1))
            u, v = out.witness
            assert sssp(out.graph, u)[v] >= 3 * k - 2

    def test_partial_agreement_distance(self):
        # One disagreeing slot (s = 1, k = 3) forces distance >= 3t-2s+4 = 5,
        # on both sides of the planted tuple.
        for seed in range(10):
            inst = gen_ov(3, 3, 4, "planted", seed)
            out = build_kov_layered(inst)
            ia, ib, ic = inst.planted
            S_lo, T_lo = out.sets["S"][0], out.sets["T"][0]
            n = inst.n
            beta = T_lo + ib * n + ic
            alpha = S_lo + ia * n + ib
            alpha_row = sssp(out.graph, alpha)
            for other in range(n):
                if other == ib:
                    continue
                assert sssp(out.graph, S_lo + ia * n + other)[beta] >= 5
                assert alpha_row[T_lo + other * n + ic] >= 5

    def test_middle_crossing_distance_unpruned(self):
        # Crossing the middle levels costs exactly k - 2 between vertices
        # that share the coordinate tuple (checked before pruning).
        inst = gen_ov(4, 2, 3, "unsat", 0)
        out = build_kov_layered(inst, prune=False)
        g = out.graph
        l1_lo, l1_hi = out.sets["L1"]
        l3_lo, l3_hi = out.sets["L3"]
        d = inst.d
        xsize = d ** 3
        for l1 in range(l1_lo, min(l1_lo + 40, l1_hi)):
            row = sssp(g, l1)
            x_idx = (l1 - l1_lo) % xsize
            for l3 in range(l3_lo, l3_hi):
                if (l3 - l3_lo) % xsize == x_idx:
                    assert row[l3] == 2

    def test_layer_parity(self):
        out = build_kov_layered(gen_ov(3, 3, 4, "planted", 3))
        S, T = (range(*out.sets[x]) for x in "ST")
        for s in S:
            row = sssp(out.graph, s)
            for t in T:
                if row[t] != float("inf"):
                    assert row[t] % 2 == 3 % 2

    def test_pruned_middle_vertices_have_both_neighbors(self):
        out = build_kov_layered(gen_ov(3, 3, 4, "planted", 2))
        g = out.graph
        spans = {name: range(*out.sets[name]) for name in ("S", "L1", "L2", "T")}
        for left, mid, right in (("S", "L1", "L2"), ("L1", "L2", "T")):
            for v in spans[mid]:
                nbrs = [u for u, _ in g.adj_out[v]]
                assert any(u in spans[left] for u in nbrs)
                assert any(u in spans[right] for u in nbrs)

    def test_size_guard(self):
        inst = gen_ov(4, 40, 12, "unsat", 0)
        with pytest.raises(ConstructionSizeError):
            build_kov_layered(inst, max_edges=10_000)


class TestLayeredReference:
    # (n, d) shapes per k.
    SHAPES = {2: [(n, d) for n in range(1, 5) for d in range(2, 6)],
              3: [(n, d) for n in range(1, 4) for d in range(2, 5)],
              4: [(1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)],
              5: [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]}

    @pytest.mark.parametrize("k", sorted(SHAPES))
    def test_matches_the_fixpoint_builder(self, k):
        for (n, d), mode, seed, prune in product(self.SHAPES[k], ("unsat", "planted"),
                                                 range(4), (True, False)):
            inst = gen_ov(k, n, d, mode, seed)
            self.check(inst, prune, (n, d, mode, seed, prune))

    @staticmethod
    def check(inst, prune, case):
        got = hardness._build_layered(inst, prune=prune)
        edges = list(zip(*(col.tolist() for col in got.columns)))
        assert (got.vertex_count, edges, got.sets, got.t_lo) == \
               _build_layered(inst, prune=prune), case

    @pytest.mark.parametrize("k", sorted(SHAPES))
    def test_an_all_zero_end_set_empties_its_boundary(self, k):
        # An all-zero first (last) set leaves the left (right) boundary
        # without edges, so the prune empties every middle level.
        for side, prune in product((0, k - 1), (True, False)):
            inst = gen_ov(k, 2, 3, "unsat", side)
            vectors = list(inst.vectors)
            vectors[side] = ((0, 0, 0),) * 2
            inst = OVInstance(k, 2, 3, tuple(vectors))
            self.check(inst, prune, (side, prune))
            if prune:
                core = hardness._build_layered(inst)
                assert core.vertex_count == 2 * 2 ** (k - 1)

    def test_unpruned_wide_k5(self):
        for mode, seed in product(("unsat", "planted"), range(2)):
            self.check(gen_ov(5, 2, 4, mode, seed), False, (mode, seed))


class TestPinnedBytes:
    """Every construction at the shapes the ov-fixtures benchmark builds,
    pinned by the sha256 (first 16 hex digits) of its graph text and of its
    sorted metadata JSON, both recorded before the builders moved to edge
    columns."""

    # construction -> (k, n, d, L); L is ecc-dir's path length.
    SHAPES = {"kov": (3, 10, 5, 0), "5v8": (3, 10, 5, 0), "6v10": (3, 8, 5, 0),
              "3km4": (3, 10, 5, 0), "ecc-und": (3, 10, 5, 0), "8v13": (4, 3, 4, 0),
              "ecc-dir": (2, 120, 10, 8)}
    PINS = {
        ("kov", "unsat", 0): ("c68482f3d0ad788d", "d20e4eafd8828b31"),
        ("kov", "unsat", 1): ("a1eef3b6e80da8be", "6bc5637fe184a775"),
        ("kov", "planted", 0): ("1ffe02b868ad74f6", "dd329e671eb56d16"),
        ("kov", "planted", 1): ("55bfff6360174b5a", "6d887fef7a2f34e8"),
        ("5v8", "unsat", 0): ("740f1d6dd6cb322b", "6eb97c1b4af50f68"),
        ("5v8", "unsat", 1): ("5a68871e813ff07e", "f0c3c773898f6280"),
        ("5v8", "planted", 0): ("24c42433edecfc55", "25d642a397dc431e"),
        ("5v8", "planted", 1): ("51b9e84bda045ab9", "8990400e4b434519"),
        ("6v10", "unsat", 0): ("28ca280bba3b4217", "2fc78a420a88f043"),
        ("6v10", "unsat", 1): ("62474adc86488d94", "a74d440f85d10044"),
        ("6v10", "planted", 0): ("25dcb43da0b62cf1", "16abd3c1f9009040"),
        ("6v10", "planted", 1): ("e63d168143ea9072", "5e1c0815e2c760c1"),
        ("3km4", "unsat", 0): ("282d77a625e6db97", "ac7833855e0a76d2"),
        ("3km4", "unsat", 1): ("4ca004af20b623e5", "f5fc0327969c0e56"),
        ("3km4", "planted", 0): ("275f31f1ebe03950", "e1053f72279b794a"),
        ("3km4", "planted", 1): ("8d878d3525cea149", "527dc5d165f3f830"),
        ("ecc-und", "unsat", 0): ("21aff374ea16b267", "d1d18031d0033af4"),
        ("ecc-und", "unsat", 1): ("28aaa53c3ece8251", "89e2094e97029a45"),
        ("ecc-und", "planted", 0): ("5e502e3da8922542", "c312d612ae3fc7ba"),
        ("ecc-und", "planted", 1): ("95461f46cb746c84", "084e5f4ab8b6e863"),
        ("8v13", "unsat", 0): ("9ee0d4c4b85d926a", "033823d279ca2e04"),
        ("8v13", "unsat", 1): ("4eefc6c8af613f7b", "c89503eef4425a3f"),
        ("8v13", "planted", 0): ("f96295e830169a8f", "1e6d7476bd74b0e0"),
        ("8v13", "planted", 1): ("5a2b23d8391e9870", "8bb0aca0cd10952a"),
        ("ecc-dir", "unsat", 0): ("8159d91c30c98613", "0d06c2d85ba72cb7"),
        ("ecc-dir", "unsat", 1): ("9b0a8edd2c9cfdb5", "ca20814f9d2fde47"),
        ("ecc-dir", "planted", 0): ("b2878d449ada6ce2", "b4a07d9701a46489"),
        ("ecc-dir", "planted", 1): ("f2f082f5f1ab53dd", "51333121c8ef144b"),
    }

    @staticmethod
    def _sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_outputs_keep_their_bytes(self, name):
        k, n, d, L = self.SHAPES[name]
        for mode, seed in product(("unsat", "planted"), (0, 1)):
            inst = gen_ov(k, n, d, mode, seed)
            out = hardness.BUILDERS[name](inst, L) if L else hardness.BUILDERS[name](inst)
            g = out.graph
            text = format_graph(g)
            assert (self._sha(text), self._sha(json.dumps(out.meta(), sort_keys=True))) == \
                   self.PINS[name, mode, seed], (name, mode, seed)
            # The builders hand their columns to _from_columns, which checks
            # nothing: the parsed text must give the same ids and weights.
            back = parse_graph(text)
            assert (back.n, back.directed) == (g.n, g.directed)
            for got, want in zip(g.columns, back.columns):
                assert got.dtype == np.int64 and np.array_equal(got, want)


class TestDiameterGadgets:
    def test_5v8_weight_audit(self):
        out = build_diam_5v8(gen_ov(3, 2, 3, "unsat", 0))
        assert all(w == 1 for _, _, w in out.graph.edges)

    def test_6v10_weight_audit(self):
        out = build_diam_6v10(gen_ov(3, 2, 3, "unsat", 0))
        l1 = range(*out.sets["L1"])
        l2 = range(*out.sets["L2"])
        s2 = range(*out.sets["S''"])
        t2 = range(*out.sets["T''"])
        for u, v, w in out.graph.edges:
            crossing = (u in l1 and v in l2) or (u in l2 and v in l1)
            clique = (u in s2 and v in s2) or (u in t2 and v in t2)
            assert w == (2 if crossing or clique else 1)

    def test_8v13_shortcut_arcs_are_one_way(self):
        out = build_diam_8v13(gen_ov(4, 2, 3, "unsat", 0))
        g = out.graph
        s2 = range(*out.sets["S''"])
        s1 = range(*out.sets["S'"])
        one_way = [(u, v) for u, v, _ in g.edges
                   if u in s2 and v in s1]
        assert one_way
        arcs = {(u, v) for u, v, _ in g.edges}
        for u, v in one_way:
            assert (v, u) not in arcs

    def test_count_scaling_5v8(self):
        # Vertex count tracks O(n^2 + n d^2) within a small constant.
        for n, d in ((2, 3), (3, 3), (3, 4)):
            out = build_diam_5v8(gen_ov(3, n, d, "unsat", 0))
            assert out.graph.n <= 6 * (n * n + n * d * d) + 4 * n

    def test_gap_small_grid(self):
        cases = [
            (build_diam_5v8, dict(k=3, n=2, d=3)),
            (build_diam_6v10, dict(k=3, n=2, d=3)),
            (build_diam_3km4, dict(k=3, n=2, d=3)),
            (build_diam_3km4, dict(k=4, n=2, d=3)),
            (build_diam_8v13, dict(k=4, n=2, d=3)),
        ]
        for builder, ps in cases:
            out = builder(gen_ov(ps["k"], ps["n"], ps["d"], "unsat", 0))
            for check in verify_construction(out.graph, out.meta()):
                assert check.passed, (builder.__name__, check)
            out = builder(gen_ov(ps["k"], ps["n"], ps["d"], "planted", 0))
            for check in verify_construction(out.graph, out.meta()):
                assert check.passed, (builder.__name__, check)

    def test_wrong_k_rejected(self):
        with pytest.raises(ValueError):
            build_diam_5v8(gen_ov(2, 2, 3, "unsat", 0))
        with pytest.raises(ValueError):
            build_diam_8v13(gen_ov(3, 2, 3, "unsat", 0))
        with pytest.raises(ValueError):
            build_diam_3km4(gen_ov(2, 2, 3, "unsat", 0))


class TestEccConstructions:
    def test_undirected_hub_distances(self):
        inst = gen_ov(3, 3, 4, "unsat", 0)
        out = build_ecc_lb_undirected(inst)
        hub = out.sets["HUB"][0]
        row = sssp(out.graph, hub)
        assert all(row[s] == 2 for s in range(*out.sets["S"]))

    def test_undirected_gap(self):
        for k in (2, 3):
            out = build_ecc_lb_undirected(gen_ov(k, 3, 4, "unsat", 1))
            for check in verify_construction(out.graph, out.meta()):
                assert check.passed
            out = build_ecc_lb_undirected(gen_ov(k, 3, 4, "planted", 1))
            for check in verify_construction(out.graph, out.meta()):
                assert check.passed

    def test_directed_gap(self):
        for L in (1, 2):
            out = build_ecc_lb_directed(gen_ov(2, 5, 4, "unsat", 2), L)
            for check in verify_construction(out.graph, out.meta()):
                assert check.passed
            out = build_ecc_lb_directed(gen_ov(2, 5, 4, "planted", 2), L)
            u, v = out.witness
            assert sssp(out.graph, u)[v] >= 2 * L + 3

    def test_directed_requires_k2(self):
        with pytest.raises(ValueError):
            build_ecc_lb_directed(gen_ov(3, 2, 3, "unsat", 0), 1)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        out = build_diam_5v8(gen_ov(3, 2, 3, "planted", 0))
        prefix = str(tmp_path / "fixture")
        save_construction(out, prefix)
        g, meta = load_construction(prefix + ".graph", prefix + ".meta.json")
        assert g.n == out.graph.n and g.edges == out.graph.edges
        assert meta == out.meta()
        for check in verify_construction(g, meta):
            assert check.passed

    def test_negative_control(self):
        out = build_diam_5v8(gen_ov(3, 2, 3, "unsat", 0))
        meta = out.meta()
        meta["promised_low"] = out.promised_low - 1
        checks = verify_construction(out.graph, meta)
        assert not all(c.passed for c in checks)

    def test_metadata_validation(self):
        out = build_kov_layered(gen_ov(2, 2, 3, "unsat", 0))
        meta = out.meta()
        meta["sets"]["S"] = [0, out.graph.n + 5]
        with pytest.raises(MetadataError):
            verify_construction(out.graph, meta)
        meta2 = build_kov_layered(gen_ov(2, 2, 3, "planted", 0)).meta()
        meta2["witness"] = [0, 10 ** 6]
        with pytest.raises(MetadataError):
            verify_construction(out.graph, meta2)
