"""Shared fixtures and deterministic instance factories."""

import math
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from radialflow import GenSpec, build_network, generate, load_network
from radialflow.forward_engine import default_source_count
from radialflow.network_model import GraphView

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def data_path(name: str) -> Path:
    return DATA_DIR / name


@pytest.fixture(scope="session")
def gap_ring():
    """Six-node ring whose cheapest-coefficient tree is far from optimal."""
    return load_network(data_path("mst_gap_ring.json").read_bytes())


@pytest.fixture(scope="session")
def feeder_ring():
    """Four-node ring with two supplies; solving it needs a tree merge."""
    return load_network(data_path("two_feeder_ring.json").read_bytes())


@pytest.fixture(scope="session")
def block15():
    """Fifteen-node network with pendant chains and two blocks."""
    return load_network(data_path("two_block_15.json").read_bytes())


@pytest.fixture(scope="session")
def ieee33():
    return load_network(data_path("ieee33_synthetic.json").read_bytes())


def full_view(net):
    """The whole network as a view over itself, edges in index order."""
    adj = {v: [] for v in range(net.n)}
    for idx, (u, v, _) in enumerate(net.edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    return GraphView(net, adj)


def assert_live(cond, frontier=None):
    """Every group that a node's membership, a crossing count or a class of
    ``frontier`` names is one of ``cond.groups``, and every group there is
    some node's.  A stale group, unlike a stale id, raises nothing when it is
    read, so this check is what catches one."""
    live = cond.groups.keys()
    assert live == set(cond.membership.values())
    assert all(other in live for group in live for other in group.nbrs)
    if frontier is not None:
        assert all(cls.group in live for row in frontier.classes.values()
                   for cls in row.values())


def ws_instance(n, seed, n_sources=None, k=4, beta=0.2):
    """Seeded small-world benchmark instance with the default supply rule."""
    count = n_sources if n_sources is not None else default_source_count(n)
    return generate(GenSpec(n=n, k=k, beta=beta, n_sources=count, seed=seed))


def feeder_instance(n, seed):
    """Seeded chain-heavy feeder of ``n`` buses with tie lines.

    A substation per 60 buses, joined in a row.  Each other bus hangs off a
    random substation's tree: nine times in ten it continues the tree's
    latest chain, else it starts a lateral at a random bus of that tree.
    Then ``n / 20`` tie lines each join a bus to the end of a random walk of
    three to eight hops along the tree.  Demands are uniform in
    [0.5, 1.5] and the substations share the supply equally.
    """
    rng = random.Random(seed)
    subs = max(2, n // 60)
    trees = [[s] for s in range(subs)]
    edges = [(s, s + 1) for s in range(subs - 1)]
    for v in range(subs, n):
        tree = rng.choice(trees)
        edges.append((tree[-1] if rng.random() < 0.9 else rng.choice(tree), v))
        tree.append(v)
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    pairs = {frozenset(e) for e in edges}
    for _ in range(n // 20):
        walk = [rng.randrange(n)]
        for _ in range(rng.randint(3, 8)):
            walk.append(rng.choice([y for y in adj[walk[-1]] if y not in walk] or [walk[-1]]))
        if frozenset((walk[0], walk[-1])) not in pairs and walk[0] != walk[-1]:
            pairs.add(frozenset((walk[0], walk[-1])))
            edges.append((walk[0], walk[-1]))
    demands = [rng.uniform(0.5, 1.5) for _ in range(n - subs)]
    supply = math.fsum(demands) / subs
    injections = [supply] * subs + [-d for d in demands]
    injections[0] -= math.fsum(injections)
    return build_network([f"b{v:04d}" for v in range(n)],
                         [(u, v, round(rng.uniform(0.1, 2.0), 6)) for u, v in edges],
                         injections)


def random_tree_network(rng, n):
    """Random spanning tree with balanced random injections, one supply."""
    names = [f"v{i:02d}" for i in range(n)]
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, round(rng.uniform(0.1, 2.0), 6)))
    demands = [round(rng.uniform(0.5, 1.5), 6) for _ in range(n - 1)]
    injections = [math.fsum(demands)] + [-d for d in demands]
    return build_network(names, edges, injections)


def small_instances(count=50):
    """Deterministic oracle-sized mixed bag: meshes and trees, N <= 10.

    Every fourth entry is a tree.  Mesh degree four is used only where the
    edge count stays within the enumeration limits.
    """
    out = []
    for s in range(count):
        rng = random.Random(97 + 13 * s)
        n = rng.randrange(4, 11)
        if s % 4 == 3:
            out.append((f"tree{s:02d}", random_tree_network(rng, n)))
            continue
        k = 4 if 6 <= n <= 9 and rng.random() < 0.5 else 2
        beta = rng.choice([0.0, 0.2, 0.5])
        n_sources = rng.randrange(1, max(2, n // 3 + 1))
        net = generate(GenSpec(n=n, k=k, beta=beta, n_sources=n_sources,
                               seed=s))
        out.append((f"mesh{s:02d}", net))
    return out


def random_forest_case(rng, max_nodes=50):
    """Connected network plus a sub-forest whose components each balance.

    Returns ``(net, kept)`` where ``kept`` indexes a forest of one or more
    trees covering every node, with injections balanced per component.
    """
    n = rng.randrange(2, max_nodes + 1)
    names = [f"v{i:02d}" for i in range(n)]
    tree = []
    for v in range(1, n):
        u = rng.randrange(v)
        tree.append((u, v, round(rng.uniform(0.05, 3.0), 6)))
    cut = min(rng.randrange(0, 3), n - 1)
    removed = set(rng.sample(range(n - 1), cut)) if cut else set()
    kept = [i for i in range(n - 1) if i not in removed]

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in kept:
        u, v, _ = tree[i]
        parent[find(v)] = find(u)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)

    injections = [0.0] * n
    for members in groups.values():
        if len(members) == 1 or rng.random() < 0.1:
            continue
        draws = [round(rng.uniform(-1.5, 1.5), 6) for _ in members[1:]]
        injections[members[0]] = -math.fsum(draws)
        for v, val in zip(members[1:], draws):
            injections[v] = val
    total = math.fsum(injections)
    injections[0] -= total
    return build_network(names, tree, injections), kept


def kruskal_config(net):
    """Spanning tree with the smallest total cost coefficient."""
    order = sorted(range(net.m), key=lambda i: (net.edges[i][2], i))
    parent = list(range(net.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    picked = []
    for i in order:
        u, v, _ = net.edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            picked.append(i)
    return picked


@st.composite
def small_networks(draw):
    """Connected networks of up to 8 nodes.

    Costs are drawn from a few values, 0 among them, so ties and free edges
    are common; injections are small integers, many of them 0, balanced
    exactly.  A random spanning tree plus extra edges leaves cut vertices,
    and supplies often land on them.
    """
    n = draw(st.integers(2, 8))
    cost = st.sampled_from([0.0, 1.0, 1.0, 2.5])
    edges = [(draw(st.integers(0, v - 1)), v, draw(cost)) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1), cost),
                          max_size=2 * n))
    pairs = {(u, v) for u, v, _ in edges}
    for u, v, c in extra:
        if u != v and (min(u, v), max(u, v)) not in pairs:
            pairs.add((min(u, v), max(u, v)))
            edges.append((min(u, v), max(u, v), c))
    p = draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.0, 1.0, 3.0]),
                      min_size=n, max_size=n))
    p[draw(st.integers(0, n - 1))] -= sum(p)
    return build_network([f"v{i}" for i in range(n)], edges, p)
