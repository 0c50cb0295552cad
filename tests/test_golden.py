"""Golden corpus: solutions and report counters pinned byte for byte.

Each entry is the sha256 of the solution's ``config_to_json`` text and the
report counters ``(iterations, merges, splits, flipped_edges, partitions,
presampled)``.  The values were recorded once, before the graph primitives
were shared between stages, and a refactor that keeps outputs identical
leaves every one of them unchanged.  A change that alters solutions on
purpose records them again and says why.
"""

import hashlib
import random

from conftest import DATA_DIR, random_tree_network, small_instances, ws_instance
from radialflow import build_network, config_to_json, load_network, solve
from radialflow.forward_engine import complexity_probe


def ring_chain(rings=4, size=5):
    """Rings joined in a chain at supply nodes: growth splits off one side
    per ring."""
    names, edges, p = [], [], []
    hub = None
    for r in range(rings):
        ring = [] if hub is None else [hub]
        while len(ring) < size:
            ring.append(len(names))
            names.append(f"n{len(names):02d}")
            p.append(-0.5 - 0.25 * (len(names) % 4))
        for i in range(size):
            edges.append((ring[i], ring[(i + 1) % size],
                          0.2 + 0.3 * ((i * 7 + r) % 5)))
        if r < rings - 1:
            hub = ring[2]
    hubs = [v for v in range(len(names))
            if sum(v in e[:2] for e in edges) > 2]
    for h in hubs:
        p[h] = 0.0
    share = -sum(p) / len(hubs)
    for h in hubs:
        p[h] = share
    p[hubs[0]] -= sum(p)
    return build_network(names, edges, p)


def corpus():
    for path in sorted(DATA_DIR.glob("*.json")):
        yield path.stem, load_network(path.read_bytes())
    for n, seeds in ((30, 10), (120, 10), (240, 10), (400, 3)):
        for s in range(seeds):
            yield f"ws{n}-{s}", ws_instance(n, s)
    yield from small_instances(50)
    yield "ring_chain", ring_chain()
    # peeling settles every edge of the tree and 275 of the 300 edges of the
    # sparse ring, leaving growth 24 steps
    yield "tree2000", random_tree_network(random.Random(5), 2000)
    yield "ws300-3-k2", ws_instance(300, 3, k=2, beta=0.5)


def fingerprint(net):
    cfg, report = solve(net)
    digest = hashlib.sha256(config_to_json(net, cfg).encode()).hexdigest()
    return digest, (report.iterations, report.merges, report.splits,
                    report.flipped_edges, report.partitions,
                    report.presampled)


GOLDEN = {
    "ieee33_synthetic": (
        "0fc4c595d7d5345e7a20cf400ee3f63faeccc013c915c61c1941afe04b7a90c8",
        (31, 2, 1, 7, 1, 1)),
    "mst_gap_ring": (
        "23a1a83774ddf61bbe5e322c6e36b2ed2d14b75ecf4d23d123d2ad3708017da7",
        (5, 0, 0, 0, 1, 0)),
    "two_block_15": (
        "0c692795b12d06568ee06fad6ff6040b5f60a4c6509cc269898c4cdaee24d35a",
        (8, 2, 1, 1, 1, 5)),
    "two_feeder_ring": (
        "1d8844b5b52687889fa7358721c6445c72fec36b669b29b00d7cbeefb2f4a7d2",
        (3, 1, 0, 0, 1, 0)),
    "ws30-0": (
        "a1d46e9855898c45dff423e9cb50e929dbea65d6ac292a019c650ea28b16fc2b",
        (28, 9, 5, 4, 1, 0)),
    "ws30-1": (
        "8d6c9fce4b53dbd8447e4045d34224611d150d077331e5f16e37da697680cef2",
        (24, 9, 4, 5, 1, 0)),
    "ws30-2": (
        "c174c64c18261111ce5b6bf0c2d31c3d5bd07e9b3f9f1bf8810da7a1c6d2ff04",
        (26, 9, 4, 6, 1, 0)),
    "ws30-3": (
        "217f5e7002f1aabe4679633d3ab478ee91f75b5f430bdb8d08510c23d973573b",
        (20, 9, 5, 5, 1, 0)),
    "ws30-4": (
        "18ffa254fa487b63c3e95be0bc76594d919183fbefe7bb51f54b71ba9fb87c6b",
        (27, 9, 2, 5, 1, 0)),
    "ws30-5": (
        "4a71eff7e1403838cd6183494e59fcfb74a6a2fc055f87d06c18abe7f398efdc",
        (22, 9, 4, 5, 1, 0)),
    "ws30-6": (
        "bd19c1aed7488266c603ee742483a3a905b81576268c4249271ee3f4bb2ca879",
        (26, 9, 4, 4, 1, 0)),
    "ws30-7": (
        "f022775150bfea18c121874b38a0b6e4f22d6f839e46e780d45ed41fbe327168",
        (29, 9, 3, 6, 1, 0)),
    "ws30-8": (
        "c92384ab67b7701201da3088ca4cf6b879bf5bf94946f3b8e62b9c959addb651",
        (23, 9, 3, 4, 1, 0)),
    "ws30-9": (
        "2cbdbb0bbe45a24d59c7670c0855f3958f6ddf88b571ae0a340e9e55c735faa2",
        (29, 9, 3, 7, 1, 0)),
    "ws120-0": (
        "4c0c187687bf61a42c721d87a6a6455012a75c3ef275e1e51f8bf1e61e62c3d7",
        (118, 9, 14, 7, 1, 0)),
    "ws120-1": (
        "ac37be204a343d23990462c6a91de865f4927949bd766ec9ce6ad994c9897e7b",
        (119, 9, 13, 10, 1, 0)),
    "ws120-2": (
        "b5df3397fc18f5738546292f5a194bdd1744c905a59e9ce09764e51cf6d3ef9f",
        (116, 9, 14, 9, 1, 0)),
    "ws120-3": (
        "917786b7f1db56e6fafeda0211985d6afdde0c388ee63d525504ffcc925d019a",
        (116, 9, 16, 6, 1, 0)),
    "ws120-4": (
        "813eea5b5db60cf2b6073a977cbd611b48eb98425136fa7fd9ed5040b7cd30de",
        (116, 9, 14, 10, 1, 0)),
    "ws120-5": (
        "4e4505f59475c33dd65bd934e46c821622467a7eeb6168d7c2b0a3de80311bac",
        (119, 9, 11, 8, 1, 0)),
    "ws120-6": (
        "66a05b8d1f7b331fc4ece1b4f8cc8bcb4f72bff3ded40107e1b73305f5ecfe6e",
        (119, 9, 11, 10, 1, 0)),
    "ws120-7": (
        "f61e012da286f05a313eb1fcb9ce1eac674ece7678f4e76c0118b8a10547f023",
        (119, 9, 13, 10, 1, 0)),
    "ws120-8": (
        "114b504c3b0fd38f9ee0e1002ad52781626d2443cb48c81d23ce5bb472b80f30",
        (115, 9, 16, 13, 1, 0)),
    "ws120-9": (
        "7ea3e945e2fa258441084bbc53ad0e99b34c3a4c09679bad8f1ef5ba40e6e3a4",
        (116, 9, 17, 11, 1, 0)),
    "ws240-0": (
        "10f9bedf7ded1c66d3fa714f343836002a4df4272fafadeca5facfc38c6b00e8",
        (239, 9, 26, 10, 1, 0)),
    "ws240-1": (
        "4cbe0e4e61b9835df27843e2793c559273394c53d6ed0c3c5f95a61f06375b94",
        (239, 9, 25, 10, 1, 0)),
    "ws240-2": (
        "e2b83cf62092e120170a7d02060f85798a01f0ceb338c393a12f498a293e6646",
        (237, 9, 25, 11, 1, 0)),
    "ws240-3": (
        "aa03509a0280be645998a1c5b6db124f4309c1ee243f221c1e154c78f2bf8006",
        (238, 9, 30, 10, 1, 0)),
    "ws240-4": (
        "14f291acbd71c0fd2d9bd3b16e35242d44433c6f34edb1336122ad441512f3d9",
        (236, 9, 24, 11, 1, 0)),
    "ws240-5": (
        "f8d1e4bc6cd8c45763e015bc28075f14ab4358511a817d5ad959c126cfc51d09",
        (236, 9, 26, 10, 1, 0)),
    "ws240-6": (
        "c00afd651888607264516724f9aacf1d403f67ba69144f6bfd333aabcc0e4788",
        (236, 9, 29, 15, 1, 0)),
    "ws240-7": (
        "ad72aa78b122521bb89a3320ba942886aa44ff7043b1fcaaa9d6e95b821c55e4",
        (239, 9, 21, 10, 1, 0)),
    "ws240-8": (
        "7dae5a0f7665ae881f39d0795fe0c78035a3b94c0f414dc194f4117242d99734",
        (239, 9, 22, 12, 1, 0)),
    "ws240-9": (
        "7b513e01840f7e339fb1cff88cf05112b2e21fab8d80b05ccfbc126e955d058a",
        (239, 9, 28, 9, 1, 0)),
    "ws400-0": (
        "a8410e4026cf6c3711d01fa9b02dc7740b439b07e4ab0f44ff8ace11357502c3",
        (398, 19, 48, 24, 1, 0)),
    "ws400-1": (
        "f9c43793e98675af74ac021a989c75ea20d472b6edbcc874028574e4008820ec",
        (393, 19, 39, 26, 1, 0)),
    "ws400-2": (
        "78ebd45c488c331f0f3cc825dec1f0bbbc63d853394c0c53ea5250ed9ffa1e76",
        (393, 19, 49, 26, 1, 0)),
    "mesh00": (
        "d89333df5f6c2670daef6570a1c71430303943f5e9ca6dd959bd68e0b7f71e05",
        (4, 0, 0, 0, 1, 0)),
    "mesh01": (
        "a81413553860310dd376a64d4c4bb69974c069b02066ae78a12de4d8c808f298",
        (5, 0, 0, 0, 1, 1)),
    "mesh02": (
        "449f4b172876c6082ddc70df59901a888933fb5b0697a74e527f96ef906a4a86",
        (2, 0, 0, 0, 1, 1)),
    "tree03": (
        "95b161a24b278959526e1da2cbc52737799d63ef277d4a41eed604c28ea3484e",
        (0, 0, 0, 0, 0, 7)),
    "mesh04": (
        "bcb908c27c49e59be22a58280dbe208db7f958e9ef38f7ac1716cbcf10c268f1",
        (3, 0, 0, 0, 1, 0)),
    "mesh05": (
        "a929f8411a43bba7c4692a70ba608185f25e8b2bcdc7f3360be7a1f8137990d5",
        (3, 0, 0, 0, 1, 0)),
    "mesh06": (
        "dd1764919136ac87ab4919da628bc82a103251aed5a8c5d8be2b572d9ed73376",
        (6, 0, 0, 0, 1, 0)),
    "tree07": (
        "790e5fc83092df91b2ba59efd7fa2d2d83dc74b1969faa259db1b7547785ddb9",
        (0, 0, 0, 0, 0, 9)),
    "mesh08": (
        "2703b2c9e8378cbe5e451273d9e40fc91ed0e6a5947feec67c836737afd5122c",
        (2, 0, 0, 0, 1, 1)),
    "mesh09": (
        "e255126178d1d25b654ea054b10be4fc0b4a4777dcccb04dc9b3fc04796bd45f",
        (2, 0, 0, 0, 1, 5)),
    "mesh10": (
        "d2afa54a03a59a109c301406be8f0dbe1c99f4c90efe0fbc997da9f1d7eba481",
        (2, 0, 0, 0, 1, 4)),
    "tree11": (
        "41011c02e58dcb1be299805addc06e5f60b16e58805998285c85436cdf6a6f0e",
        (0, 0, 0, 0, 0, 9)),
    "mesh12": (
        "83995a7c76a6e18c48eb336dabd7b9bc01e513b2b49348cf8c16fde9e29c2ae4",
        (3, 0, 0, 0, 1, 4)),
    "mesh13": (
        "a7ad6e6e9881cd0840855d04f34ff24b3a57c3aa696b64a2babe88ae5adf08c7",
        (2, 0, 0, 0, 1, 1)),
    "mesh14": (
        "702330ce84ccce61cf041ec5c6ce35687378785186646ec7528347ea985c27c0",
        (6, 1, 0, 1, 1, 0)),
    "tree15": (
        "853cf84d1f73ac87944122fae41d08427a43d292921f597ad3819df80a50d4fa",
        (0, 0, 0, 0, 0, 9)),
    "mesh16": (
        "a020a620c8e6ab6af1138a587809c765b3b894f3240f2f74befc94d1aa59a485",
        (2, 0, 0, 0, 1, 2)),
    "mesh17": (
        "e68e73fa17f758ea062811ef8709095a0132c4e069f7dba9a10b01439d11412a",
        (7, 1, 0, 1, 1, 1)),
    "mesh18": (
        "d9c39308ce8edc6c2265f5aa53d7ff5cac4cfdfe17d5f92345b08dcf536413f4",
        (7, 1, 0, 0, 1, 2)),
    "tree19": (
        "245e51f2ecdb4fb130a2472df7a8319a003ef5ad4849fb7def6c7becd9852466",
        (0, 0, 0, 0, 0, 6)),
    "mesh20": (
        "559ac80bdb69e34e4d5d4bb0cd297c4ea6ed1ce25b58467e1cc5dcdf42c8a67c",
        (4, 0, 0, 0, 1, 0)),
    "mesh21": (
        "129fd213a9fd5df32bb462f880fc5399e853ce4a1484e88dc9843c64a3265c35",
        (2, 0, 0, 0, 1, 1)),
    "mesh22": (
        "82e4c281f48ff36efc26758215e210a3a10ce8124d1a625868efe18370882f09",
        (6, 0, 0, 0, 1, 1)),
    "tree23": (
        "f84d27d7e9bf53c4a426165ccfa29d77507775e2fdc2ec2dca7b2dbf9f4f9042",
        (0, 0, 0, 0, 0, 3)),
    "mesh24": (
        "f6be4636a0325730d966730f29cb6fda96a26b52b076c5a90f123c9c1b7eb7bc",
        (6, 2, 0, 0, 1, 3)),
    "mesh25": (
        "0a83774b855fba2979beca3c462a0577092a3d4c8f5787650824210feb33f89c",
        (6, 0, 1, 0, 1, 0)),
    "mesh26": (
        "0ecc9d17f652bc93ffe88fd953ac738c2548d806b4eeebbf6fb1b26aeabbb673",
        (9, 2, 0, 2, 1, 0)),
    "tree27": (
        "04901cf806b57e9fc7628881155a6023f09e6fadf168e81cb3e19987bd5dda33",
        (0, 0, 0, 0, 0, 5)),
    "mesh28": (
        "f1be1609afdf01bb2a641900a53f4046e6fd7fda8d0b273d7af823a17af82992",
        (7, 2, 1, 1, 1, 0)),
    "mesh29": (
        "a92d3c3002d2ac56553f7d95ab705a3fcb590de840514ee4de47c07e8aa0b2b9",
        (3, 0, 0, 0, 1, 0)),
    "mesh30": (
        "42e7090b9791fe16f744bff3bb7318dc59a516125612c4017199e77dbb2b4fd5",
        (6, 1, 0, 1, 1, 3)),
    "tree31": (
        "18537a59ea1fc1b611c769244bef854bf01e403db501b033eaa9bb250f9f63de",
        (0, 0, 0, 0, 0, 9)),
    "mesh32": (
        "3083433040d972537ae428267c67e5fe5a0a4c23184e65d84f800c3852b16920",
        (3, 0, 0, 0, 1, 0)),
    "mesh33": (
        "fdd89f27dba9e3d979057aeb2f8d78301e9a1b58aeadb3e4c90a1745815c3dc4",
        (4, 0, 0, 0, 1, 0)),
    "mesh34": (
        "4200bdeb25555f055e93d29410825d4f66c1f79b217ce7ca7f9fcb74d6c9f1ac",
        (5, 0, 1, 0, 1, 0)),
    "tree35": (
        "697e6e4cf47f82d5225f2d81fb6c62c205aa1426a0498fcc34e5b0da12b22b4d",
        (0, 0, 0, 0, 0, 3)),
    "mesh36": (
        "ca8b51dc4f35cca6f3d019250eaeb71311868033862200b661f158967ff19e20",
        (4, 1, 0, 0, 1, 4)),
    "mesh37": (
        "fab3bbb5fe0136534339aad3d452d44d28f3b0165757cd6b2ebaa342c25b02c1",
        (2, 0, 0, 0, 1, 7)),
    "mesh38": (
        "cff4e15dc23ee81db64e5264166d2b8e6251654d0bc62ae74d2e7c74b898520e",
        (7, 1, 0, 1, 1, 0)),
    "tree39": (
        "7d3e0b5aa195277a9377c9796acddef1c7ed9e38cc25fb7a502f456347942887",
        (0, 0, 0, 0, 0, 3)),
    "mesh40": (
        "16114f49e5614ca33fee96c9151693ff6a1d8b85eebbf1687fc085c430b89220",
        (8, 1, 0, 1, 1, 0)),
    "mesh41": (
        "008fc0f5f071e3601e0bd565bc9f0f256888c9bbd695e258f433595142270559",
        (6, 0, 0, 0, 1, 0)),
    "mesh42": (
        "91f97e3cdea398a446aa8f9d6f0f59bf4c22526c4799363d7340175bc6a9fe2d",
        (4, 1, 0, 0, 1, 3)),
    "tree43": (
        "d50b793d50b9bb1451fd42b2f6a49fd394e272149815dea94f077ee0b7148000",
        (0, 0, 0, 0, 0, 8)),
    "mesh44": (
        "7ba76371217c5396b1d96809f87482b853241dcf10bf7646db10cfadb10b5567",
        (2, 0, 0, 0, 1, 3)),
    "mesh45": (
        "9e67135fac9aae707efd4c30b65922ce822589717d199190a7d7eb013c0ff02a",
        (7, 0, 0, 0, 1, 0)),
    "mesh46": (
        "2f5999a3ffa1ce0ce3560edae75e3a44e00888a4f62d06be9534523c9901d5fe",
        (5, 1, 0, 1, 1, 0)),
    "tree47": (
        "6ba464c23fa15e4da79bee060e43985ec32886ccc1b2fda0fbaf04d1780cc6d4",
        (0, 0, 0, 0, 0, 3)),
    "mesh48": (
        "7258bc2fc125d50e1415341da50e805777bdc1ea0cecd99289d87a8de4acf68b",
        (3, 0, 0, 0, 1, 1)),
    "mesh49": (
        "23a0bd76534d1a1bfd229ed7e4918766d2199ed79abe287944858ede9be36db4",
        (8, 2, 1, 1, 1, 0)),
    "ring_chain": (
        "785e3f00c0abd95ffb9f2a57688bb81d37fd3ca66566859d8ae7470664e1c76b",
        (16, 2, 3, 2, 1, 0)),
    "tree2000": (
        "3f5f663453da77a4a09532b9f3bf55f779f3383567c28f9b3a941334100c2e1c",
        (0, 0, 0, 0, 0, 1999)),
    "ws300-3-k2": (
        "0adf90614c8043e4a7bacd55ff2395d0d3165582813998c625ffa1860e96368b",
        (24, 3, 0, 3, 1, 275)),
}


def test_golden_corpus_unchanged():
    got = {name: fingerprint(net) for name, net in corpus()}
    assert set(got) == set(GOLDEN)
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    assert not changed, f"{len(changed)} changed: {changed[:10]}"


def test_committed_grid_digest_unchanged():
    # the solutions_sha256 of `radialflow bench --sizes 60,120,240,480,960
    # --seeds 5`, over meshes that split as they grow
    digest = hashlib.sha256()
    complexity_probe([60, 120, 240, 480, 960], seeds=5, digest=digest)
    assert digest.hexdigest() == (
        "ddf3f9992b3192632c0c4f3f273a50953c80f96c0d4a84adb707634fd7dca580")
