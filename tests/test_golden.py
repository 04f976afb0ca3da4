"""Byte-identical CLI output on the core fixtures and a few rectangles.

The tables hold the SHA-256 of
``tilings complex NAME --betti --collapse --cube --format json`` for each
core fixture, for polyomino files of rectangles larger than any of them, and
for a few files whose regions are not all squares or that have no tiling.
A refactor that changes any byte of that output fails here; the tables
change only with an intended change of output.  ``SHAPE_DIGESTS`` pins the
corpus shapes themselves: names and sorted cells of the polyomino zoo and
of two seeds of random shapes.  ``VERIFY_DIGEST``, ``DUMP_DIGEST`` and
``TABLE_DIGESTS`` pin the output of ``verify``, the files of ``fixtures
dump`` and the table output of ``count`` and ``complex``; ``POLY_DIGESTS``
pins ``poly`` over small ladders and degrees.  ``FACE_DIGEST`` pins the
faces themselves, in the order ``k.faces`` reads them, on the seed-1 corpus
and on the five seed-1 shapes of the benchmark's ``grid-complex``.
"""

import hashlib

import pytest

from tilings.cli import main
from tilings.complexes import build_complex
from tilings.fixtures import (core_fixture_names, iter_fixture_graphs,
                              polyomino_zoo, random_quad_glued)
from tilings.planar import build_from_polyomino

DIGESTS = {
    "g1":
        "accbd1e02dedb51ec987953981758bae5d681df49aeabd4149cad0dedaf064c6",
    "g2":
        "cf9b42288dda45cafbcc26b8c411b0255d0a692de03ab80b0eb50e3ea8ce4e24",
    "g3":
        "ab7d1c7fad0b1f750de4a69ed9bca9c85d96f855740b6157c1d41a833c03c639",
    "figure2":
        "d05b0fe5f20445d35cffe51dff94e1d945e7deefd697b3aee064f776a0104193",
    "prism":
        "70b9c079799bf6bc5fd320bd4e5c82972caecc92e45d81f9f37b24525be5f990",
    "ladder-1":
        "c2dcaa384d9439a0681530c7a07302bff320243668fff42c21eace29ba4fa4a8",
    "ladder-1-1":
        "9bd9ea76a7cdc99deaf7499fcec65fcc359077d151185fca8217901189e8204d",
    "ladder-2":
        "a012d1108cf095eaeb9d1d707bba13101bb6aee1c6a4fb4731894ec2708a953a",
    "ladder-2-1":
        "1eed30b2e7de5caf5871254c605ab45b7900934cb50cdcc331ef5a6dda63e0ef",
    "ladder-2-2":
        "cbe69b9feeef3257ccebfafbaae439ca777fa55654d3b34846df50561d677926",
    "ladder-3":
        "959a31800566aa1dae32d414cfe7f3474d495a707d61c94012dcc2a4865c5bea",
    "ladder-3-1":
        "b801fe78911f384f97a1113f04c7c2fb25f55c63ae0fa0d55551d3c29fc8e8ec",
    "ladder-3-2":
        "877df83757012272512382542f09665b78f1f17065371c2977a204500faf005a",
    "ladder-3-3":
        "7a5f7dd4df0527ab5b34ae5dc055e8ad0fd7250005cad142ead377601bc1cd7a",
    "ladder-4":
        "bf314fcfb3ad6214eaca6ed08958e59a021fbafe8a6483a3381f57293c6ce2bd",
    "ladder-4-1":
        "8fb1150a79c95207e5fd9a576e32b5f3fdf69ccd78bc2839e962884d223944bc",
    "ladder-4-2":
        "f9b20ec12fadb495d9458a20248c3551c676689702a6362c83e7a0211b43d58b",
    "ladder-4-3":
        "611208c34879bbd4854be2f7d84d91fe4ecafc096dfe63a94ceefba2e7e975ec",
    "ladder-4-4":
        "3e52e43c16ee483e535fc6ad700ea50fc2f06818b25d639e3af605c24035b801",
    "ladder-5":
        "d2b1cf4de122e10cfacfef8cd54423c8e9d1afd6ed4126b35c10ef21ff21310e",
    "ladder-5-1":
        "270c55e715c40bd58be3e47ca8e864fb42054a138dccd3be18bf8ecd11e0b965",
    "ladder-5-2":
        "486af4b04712a3ec14de554ae1b04e14f01a5da131113c5cda8b9b4a9256f0bd",
    "ladder-5-3":
        "4b7595dc605308e95b4730e67ed12feaa2cbc7ea5ef0b43aabd4c30d966b3803",
    "ladder-5-4":
        "c2f5caf9bb0d10f18a4809e2ee6d4c28e5ecd02bcd1e41152d41d18f43ce2355",
    "ladder-5-5":
        "2cf0b9919abc24d68b3546396be2cc2cc23b1b04380b4544a805f886bfba214a",
    "ladder-6":
        "541dfc72835b91843536c290eae74cd5ebe4a53353048efa58f0b0dcb5f7ff50",
    "ladder-6-1":
        "f4062bcf56094751860e4abcfcfab8e008d06f1bbb7bea341c01b5730604a3de",
    "ladder-6-2":
        "faa92340ee49d61c57d97f77c5af9bf5a7b2d230e903008a5f168327f436a91b",
    "ladder-6-3":
        "b6036d1f94eea8eae0bf2521464929073d6ae1ae973b6ab0436d9a423a73e19d",
    "ladder-6-4":
        "50cdc7008881a7c347dbf11d863389cddcb252331267584f37bdfd2bcf435541",
    "ladder-6-5":
        "ace278b77d3c81f730a4280e00de7e831aa7108de690bffc4268a2af8e347c36",
    "ladder-6-6":
        "cdd5bee5a92c4cdaa8c6fbca997000e2385a9c9e41fb3ae4cb159335a061f9e5",
    "ladder-7":
        "10fa246baf44130b2be98b7fddda3dab37bdaf257d001243bab901fac1067d67",
    "ladder-7-1":
        "cce741fcc7e33f0876997de67e40eeb3784bf1f50838bc04719199b0e6aa1af6",
    "ladder-7-2":
        "0577ef663c68530815729f218b654f6e8c27b891c102dbfb883065d41fc00cf8",
    "ladder-7-3":
        "fff640aefa1e189fb68e890fafd1b7ddaa8f74aa9e3718fc1ac48267258b50ac",
    "ladder-7-4":
        "4db2cf9a2e9fb5973bd4a69fa4914008aea8ede7df9e1ea1fea0a24789e4564c",
    "ladder-7-5":
        "a14330a35b03db91864f594056ea3db3fbf85443f6c8b34ebee7fb48d6008e0a",
    "ladder-7-6":
        "1501b342fe6356aaf936dc580aadd482c2547c3f2e330b95e4b04f58e69b3c17",
    "ladder-7-7":
        "c0f0e8ce84b91af920ecaa68fe94b92d715191f512e2362924bd24ba8f973d8f",
    "ladder-8":
        "d07556d5dda0f7d2d573e655a6cdce2b04378ba2e7c54081234dd160c312570e",
    "ladder-8-1":
        "9a2242ce14849675dd334f4b7fadf064b06c3fbd236854b5bedc63757a6f483d",
    "ladder-8-2":
        "d4f785c7b203339f21a75cfd5e23fe5a6d68d5ebd4027803652aa146af4c20b3",
    "ladder-8-3":
        "92e210fbeb7e87497745e697decd007ee99226f07b6e292418d30dd06063c734",
    "ladder-8-4":
        "6d65a1b17ba9bdc039adf993adf5b4d14421dfd3a606d961436078dc60193e8e",
    "ladder-8-5":
        "0d7118a9276822ba5151c4a88c9fbb1c70e810e7562d8ad8e6698475d245c648",
    "ladder-8-6":
        "f55aaf8b5815585c1d09aa019c7f5e3c840f116dcda172f49582921fdd1d1b5f",
    "ladder-8-7":
        "2a6389e34157dd5c39f04f59ec8ac01b0a89c13754ed0e1e4276120f48610106",
    "ladder-8-8":
        "fe892d9af5d4c8c7452d06cf584ecd6a067d239c4521b53fb951c534e1092584",
}

# Rows x columns of cells; the 4 x 5 rectangle has f-vector
# [95, 226, 193, 70, 9].
RECTANGLE_DIGESTS = {
    (3, 4):
        "5c03a34ad7901b8f174c25b440600379d3adbf38eb27866943b8c19c555ead5d",
    (3, 6):
        "d21da4692a3007feb0997a4436c4d0e78d79b070e72f35ccfe1049489751e54b",
    (4, 4):
        "394a8b46ed578672d9df81b933785f15e53123ab5e7fe4b30d0309044f425925",
    (4, 5):
        "9ccb283ae962e3a5e73e0eef51ad79283b72fd9c6dd51bfa376a602cd58752a6",
}

# Input files whose regions are not all squares, or that have no tiling:
# the rings' holes are 8- and 12-cycles, the third shape has two holes, the
# fourth has three cells of each colour and no tiling, and the empty graph
# has the one empty tiling.
SHAPE_FILE_DIGESTS = {
    "ring-3x3.txt": ("###\n#.#\n###\n",
                     "bfb12a6f8f7220b2da2d34f277593d4f"
                     "9985292fb80f25ba700cab73684ce7c2"),
    "ring-4x4.txt": ("####\n#..#\n#..#\n####\n",
                     "3988bd691dbbf6eb1ad2952c6cae1239"
                     "3294a50997cc569fbd06936fe4f47e9f"),
    "two-holes.txt": ("#####\n#.###\n###.#\n#####\n",
                      "14b2560cc464a99d91422f0ce5daf2d0"
                      "9437e6b8042d13e77b017a1afd4700c0"),
    "untileable.txt": (".#..\n####\n..#.\n",
                       "053f3f5c4208ad80365cd0a6d98b9d8f"
                       "4c6513e4debaff9d5697fb96944b707b"),
    "empty.json": ('{"vertices":[],"edges":[]}\n',
                   "2b4120df9284df1162d00a9e8ee084be"
                   "89774c4c677c005fee1a98d0be06a7da"),
}

# SHA-256 of repr([(name, sorted(cells)), ...]); cells are sorted because a
# frozenset's repr order is not stable.
SHAPE_DIGESTS = {
    "zoo-10":
        "3651f26d5aa9ac2cfbec213accce972c731f37ff02d2c8152178d3b747bf2450",
    "random-0":
        "85a81907a5568aea9b762ab3429347d08286dd38f80c21dbf64eaeee390af613",
    "random-201":
        "4b69b52f886179e0b27a4a341bfa211c7f33e864d66bcfe5a0fb6c4d4b900c64",
}

# SHA-256 of ``tilings verify --format json`` with the default bounds.
VERIFY_DIGEST = \
    "ba3c4dc98002453c1f491535cb1ed0ee784421d20a255ff2d1bd84ae4e7d1730"

# SHA-256 over every face, as the line "sorted edges sorted cycles", of the
# seed-1 corpus at the default bounds and then of ``GRID_SHAPES``, each
# graph's faces in ``k.faces`` order after a line with its name.
FACE_DIGEST = \
    "2aa6d23e8f7f3de4a64f92b4572aef345f52b3112f107749f030c8964793a1cd"

# The shapes of ``perfbench/run.py --workload grid-complex --seed 1``.
GRID_SHAPES = {
    "rect-4x6": "######\n" * 4,
    "rect-3x10": "##########\n" * 3,
    "fat-1-0": "..####\n..####\n#####.\n######\n######\n###...\n.##...\n",
    "fat-1-1": "..##\n..##\n.###\n.###\n..##\n.###\n.##.\n###.\n####\n"
               "####\n##..\n",
    "fat-1-2": "....##\n.#####\n######\n######\n.#####\n.####.\n.##...\n",
}

# SHA-256 over the files that ``fixtures dump`` writes, in order of name:
# each file's name, a newline, then its bytes.
DUMP_DIGEST = \
    "147ca19f6bc8ed75b3a0faa5ca59898bbbe0faea8262671a736db2383b05cced"

# SHA-256 over the table output of the command on each core fixture, in
# order of name.
TABLE_DIGESTS = {
    ("count",):
        "687017b13378a961017bd0abb9d836e92b0fd02fb9f4214c5161fa454c2edf29",
    ("complex", "--betti", "--collapse", "--cube"):
        "a4c03de64f6e21e02887b493f76e4d7e88230be55e93450bddf3afab471ac0e9",
}

# SHA-256 over the ``poly KIND ... --format json`` output for every argument
# list that ``_poly_params`` yields, in order.
POLY_DIGESTS = {
    "A":
        "2d1ffdd3f7ec433022a047582bcecb28be3146480d152b7b9f57aa53e5fa5490",
    "F":
        "76fd5af15e12f2696cb87ba994a16144d5f7ee4d6272eef7cf0e5858b9a3ca09",
    "P":
        "4a664b4afa4b26c11f24516c0c5d4f1367f6b84e2ebdf8f5750399fcc41c9ac9",
    "closed":
        "a8525b275a2e2f069b8f4b6bbe145c0586be6cce5454abf30c578a4319568e20",
}


def _poly_params(kind):
    """F and P for n <= 24 with no bump and every bump, A for
    0 <= k <= d <= 16, and the closed form for n <= 24."""
    if kind == "A":
        for d in range(17):
            for k in range(d + 1):
                yield [str(d), str(k)]
        return
    # P(0) has no closed form to compare with, so P and closed start at 1.
    for n in range(0 if kind == "F" else 1, 25):
        yield [str(n)]
        if kind != "closed":
            for bump in range(1, n + 1):
                yield [str(n), str(bump)]


def test_table_covers_the_core_fixtures():
    assert sorted(DIGESTS) == sorted(core_fixture_names())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_complex_output_digest(capsys, name):
    code = main(["complex", name, "--betti", "--collapse", "--cube",
                 "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("rows,cols", sorted(RECTANGLE_DIGESTS))
def test_rectangle_output_digest(capsys, tmp_path, rows, cols):
    path = tmp_path / f"rect-{rows}x{cols}.txt"
    path.write_text("\n".join("#" * cols for _ in range(rows)) + "\n")
    code = main(["complex", str(path), "--betti", "--collapse", "--cube",
                 "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == RECTANGLE_DIGESTS[rows, cols])


@pytest.mark.parametrize("name", sorted(SHAPE_FILE_DIGESTS))
def test_shape_file_output_digest(capsys, tmp_path, name):
    text, want = SHAPE_FILE_DIGESTS[name]
    path = tmp_path / name
    path.write_text(text)
    code = main(["complex", str(path), "--betti", "--collapse", "--cube",
                 "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize("which", sorted(SHAPE_DIGESTS))
def test_corpus_shapes_digest(which):
    if which == "zoo-10":
        shapes = polyomino_zoo(10)
    else:
        shapes = random_quad_glued(int(which.split("-")[1]))
    text = repr([(name, sorted(cells)) for name, cells in shapes])
    assert (hashlib.sha256(text.encode()).hexdigest()
            == SHAPE_DIGESTS[which])


def test_verify_output_digest(capsys):
    code = main(["verify", "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGEST


def test_fixtures_dump_digest(capsys, tmp_path):
    assert main(["fixtures", "dump", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    files = sorted(tmp_path.iterdir())
    assert len(files) == len(core_fixture_names())
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == DUMP_DIGEST


@pytest.mark.parametrize("command", sorted(TABLE_DIGESTS),
                         ids=lambda command: command[0])
def test_table_output_digest(capsys, command):
    digest = hashlib.sha256()
    for name in sorted(core_fixture_names()):
        assert main([command[0], name, *command[1:]]) == 0
        out, _ = capsys.readouterr()
        digest.update(out.encode())
    assert digest.hexdigest() == TABLE_DIGESTS[command]


@pytest.mark.parametrize("kind", sorted(POLY_DIGESTS))
def test_poly_output_digest(capsys, kind):
    digest = hashlib.sha256()
    for params in _poly_params(kind):
        assert main(["poly", kind, *params, "--format", "json"]) == 0
        out, _ = capsys.readouterr()
        digest.update(out.encode())
    assert digest.hexdigest() == POLY_DIGESTS[kind]


def test_face_digest():
    graphs = list(iter_fixture_graphs(seed=1))
    graphs += [(name, build_from_polyomino(text))
               for name, text in GRID_SHAPES.items()]
    digest = hashlib.sha256()
    for name, g in graphs:
        digest.update(f"{name}\n".encode())
        for f in build_complex(g).faces:
            digest.update(f"{f.matching.sorted_edges()} "
                          f"{sorted(f.cycles)}\n".encode())
    assert digest.hexdigest() == FACE_DIGEST
