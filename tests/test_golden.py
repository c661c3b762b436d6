"""Pinned stdout of ``solve``, ``oracle`` and ``grid-exp``, and pinned CSVs
of ``cont-extremal``.

Each instance runs ``solve --mode min|max|both``, with and without
``--witness``, and ``oracle`` with and without ``--witness`` where the
brute force is small enough.  The sha256 of the runs' exit codes and
stdout, in that order, is pinned per instance, so any change to the bytes
written (separators, escapes, number formats, key order) fails here.
"""

import hashlib
import io
import json

import pytest

from monoext.cli import main

PWL = "pwl:0,0;0.4,0.1;1,1"

# Labels that JSON writes with escapes, separators inside strings, numbers
# whose text is not their Python repr, and nested arrays.
AWKWARD = [
    "é", "a\"b\\c", "x\", \"y", "]", "[", 1e16, -0.0, True,
    None, [1, [2, "z"]], 2**64 + 3, "😀", "tab\tnl\n", -2**70, 0.1, "\u2028",
]


def _grid_instances():
    for n in (3, 6):
        for order in ("product", "rows"):
            for m in ("id", "power:2", PWL):
                poset = {"grid": {"n": n, "order": order}}
                scale = {"from_m": {"n": n, "m": m}}
                column = [[i, 2] for i in range(1, n + 1)]
                if order == "product":
                    other = [[i, n + 1 - i] for i in range(1, n + 1)]
                else:
                    other = [[2, j] for j in range(1, n + 1)] + [[n, 1]]
                for qname, query in (("column", column), ("other", other)):
                    yield (f"grid{n}-{order}-{m}-{qname}", poset, scale, query,
                           n == 3)


def _large_grid_instances():
    # 1024 and 1089 elements.  Under the rows order the far row is an
    # antichain, so every fourth column of it keeps the search small.
    for n in (32, 33):
        for order in ("product", "rows"):
            for m in ("id", "power:2"):
                poset = {"grid": {"n": n, "order": order}}
                scale = {"from_m": {"n": n, "m": m}}
                column = [[i, 2] for i in range(1, n + 1)]
                if order == "product":
                    antichain = [[i, n + 1 - i] for i in range(1, n + 1, 3)]
                    far_row = [[n, j] for j in range(1, n + 1)]
                else:
                    antichain = [[1 + 7 * j % n, j] for j in range(1, n + 1, 3)]
                    far_row = [[n, j] for j in range(1, n + 1, 4)]
                for qname, query in (("column", column), ("antichain", antichain),
                                     ("far-row", far_row)):
                    yield (f"grid{n}-{order}-{m}-{qname}", poset, scale, query,
                           False)


def _awkward_instances():
    small = AWKWARD[:8]
    covers8 = [[small[0], small[1]], [small[1], small[2]], [small[0], small[3]],
               [small[4], small[5]], [small[3], small[6]], [small[5], small[7]]]
    values8 = [-3, "-7/3", -1.5, "0", 0.1, "1/3", 2, 1e16]
    yield ("awkward8", {"labels": small, "covers": covers8},
           {"values": values8}, [small[2], small[4], small[7], small[3]], True)
    # 16 labels as a 4 x 4 product grid, row-major.
    grid = [AWKWARD[4 * i:4 * i + 4] for i in range(4)]
    covers16 = []
    for i in range(4):
        for j in range(4):
            if i < 3:
                covers16.append([grid[i][j], grid[i + 1][j]])
            if j < 3:
                covers16.append([grid[i][j], grid[i][j + 1]])
    values16 = [f"{k}/3" for k in range(1, 17)]
    values16[0], values16[2], values16[5], values16[6] = 1e-300, 1.0, 2.0, 2.3
    labels16 = AWKWARD
    for sname, scale in (("values", {"values": values16}),
                         ("power2", {"from_m": {"n": 4, "m": "power:2"}})):
        for qname, query in (("diag", [grid[3][0], grid[2][1], grid[1][2], grid[0][3]]),
                             ("mixed", [grid[1][1], grid[0][3], grid[3][3], grid[2][0]])):
            yield (f"awkward16-{sname}-{qname}",
                   {"labels": labels16, "covers": covers16}, scale, query, True)


INSTANCES = (list(_grid_instances()) + list(_large_grid_instances())
             + list(_awkward_instances()))

PINNED = {
    "grid3-product-id-column":
        "4d54c90a29afa63b7958d19eecd2e71141d44babf2adbb1bbfce4cd2cfa2e801",
    "grid3-product-id-other":
        "bb4d247a63ab0c1097730e2f37c3490a166b00c951f409db00c9f23b1c41e050",
    "grid3-product-power:2-column":
        "c529b4e925f8252e22432f25279861475754f6e87a2601b4766e70e48e4d0d67",
    "grid3-product-power:2-other":
        "36e3b49af49e2ccb848314a7259052ffcf1a25371f35424674bace50f6fdfd7d",
    "grid3-product-pwl:0,0;0.4,0.1;1,1-column":
        "d73fdce6ad16a13d4925da28d129a4c766e5124ecc9a4eb3a5671807f4beb796",
    "grid3-product-pwl:0,0;0.4,0.1;1,1-other":
        "5cf550fb0ffc99ce8fe2263bb0d4add825aeb8f385ef4963d5108ce450008fb7",
    "grid3-rows-id-column":
        "a56302fafd77fe36dd4ef942ab8a20fee7d23e727ca6da06cac54f0940702218",
    "grid3-rows-id-other":
        "7232897df47b6762ba8af4a726678b596ef70db7b3f5345ea94a128a7c09be1b",
    "grid3-rows-power:2-column":
        "0a553cd833993a9bae73eafac69c7a4239a3aa46dc9e78277af5eca3d766513e",
    "grid3-rows-power:2-other":
        "b8ac1c1129cd24f90d2f6cd440a93d3c8d62ff50ae70f111065fb3439997049f",
    "grid3-rows-pwl:0,0;0.4,0.1;1,1-column":
        "e872f3c77af177be76f03abf779c63e26135966937b07b1c8c93e786c3c45fe6",
    "grid3-rows-pwl:0,0;0.4,0.1;1,1-other":
        "2bcf1918a43623da7e7c51b339a211dc1d7915244bba755507ede52d11305449",
    "grid6-product-id-column":
        "6e157c690158fbc0f880075fa18ce9921ebda9e16a09038ab06d96e41557c131",
    "grid6-product-id-other":
        "71ed975537d0a3f439cd49a2b815c3fb34912f753e9e1754357e9a83a78bdbbe",
    "grid6-product-power:2-column":
        "1d411a76c7d21cf7171f7d307be167e03f733e59d3e7f7cdf91646c310d731e2",
    "grid6-product-power:2-other":
        "1290d6dfdcbdc0dc5da14c9a5a432b3930466a19f1d7cea5edf37e2d3d243228",
    "grid6-product-pwl:0,0;0.4,0.1;1,1-column":
        "6d56059e642c200b6b693c6f505e41a31b30854968ef228a0d604ba15bd0b9be",
    "grid6-product-pwl:0,0;0.4,0.1;1,1-other":
        "9fac34674043617857abdfd6fba891b671bc227d667b5eabc03ba8249f61e37b",
    "grid6-rows-id-column":
        "88427b91009765e7e7b0dca717669e54b7ff5f9bc8a129c704ea2357549c6f25",
    "grid6-rows-id-other":
        "6e760b9354f0a6f90705270c58de5423d38650b6faa46efb95a36cd02bd209fd",
    "grid6-rows-power:2-column":
        "aca924cd46b74267fad56631156309a9070c0ce3e8e4dfa5e3457d4320a9a30b",
    "grid6-rows-power:2-other":
        "2a6d17d5fc9e440eec811d6f5412bfd39f71df13f1d8d7104e8afb897eb5f674",
    "grid6-rows-pwl:0,0;0.4,0.1;1,1-column":
        "c02f2c210904281940f02b8bf33ddf9361fdd96c4905cfad01aaded3f1a5cff2",
    "grid6-rows-pwl:0,0;0.4,0.1;1,1-other":
        "bc90a3aa8c991044607c6200f8cd643eea071e28877a7f6247a154924343aa33",
    "grid32-product-id-column":
        "bbfd907d99a302edafcfc0455ea534d01896d2861ede19491a689be42a82ffef",
    "grid32-product-id-antichain":
        "ecd5f37ea7c60a089050b06e6c4df73613c650255d0562807d081c8bb721b1e6",
    "grid32-product-id-far-row":
        "547f9064ad76444c21445fc7b58a79b500894fd31726f0e9aafa3b7a9aa35bc2",
    "grid32-product-power:2-column":
        "29583da99b978a9bcab457443110e25f1239ef1db4f3bfbac308242d23dc6ebc",
    "grid32-product-power:2-antichain":
        "0bcc68c1fb014d8b69962fd0cc97b0acfdf5a19103a6a8c3c5f1a7e13b442a85",
    "grid32-product-power:2-far-row":
        "cb26b5bb694b29bda725d5316499268d4f2ec6d26d2d5ca344da022ee89ac742",
    "grid32-rows-id-column":
        "c86be1f8d89f19495ae89ca302e26c1a181dfac836ca42be158d1cc6b87461b5",
    "grid32-rows-id-antichain":
        "6c581ea4b422774c532749db5dd7219538dbc1373283057db7c2dacbdfbf0dc4",
    "grid32-rows-id-far-row":
        "4accb335fc11caa33e51cc83382b2fd9a7f713f6759bb7375de926d8922425f3",
    "grid32-rows-power:2-column":
        "393d040c94ae0f20a27f2c11ff528761f65507b17646b466eec27b45b8b1b945",
    "grid32-rows-power:2-antichain":
        "a7a532a3d1e3fa57eee5657663f0c516e6d18506cbc131643b905f569ca2db5b",
    "grid32-rows-power:2-far-row":
        "20c373769e3023715498766d8c3efa7dfe4327a86d491f4b50d742dbb40c24ef",
    "grid33-product-id-column":
        "f9b28a1a1604f80cc395ba2e3bbeb447a97ffb0d9f60adbb1edcdd50c1fe7f93",
    "grid33-product-id-antichain":
        "97f97099b91817deb2bc4e9f9f9c8c4e82e85bff47ea531f56db6b08a545b032",
    "grid33-product-id-far-row":
        "18079e8b1201a41de605f5c122d5549d3331915f2c7103d25f3b1ea708fa5014",
    "grid33-product-power:2-column":
        "4bc98a6707e3bb634cac46b4df00ba31b41d93ec3b598bd8a4e7eabbf49894d0",
    "grid33-product-power:2-antichain":
        "e22ab96e06a3cea79436c9392613df6aaffa133c606e8904b362bf5aad224ccc",
    "grid33-product-power:2-far-row":
        "763df061452cfaa14fe07ab61711f85d09dcde96b6dea34ea54a170ae795f1c3",
    "grid33-rows-id-column":
        "c1d4c0e5fdf974ccf9fa4b03cd31899fc6aad778fc6f3f2492a8a8f2d692dec2",
    "grid33-rows-id-antichain":
        "0602c39bfcf8e8216fc5ef605f90acb13b593f3c09b7237318cd033bf9b3aa0b",
    "grid33-rows-id-far-row":
        "c67671d4166f582e6a3d00721b7b436308a75dfa1961afbd57e8770d52b2c6f3",
    "grid33-rows-power:2-column":
        "d08fdf70726b14ee52bab23c4494507d52485e7da8ea3830f2c969a5f3bba298",
    "grid33-rows-power:2-antichain":
        "414f1d91876cf7793770304883036e335a514f7837e0e6dd4a2639695ca27b43",
    "grid33-rows-power:2-far-row":
        "d7ca4f67c33866694ee8684b9c3ce699454a04db2fee12bf6d3614f8c9ca8f65",
    "awkward8":
        "cbd0ca6b7ee3cbb22837261b58a4dff06907e34a280a21986247fdc1ef83eb79",
    "awkward16-values-diag":
        "abb04c66ef398ad78724655e33fd057d7bdd4899cc6718065e88c19d9a2846a0",
    "awkward16-values-mixed":
        "8e809a2967cccb2d7101df41467de82bf790f3575aadabd791a5eff720026cd2",
    "awkward16-power2-diag":
        "bef7290e702df46e095c0b237217b350a4fa9abb63fa9f11d3e8beb9e860c713",
    "awkward16-power2-mixed":
        "b983c7e6835b0f9d04fc7c0b35ebf4857f353213b476e1b872e77eb117e3a2dd",
}


def _digest(tmp_path, poset, scale, query, oracle) -> str:
    files = []
    for name, doc in (("poset", poset), ("scale", scale), ("query", {"query": query})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        files += [f"--{name}", str(path)]
    runs = [["solve", *files, "--mode", mode, *witness]
            for mode in ("min", "max", "both") for witness in ([], ["--witness"])]
    if oracle:
        runs += [["oracle", *files, *witness] for witness in ([], ["--witness"])]
    digest = hashlib.sha256()
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, stdout=out, stderr=err)
        assert code == 0, (argv, err.getvalue())
        digest.update(f"{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name, poset, scale, query, oracle", INSTANCES,
                         ids=[inst[0] for inst in INSTANCES])
def test_stdout_is_pinned(tmp_path, name, poset, scale, query, oracle):
    assert _digest(tmp_path, poset, scale, query, oracle) == PINNED[name]


# The antidiagonal of the n x n product grid under the `id` scale, an
# n-element antichain: the sha256 of the stdout of `solve --mode both`,
# without and with --witness, as the unpruned search wrote it.
ANTIDIAGONALS = {
    16: ("47123bae49f41fd942a8b6d525e3bc4d37d3e4cff13285c92766dfa30d7f4f44",
         "346c52437ddd897e1443b55d5f592346b537fb365d4ca1f66896541e102a91ce"),
    18: ("9437828273ddfc2a59a9be38becfee83c6d9ec2e8cb02f11a26c1826709c2f9d",
         "bb6ec517149baf5f7bcca2e360bef86bc32dc4d790a6dbaf3e9b0a4fd7634634"),
}


@pytest.mark.parametrize("n", ANTIDIAGONALS)
def test_antidiagonal_stdout_is_pinned(tmp_path, n):
    files = []
    for name, doc in (("poset", {"grid": {"n": n, "order": "product"}}),
                      ("scale", {"from_m": {"m": "id", "n": n}}),
                      ("query", {"query": [[i, n + 1 - i] for i in range(1, n + 1)]})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        files += [f"--{name}", str(path)]
    digests = []
    for witness in ([], ["--witness"]):
        out = io.StringIO()
        assert main(["solve", *files, "--mode", "both", *witness], stdout=out) == 0
        digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
    assert tuple(digests) == ANTIDIAGONALS[n]


# The surfaces the benchmark writes: (m, t, grid) and the sha256 of the CSV.
SURFACES = {
    "id-id": (
        "id", "id", 400,
        "58a4502696c17a7cf2c27522119325906edcdde97598cc224e0d1c5febf7915a"),
    "power2-const": (
        "power:2", "const:0.5", 400,
        "13ca82f7894b70ddf39aca7fb571a5c539e7efe7d8065c84d6999bf711e2ec5a"),
    "power2-pwlflat": (
        "power:2", "pwl:0,0;0.3,0.3;0.6,0.3;1,1", 200,
        "89ea8efe48aa25db11f7b9551d61b14eca13b9fdf47b7af6e8278358a4ffc96a"),
}


@pytest.mark.parametrize("name", SURFACES)
def test_surface_csv_is_pinned(tmp_path, name):
    m, t, grid, digest = SURFACES[name]
    out = tmp_path / "surface.csv"
    argv = ["cont-extremal", "--m", m, "--t", t, "--grid", str(grid), "--out", str(out)]
    assert main(argv, stdout=io.StringIO()) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# grid-exp over a sweep of n and alpha, each n with a valid --k: the
# sha256 of every run's exit code and stdout, in sweep order, per n.
GRID_EXP_ALPHAS = ("1e-300", "0.25", "0.5625", "0.7", "1.0", repr(0.1 + 0.2))
GRID_EXP = {
    2: (2,
        "f75815192382ca1d16d30a8b713637534641c2195c52dec5af240971d558c785"),
    3: (1,
        "fe708dfc16d25881714115e9835b5a7cadc67546b735e0732a8cbabcf4cde971"),
    7: (7,
        "08f94df2cc31cdd504a118d31376c58830d62fb8ef134ca36bdd8a5fc14d8851"),
    20: (4,
        "6a2917751f64023cf0ba6a0e313cf0fdf6f895fd798b5a42f3822ac3935f550f"),
    160: (32,
        "8e04e368e5312039aefb1ab0f0a71f834d61031a72422c16f9ae1bd6228b0228"),
    333: (9,
        "7fd529080ed72e09a7865a9ef7cc9d54ca1b65f8460abd96c523692c90d63fcc"),
    1000: (8,
        "21a17f6e148fa8e6bb23d1e3bb0b990fb9506bd0e4a0a20505e1fc84417b7094"),
}


@pytest.mark.parametrize("n", GRID_EXP)
def test_grid_exp_stdout_is_pinned(n):
    k, want = GRID_EXP[n]
    digest = hashlib.sha256()
    for alpha in GRID_EXP_ALPHAS:
        out, err = io.StringIO(), io.StringIO()
        argv = ["grid-exp", "--alpha", alpha, "--n", str(n), "--k", str(k)]
        code = main(argv, stdout=out, stderr=err)
        assert code == 0, (argv, err.getvalue())
        digest.update(f"{code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == want
