"""Byte-identity of the command-line front end.

Every query of a fixed matrix (commands x output formats x engines x graphs)
runs through `cli.main`; each (graph, command) group is pinned by a sha256 of
the argument lists, exit codes and stdout of its queries.  The graphs are the
two golden examples and the first 20 graphs of the seeded corpus, the latter
also with costs for `optimal`.  The digests were recorded before the CLI and
the engines were refactored into their present form, so a change that alters
any byte of output or any exit code on these queries fails here.

`PYTHONPATH=src python tests/test_golden_cli.py` prints the table for the
current code.
"""

import contextlib
import hashlib
import io

import pytest

from latinpaths.cli import main

from conftest import FIVE_VERTEX_TEXT, FOUR_VERTEX_TEXT, build_corpus

CORPUS_GRAPHS = 20
FORMATS = ((), ("--format", "json"))


def _corpus_text(graph, weighted: bool) -> str:
    lines = ["vertices: " + " ".join(graph.vertices)]
    for u, v in graph.arcs:
        if weighted:
            # Halves in -0.5..2: integer and fractional cost text, and ties.
            cost = ((7 * graph.index(u) + 3 * graph.index(v)) % 6 - 1) / 2
            lines.append(f"{u} {v} {cost:g}")
        else:
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def graph_texts() -> dict[str, str]:
    texts = {"four": FOUR_VERTEX_TEXT, "five": FIVE_VERTEX_TEXT}
    for index, graph in enumerate(build_corpus()[:CORPUS_GRAPHS]):
        texts[f"corpus{index:02d}"] = _corpus_text(graph, weighted=False)
        texts[f"corpus{index:02d}w"] = _corpus_text(graph, weighted=True)
    return texts


def _vertices(text: str) -> list[str]:
    for line in text.splitlines():
        if line.startswith("vertices:"):
            return line[len("vertices:"):].split()
    raise AssertionError("no vertex line")


def graph_queries(name: str, texts: dict[str, str]) -> dict[str, list[tuple]]:
    """Queries per command on graph `name`; the string FILE stands for its
    file, WFILE for its weighted companion (the graph itself when it has
    costs or no companion)."""
    v = _vertices(texts[name])
    n = len(v)
    weighted = "WFILE" if name + "w" in texts else "FILE"
    pairs = [(v[0], v[-1]), (v[-1], v[0])] if n > 1 else []
    queries = {
        "paths": [
            ("paths", "FILE", "-i", s, "-j", t, "-k", str(k))
            for s, t in pairs for k in sorted({1, 2, n - 1, n})
        ],
        "circuits": [
            ("circuits", "FILE", "-i", s, "-k", str(k))
            for s in sorted({v[0], v[-1]}) for k in sorted({1, 2, n, n + 1})
        ],
        "hamiltonian": [
            ("hamiltonian", f, "--kind", kind)
            for f in sorted({"FILE", weighted}) for kind in ("path", "circuit")
        ],
        "count": [
            ("count", "FILE", "-i", v[0], "-j", t, "-k", str(k))
            for t in sorted({v[0], v[-1]}) for k in (1, 2, 5, 40)
        ],
        "optimal": [
            ("optimal", weighted, "--kind", kind, "--objective", objective)
            for kind in ("path", "circuit") for objective in ("min", "max")
        ] + [
            ("optimal", weighted, "--kind", "path", "--from", v[0], "--to", v[-1]),
            ("optimal", weighted, "--kind", "circuit", "--objective", "max", "--from", v[-1]),
            ("optimal", "FILE", "--kind", "path"),
        ],
    }
    if name == "five":
        queries["hamiltonian"].append(
            ("hamiltonian", "FILE", "--kind", "circuit", "--limit", "3")
        )
    matrix = [("matrix", "FILE", "-k", str(k)) for k in sorted({0, 1, 2, n, n + 1})]
    expanded = {
        command: [q + fmt + eng for q in qs for fmt in FORMATS
                  for eng in ((), ("--engine", "oracle"))]
        for command, qs in queries.items()
    }
    expanded["matrix"] = [q + fmt for q in matrix for fmt in FORMATS]
    return expanded


WORD_QUERIES = [
    q + fmt
    for q in (
        *(("words", "-n", str(k)) for k in range(0, 6)),
        *(("words", "-n", str(k), "--count-only") for k in (1, 6, 7, 8, 9)),
        ("words", "--alphabet", "a,b,c"),
        ("words", "--alphabet", "x,,y"),
        ("words", "--alphabet", "a,a"),
        ("words", "-n", "9"),
    )
    for fmt in FORMATS
]


def run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def group_digest(queries, files: dict[str, str]) -> str:
    digest = hashlib.sha256()
    for query in queries:
        code, out = run(files.get(arg, arg) for arg in query)
        digest.update(repr((query, code, out)).encode())
    return digest.hexdigest()


def all_groups(texts):
    """(group id, queries) for every group, in table order."""
    for name in texts:
        if name.endswith("w") and name[:-1] in texts:
            continue
        for command, queries in graph_queries(name, texts).items():
            yield f"{name}/{command}", name, queries
    yield "words", None, WORD_QUERIES


def write_graphs(directory) -> None:
    for name, text in _TEXTS.items():
        (directory / f"{name}.txt").write_text(text)


def _files(directory, name) -> dict[str, str]:
    if name is None:
        return {}
    files = {"FILE": str(directory / f"{name}.txt")}
    files["WFILE"] = str(directory / f"{name}w.txt") if name + "w" in _TEXTS else files["FILE"]
    return files


GOLDEN = {
    "four/paths": "c5a1b5326f24e459c97ecbcea84182322062513f6c4558f359accc4f67791f38",
    "four/circuits": "ec26bd67b40740cf421ecd987d881940be7613f48096f5b5680b638504ae100f",
    "four/hamiltonian": "6d7ea3884a3af32c0d6977a9bc1df138bc088a6c5bdad28dd8fa00ef070e8a67",
    "four/count": "0350d0949dd0693f82c36222231406ac816e207eb7cdb21e7d8465c7222d5ba4",
    "four/optimal": "6778b68a82d9c0c3c4bb0cafeba44268d9dd70a6c67338965f381aae0cf7a1b1",
    "four/matrix": "6568d724106b4a3d3bf336ea53c49380ee8aeefa426c45c5a506c2bd598b0090",
    "five/paths": "a8fa7b2cc1dad97054272347e17bb6979e238f25d3cf3fde0e060e7284ccd99a",
    "five/circuits": "ec15a90649c8fefb7f8730ee06dc0696d417250a55cf4274148b67f5a851f7a0",
    "five/hamiltonian": "320d89e5d9f701f1096bffe0b457c5963319c1c76303cc62e8c348f0187f5fb0",
    "five/count": "c35b5c79f0700d1e8d77c8955d75726969313a7c6256a6d0b2950e487cda39a9",
    "five/optimal": "9efdf9664444fabcd2af86aa9eef4f63744cbbca50dbe751789024ed6ea695b7",
    "five/matrix": "41d05cd4177a82a6c75975fdc747488aec7051a0108bcab69e4611b93f1c4946",
    "corpus00/paths": "19e4fd3119abd794b70826111ce7247c21f121a175b83045649cb9ff120d875c",
    "corpus00/circuits": "63356b0c6aa8bd0c1fe777572cb77a88fc03a0e4c1182fc8ae64557989386fa0",
    "corpus00/hamiltonian": "2d937d27a62b92bc904a4eba0df1bd3453edbd3fe90032c186ecfac8a010ebbb",
    "corpus00/count": "76ee1185b97429c244f9863f8fa025147b3eb4dfdec49383bf7b242ee82f985e",
    "corpus00/optimal": "1c7994db39a9cd77ac5674b17272cf7e5423f97217845149be1c4e38a7a6e027",
    "corpus00/matrix": "700aa7972d08ffe6f12185f96f852cc0fe6f018cdf2cf9deb1005e796ef36fff",
    "corpus01/paths": "80eb3ff5c75c5cfab3263698065577106288e6f05c55fdeca280615eeb09b318",
    "corpus01/circuits": "2d1b0eb0b5f266c1ba9ee5fdc63415535b22afdaddad9845d3b4216f61ec38c7",
    "corpus01/hamiltonian": "06a7597589965acf42021af7326d55c8ef2fbd67e37080be979b8f013cc51a73",
    "corpus01/count": "40da917f49dd5b8dc013c2e6aed894eb3886249ffd47ab487c22ea019e88995b",
    "corpus01/optimal": "25cd970ca68b9165265767953d448a0c82142a6285e21cb2db5cef32e3da3ac2",
    "corpus01/matrix": "d22bc29ae4041cb12236e1ac28b2905f3879dc1e625e4ff85d684b4b437fa0e8",
    "corpus02/paths": "597820e7c59be25f6ca720a9322bb4bf40fb1a5aa2b5eb665d51cb39665de2ce",
    "corpus02/circuits": "3976a156e2d958e7ecd9e2931b56fd25bea8ce6ab0ec2067bc337981e2536d2d",
    "corpus02/hamiltonian": "60b342fd04c56660ee120984db8cef60d13b3535f92452024ea661b5d4b59e96",
    "corpus02/count": "df5af40013e4f558ff701fee12f26688de7e5b33d99e892b8eda4e6337ed21ff",
    "corpus02/optimal": "0cdb11b40a70edb5df204f88ee463770126bda0d5e1378e9a9c73ee37a2409e6",
    "corpus02/matrix": "1ff6487a82219fecb05a494b917de0a7f5a94ab220db6c0456a35b7b300ee123",
    "corpus03/paths": "f71d8aa962bd786f1e6f61a0aec2e1b633802e93281cd29a1beeb22a4d84ed6d",
    "corpus03/circuits": "6000a96d6344560ea3f73871d56eb97c8470ea711c14de960ece57f6e90c3962",
    "corpus03/hamiltonian": "f0341411cf46dfc30af7c1674e38ed431ebd543170e3712e0d828a0fe0807c9c",
    "corpus03/count": "573cb8d0df6c602f8cf4a2be62a8e99672bd0c3e1b2c7bf6e43cfc67b01d603b",
    "corpus03/optimal": "760990245e4999fb17daf80fe915456a76bccfafa1606903ce09ef5a6de807ef",
    "corpus03/matrix": "571339a447de5281dd39d30bf22a5abc57af3b62ae2115cf6c589cb9ee453baa",
    "corpus04/paths": "51f2f96442e12300fc687ce25c877221f8a0c252f4ff25b8d01b917524d38282",
    "corpus04/circuits": "075dc075310761522b5f3638e0edda59ea5a6645ae1a66047fe0bcaad6aefd6e",
    "corpus04/hamiltonian": "2d937d27a62b92bc904a4eba0df1bd3453edbd3fe90032c186ecfac8a010ebbb",
    "corpus04/count": "af2376d7729d3bd8d4f489b8ccb7cbbdef3106726c0938000d07c6b703f821c6",
    "corpus04/optimal": "b03b7f2fefbcc0e32dff12368831d788e7f44c7e1e403239898217749ebef19e",
    "corpus04/matrix": "b135f236d735ff49838250cba69c4515259f290d1a247c98e1ff4d4b1bf81328",
    "corpus05/paths": "ae9e0ebe71a2a6144513a2ed2bab8958063315a70d197ee5082ca9d9cd8e1582",
    "corpus05/circuits": "40c6707827d9c84e449170d5a1fb4f214a4ac7e68c79b82537b0573501698f09",
    "corpus05/hamiltonian": "6e56234d9b13dc887fe63745ba0c67f441c3edc0b2c96465217dbaf7f04d5ef3",
    "corpus05/count": "1458ec718625bebb41945205d93ccc5df6138d4cfbb80c876d18672d5a69946d",
    "corpus05/optimal": "a89b59afff6e6b6dc19c8c7b1de9f7e4d61f70d9a75ad9f1ee3c9606f91a4fab",
    "corpus05/matrix": "8dd35bab6338d37aa4f8b797adce64f2fa943bbd31871386db745b5683238068",
    "corpus06/paths": "f112c4774a9df4f3d0510313e9687798f9ab5eeb66a12664e4e34e3a19876f0e",
    "corpus06/circuits": "ec382853f08993e28135d9ad9620568db2c92ce1ef69cb1d050896c1691cc919",
    "corpus06/hamiltonian": "cc709caffde3b4de0c6377489bb828884fc2b8c81f2392937523ddd338f22bb8",
    "corpus06/count": "3574d94d05a15a40bcfa770344bf7791114409b89176b5e7134a3a53b6209241",
    "corpus06/optimal": "ae7c165a32cd3329ac9eb0da0d6d0e706117eedbe64d24793c6ddb18d96ba86e",
    "corpus06/matrix": "f40b937146fbfef1140d8900c06945de37ef7045062044a63ca4565b25c515eb",
    "corpus07/paths": "51f2f96442e12300fc687ce25c877221f8a0c252f4ff25b8d01b917524d38282",
    "corpus07/circuits": "075dc075310761522b5f3638e0edda59ea5a6645ae1a66047fe0bcaad6aefd6e",
    "corpus07/hamiltonian": "2d937d27a62b92bc904a4eba0df1bd3453edbd3fe90032c186ecfac8a010ebbb",
    "corpus07/count": "af2376d7729d3bd8d4f489b8ccb7cbbdef3106726c0938000d07c6b703f821c6",
    "corpus07/optimal": "b03b7f2fefbcc0e32dff12368831d788e7f44c7e1e403239898217749ebef19e",
    "corpus07/matrix": "8dac8f9d90536e4fa758e56f45d9793c604707e1460bcbba0f44f04e126bdfb7",
    "corpus08/paths": "9160a6fa80d34d5943dd4d29e610800b36a72fac6df39f69bc8a615c354fa208",
    "corpus08/circuits": "81d6da1bb13978eb120398eb68b18dade4037577d042793d71417f95fa24fd64",
    "corpus08/hamiltonian": "2d937d27a62b92bc904a4eba0df1bd3453edbd3fe90032c186ecfac8a010ebbb",
    "corpus08/count": "cb700b5606057072b7eff8c728a2ffcced174cfa694958a6aefd5dae1ff75223",
    "corpus08/optimal": "f1382196114bfe7a71614acf9de4c4d8068ee212914e34578f846349eea04999",
    "corpus08/matrix": "bf8ef99d3c04e6de7099ce401d141faa1c2a57a4501b4712b799c3f612abc57f",
    "corpus09/paths": "e00a30a35caf4a47d147de913da3beac4ca602d71784280e7c9d463a3689fd2f",
    "corpus09/circuits": "272633aa03868d16a1086c5c6374b72398c3a01a043d6152e430b0893b8b57ae",
    "corpus09/hamiltonian": "612ebabd1eb72b98983eb04a5ddfde115fb3c5ad612ba3c5d8fc6ba44d576096",
    "corpus09/count": "8a97a98703012c8d5f2bf8c9588699476014bf73c46ec881ff6c55694552b6d0",
    "corpus09/optimal": "4fab959eb839edf062bdeadd749ca53ebf6e6eaad94015959e5f7911ab686c8b",
    "corpus09/matrix": "a061d488ebeecb136a8faae36a19cb9f7ebd5d9078dec48db8bab1c2ae34d3be",
    "corpus10/paths": "a614ed55a5942dd21bda1fa7632b20811578b6edaa005e2ffcb3aa5538b39951",
    "corpus10/circuits": "afee110e2466689f41892cb143431f063aed200eb0eeed8c41fb863218fce020",
    "corpus10/hamiltonian": "968bb0049fc195d3b5ba1afdd8473b0d58dcb3c1512c9ad1bb5339005dcfacd5",
    "corpus10/count": "48c7c5a1574c755881e973047c941cf310b90ab037ab33734a9b3553705f29cd",
    "corpus10/optimal": "559f8f5f201e20cab6ea837f36c9314d03092470178737a1eb3cc34a3b548976",
    "corpus10/matrix": "e7a7105da10e16a41e313deeb09a950c747bc09e2512f881fcff2caf375422dd",
    "corpus11/paths": "4eae1c5acad65851ba25990bef21c9bc944f7779de065de841aad479eca0b4f5",
    "corpus11/circuits": "63356b0c6aa8bd0c1fe777572cb77a88fc03a0e4c1182fc8ae64557989386fa0",
    "corpus11/hamiltonian": "2d937d27a62b92bc904a4eba0df1bd3453edbd3fe90032c186ecfac8a010ebbb",
    "corpus11/count": "1366a1ab87313d7f2f0e38852785e9a986788a688c7296f7514568edd8bb142e",
    "corpus11/optimal": "1c7994db39a9cd77ac5674b17272cf7e5423f97217845149be1c4e38a7a6e027",
    "corpus11/matrix": "e142c3407990d40f51f4fffd554d71edd70f71e4386dc60e00de58ee41139606",
    "corpus12/paths": "b406fbff80a74d4620c93dee8d3e3279afd0b234fc3b93e326d47384973ff128",
    "corpus12/circuits": "689d24f079eacb7bc639adc37f35da1feef930479421501007cd1a46fea14c06",
    "corpus12/hamiltonian": "e2c259fb7d92bb5589560f476c0367763e3a8742762a77e8d9387e0a59d14ad3",
    "corpus12/count": "b8ac4c5ce5319e84e2f5bff85458ebd0a2878bfe53dc7b3d9bd7f75ea906f719",
    "corpus12/optimal": "901de7fe424bad62d629d4a54dd3482a223e828782f192b0c9c47f1c3d047232",
    "corpus12/matrix": "6bf8c82254b89888ec3f2decfffd2a1e733024f11fc7cf10feb498df100729ce",
    "corpus13/paths": "d2703f0cf8af7410758e673cbba520007946bad2ec388113690d62d9e26c51aa",
    "corpus13/circuits": "4d6ad87b613d2f59a64df151a7831f392ed9a00915ea6d54444b59f51b124074",
    "corpus13/hamiltonian": "2d937d27a62b92bc904a4eba0df1bd3453edbd3fe90032c186ecfac8a010ebbb",
    "corpus13/count": "5e235ebdacc6d8fe7cfeb9ed9debdad43f07180ff5213fa1dc8becabd9292d82",
    "corpus13/optimal": "e91279ac800ef9075029bcd7ed408eb76b3af34826a2d258cc3d0a5a851e58bb",
    "corpus13/matrix": "30676943a2ae31fd9a9f785a5e4bc3d54c54e65d255958e5f192a2072f6b8cf0",
    "corpus14/paths": "032b9524d4ddb6b07498a8dda0bba78db6b153a4c3fd0612b688df6fce45fd22",
    "corpus14/circuits": "628a38f32492d9a203ec86b3ca204fc419fe72eb0065c8b2fbbb27da2bb13771",
    "corpus14/hamiltonian": "2d937d27a62b92bc904a4eba0df1bd3453edbd3fe90032c186ecfac8a010ebbb",
    "corpus14/count": "cab289cc1fe0e4dce4634eff82914960519d13f9b001ae59eb4828e40dbc5205",
    "corpus14/optimal": "f1382196114bfe7a71614acf9de4c4d8068ee212914e34578f846349eea04999",
    "corpus14/matrix": "31bb32020d3331350b445038d472d32829a076670bb97150398ca25eabd4c72a",
    "corpus15/paths": "d9597524f17ee20523c249245217293bf3f9e1a1f726891fb515d0c07b0a7880",
    "corpus15/circuits": "01a711ce66424871051a31a4bd86dde0dd888b85358efa1c20f878a879271faf",
    "corpus15/hamiltonian": "2d937d27a62b92bc904a4eba0df1bd3453edbd3fe90032c186ecfac8a010ebbb",
    "corpus15/count": "307f450fed1d3246c68023f94186c8f615e1aafa4e40479e21f3982f7e67dc77",
    "corpus15/optimal": "382075f241b60e62a689e199ff68039f8c51f6364637218234169e11eda0206b",
    "corpus15/matrix": "2c4554cbfb067dfcd25417477c2ca89f3818b9cfda114580edb094719dab79f0",
    "corpus16/paths": "f074181f4e5303bccaadffbaf3fbf56a667607686d58ac63f1c6fa60fafd173f",
    "corpus16/circuits": "81d6da1bb13978eb120398eb68b18dade4037577d042793d71417f95fa24fd64",
    "corpus16/hamiltonian": "2d937d27a62b92bc904a4eba0df1bd3453edbd3fe90032c186ecfac8a010ebbb",
    "corpus16/count": "c09b5eb83892193bd59170611f4aa76f3c5245fbbd7255614dc22a6b2a2b0b28",
    "corpus16/optimal": "f1382196114bfe7a71614acf9de4c4d8068ee212914e34578f846349eea04999",
    "corpus16/matrix": "64ca55beec49904100f418ea280be30755fb31e61851619c9c2829599482e432",
    "corpus17/paths": "430afbedfa332799c9fb1be2fd815f78505a0e8c777ef6f4ad94f9fa21540025",
    "corpus17/circuits": "41da03798e88f12ee6747d8ab588fa1238624938a238de0443f111bfdeaf9358",
    "corpus17/hamiltonian": "aec1042271e1fab8af95bce14d08b53904c0ed14e2734ee764c1be9625b90574",
    "corpus17/count": "9a60a0455cc9ef4bcee4c5e7bb4857e6e25b491c9233f0d85e5a68d85e4e2aa8",
    "corpus17/optimal": "e62562d92e9a3830452313faf6d2be6ce385f5cde2a3dab20538819fc818db36",
    "corpus17/matrix": "560bd5dd2266af184ab638903577a71ede06ea936dbfc2499468215a9ee34cba",
    "corpus18/paths": "8fe9a33f06cad38c1b3186343a30c20a9e0d81229081b59d55239ddf4ed06f57",
    "corpus18/circuits": "bc61297cf80712a63ae4b188da436260630807a32cf660bc520db2b76f9eab95",
    "corpus18/hamiltonian": "2d937d27a62b92bc904a4eba0df1bd3453edbd3fe90032c186ecfac8a010ebbb",
    "corpus18/count": "89e1887c42a73f8052d77b5fb1120b575580028a75df1e705d3e21f20f2612b6",
    "corpus18/optimal": "9c44471afc754ee25cb4eaf5eb3eb1d0367716853e0dbd62cb8048b00ebb1894",
    "corpus18/matrix": "2fec26dec93b4a1ae830feec82a6ce140b93244e46e546964d33d6401aa74d4e",
    "corpus19/paths": "51f2f96442e12300fc687ce25c877221f8a0c252f4ff25b8d01b917524d38282",
    "corpus19/circuits": "075dc075310761522b5f3638e0edda59ea5a6645ae1a66047fe0bcaad6aefd6e",
    "corpus19/hamiltonian": "2d937d27a62b92bc904a4eba0df1bd3453edbd3fe90032c186ecfac8a010ebbb",
    "corpus19/count": "af2376d7729d3bd8d4f489b8ccb7cbbdef3106726c0938000d07c6b703f821c6",
    "corpus19/optimal": "f79189ba937d197b21c4f0791e6354203a9dac11694cb03f1fb31b9ca18e367e",
    "corpus19/matrix": "9ce74d2108c5728094f5e149512cd4ce6594fea9518460a514d9b882906d957b",
    "words": "537d665d12e9dc006f150ea1f9f86f2169448e2d469f287a60109137e1d0fb3b",
}


_TEXTS = graph_texts()
_GROUPS = list(all_groups(_TEXTS))


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_graphs(directory)
    return directory


def test_table_covers_every_group():
    assert sorted(GOLDEN) == sorted(group for group, _, _ in _GROUPS)


@pytest.mark.parametrize(
    "group, name, queries", _GROUPS, ids=[group for group, _, _ in _GROUPS]
)
def test_golden_output(graph_dir, group, name, queries):
    assert group_digest(queries, _files(graph_dir, name)) == GOLDEN[group]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        write_graphs(directory)
        for group, name, queries in _GROUPS:
            print(f'    "{group}": "{group_digest(queries, _files(directory, name))}",')
