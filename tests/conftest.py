import pytest

from ddnnf import parse_c2d, parse_d4, preprocess

from helpers import gadget_chain_c2d, random_c2d_text

# The running example: A and (B xor C) and (D or not D), variables
# A=1, B=2, C=3, D=4.  Model count 4; feature counts A:4, B:2, C:2, D:2.
RUNNING_EXAMPLE_C2D = """nnf 11 11 4
L 1 # A
L 2 # B
L -3 # !C
L -2 # !B
L 3 # C
L 4 # D
L -4 # !D
A 2 1 2
A 2 3 4
O 0 2 7 8
O 4 2 5 6
A 3 0 9 10
"""

# Same circuit in the d4 dialect; the root And is declared as index 1.
RUNNING_EXAMPLE_D4 = """a 1 0
o 2 0
o 3 0
t 4 0
1 4 1 0
1 3 0
1 2 0
3 4 2 -3 0
3 4 -2 3 0
2 4 4 0
2 4 -4 0
"""

# Unsmooth two-branch disjunction: (not A and B) or (A and C), n=3.
# Left branch misses C, right branch misses B.  Count 4.
UNSMOOTH_PAIR_C2D = """nnf 7 6 3
L -1
L 2
L 1
L 3
A 2 0 1
A 2 2 3
O 1 2 4 5
"""

# Shared-subtree circuit: (not A and B and (C or not C)) or
# (A and D and (C or not C)); the (C or not C) node has two parents.
SHARED_SUBTREE_C2D = """nnf 10 10 4
L -1
L 2
L 3
L -3
O 3 2 2 3
L 1
L 4
A 3 0 1 4
A 3 5 6 4
O 1 2 7 8
"""

XOR_PAIR_C2D = """nnf 8 8 2
L 1
L -2
L -1
L 2
A 2 0 1
A 2 2 3
O 1 2 4 5
"""

# (name, format, text, num_variables or None)
RANDOM_SPECS = [
    ("rand_n5", 100, 5, 0),
    ("rand_n6", 150, 6, 0),
    ("rand_n8", 202, 8, 0),
    ("rand_n8_omit2", 250, 8, 2),
    ("rand_n10", 300, 10, 0),
    ("rand_n12a", 350, 12, 0),
    ("rand_n12b", 400, 12, 0),
    ("rand_n14", 452, 14, 0),
    ("rand_n16", 500, 16, 0),
    ("rand_n18_omit3", 550, 18, 3),
    ("rand_n20", 600, 20, 0),
    ("rand_n24", 650, 24, 0),
]


def fixture_texts() -> dict[str, tuple[str, str, int | None]]:
    texts = {
        "running_c2d": ("c2d", RUNNING_EXAMPLE_C2D, None),
        "running_d4": ("d4", RUNNING_EXAMPLE_D4, 4),
        "unsmooth_pair": ("c2d", UNSMOOTH_PAIR_C2D, None),
        "shared_subtree": ("c2d", SHARED_SUBTREE_C2D, None),
        "xor_pair": ("c2d", XOR_PAIR_C2D, None),
        "true_n0": ("d4", "t 1 0\n", 0),
        "true_omitted3": ("d4", "t 1 0\n", 3),
        "false_n2": ("d4", "f 1 0\n", 2),
        "single_pos": ("c2d", "nnf 1 0 1\nL 1\n", None),
        "single_neg": ("c2d", "nnf 1 0 1\nL -1\n", None),
        "single_omitted": ("c2d", "nnf 1 0 1\nL 1\n", 3),
        "gadget_chain8": ("c2d", gadget_chain_c2d(8), None),
    }
    for name, seed, n, omit in RANDOM_SPECS:
        texts[name] = ("c2d", random_c2d_text(seed, n, omit=omit), None)
    return texts


def build_circuit(fmt: str, text: str, num_variables: int | None):
    if fmt == "c2d":
        return parse_c2d(text, num_variables)
    return parse_d4(text, num_variables)


@pytest.fixture(scope="session")
def circuits():
    """Every fixture circuit, preprocessed once; queries only fill their
    idempotent caches (see :mod:`ddnnf.engine`)."""
    out = {}
    for name, (fmt, text, n) in fixture_texts().items():
        out[name] = preprocess(build_circuit(fmt, text, n))
    return out


@pytest.fixture(scope="session")
def running_example(circuits):
    return circuits["running_c2d"]


@pytest.fixture()
def reader_links(monkeypatch):
    """The circuits whose reader graph the engine links, one entry a link."""
    import ddnnf.engine

    calls = []
    link = ddnnf.engine._link_readers
    monkeypatch.setattr(
        ddnnf.engine, "_link_readers", lambda d: calls.append(d) or link(d)
    )
    return calls
