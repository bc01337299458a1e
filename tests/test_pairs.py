import re
from itertools import product

import pytest

from innerlie import (
    RootSystemError,
    catalog,
    pair_by_name,
    standard_ordering,
)
from innerlie.ordering import make_ordering
from innerlie.pairs import CatalogError, infer_grading
from innerlie.rootsys import all_simple_systems, build_root_system, root_vector
from innerlie.pairs import MAX_RANK


def test_catalog_rank_2():
    names = [pair.name for pair in catalog(2)]
    assert names == ["su(2,1)", "so(1,4)", "so(3,2)", "g2(2)"]


def test_catalog_rank_2_aliases():
    by_name = {pair.name: pair for pair in catalog(2)}
    assert "sp(1,1)" in by_name["so(1,4)"].aliases
    assert "sp(2,R)" in by_name["so(3,2)"].aliases


def test_catalog_excludes_su22():
    assert all(pair.name != "su(2,2)" for pair in catalog(8))


def test_catalog_rank_8_contents(catalog8):
    names = {pair.name for pair in catalog8}
    assert len(catalog8) == 61
    for expected in ["su(2,1)", "su(3,2)", "su(4,3)", "so(1,4)", "so(3,2)",
                     "so(5,4)", "sp(4,R)", "sp(2,2)", "so(8)*", "so(4,4)",
                     "g2(2)", "f4(4)", "f4(-20)", "e6(2)", "e6(-14)",
                     "e8(8)", "e8(-24)"]:
        assert expected in names
    e8 = next(pair for pair in catalog8 if pair.name == "e8(8)")
    assert e8.dim_k == 120


def test_catalog_every_exceptional_present(catalog8):
    names = {pair.name for pair in catalog8}
    assert {"g2(2)", "f4(4)", "f4(-20)", "e6(2)", "e6(-14)", "e8(8)", "e8(-24)"} <= names


def test_catalog_below_rank_2_empty():
    assert catalog(1) == ()


def test_catalog_deterministic():
    first = [(p.name, p.rank, p.dim_g, p.dim_k, p.painted_node) for p in catalog(6)]
    second = [(p.name, p.rank, p.dim_g, p.dim_k, p.painted_node) for p in catalog(6)]
    assert first == second


def test_dimensions_exact(catalog8):
    for pair in catalog8:
        roots = pair.system.roots
        compact = sum(1 for v in roots if pair.grading.is_compact(v))
        assert pair.rank + len(roots) == pair.dim_g
        assert pair.dim_g % 2 == 0
        assert pair.rank + compact == pair.dim_k


def test_su21_compactness_examples():
    pair = pair_by_name("su(2,1)")
    assert pair.painted_node == 2
    assert pair.grading.is_compact(root_vector(1, -1, 0))
    assert not pair.grading.is_compact(root_vector(1, 0, -1))
    with pytest.raises(RootSystemError):
        pair.grading.is_compact(root_vector(2, -2, 0))


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G2", 2), ("F4", 4)])
def test_parity_additivity(family, rank):
    by_family = {
        ("A", 2): "su(2,1)", ("B", 2): "so(1,4)", ("G2", 2): "g2(2)", ("F4", 4): "f4(4)",
    }
    pair = pair_by_name(by_family[(family, rank)])
    rs = pair.system
    for alpha, beta in product(rs.roots, repeat=2):
        if not rs.is_root(alpha + beta):
            continue
        lhs = pair.grading.is_compact(alpha + beta)
        rhs = pair.grading.is_compact(alpha) == pair.grading.is_compact(beta)
        assert lhs == rhs


@pytest.mark.parametrize("name,node", [
    ("g2(2)", 2), ("f4(4)", 1), ("f4(-20)", 4), ("e6(2)", 2), ("e6(-14)", 1),
    ("e8(8)", 1), ("e8(-24)", 8),
])
def test_exceptional_painted_nodes(name, node):
    assert pair_by_name(name).painted_node == node


def test_so14_painted_node_is_short_simple():
    pair = pair_by_name("so(1,4)")
    assert pair.painted_node == 2
    painted = pair.system.base.simples[1]
    assert painted == root_vector(0, 1)  # the short simple root


def test_infer_grading_rejects_impossible_dim():
    rs = build_root_system("A", 2)
    with pytest.raises(CatalogError):
        infer_grading(rs, expected_dim_k=7, conventional_index=0)


def test_infer_grading_checks_only_the_conventional_node():
    """B3 painted at node 1 gives dim k = 11.  Node 3 would give the 15 asked
    for, but a wrong conventional node is a catalog bug, not a fallback."""
    with pytest.raises(CatalogError, match="painted node 1 "):
        infer_grading(build_root_system("B", 3), 15, 0)


def test_so8_star_is_so_6_2():
    """so(8)* and so(6,2) are both catalog entries, D4 painted at nodes 4 and
    1 with dim k = 16: the diagram automorphism swapping those nodes keeps the
    Cartan matrix and carries the compact roots of one onto the other's."""
    star, split = pair_by_name("so(8)*"), pair_by_name("so(6,2)")
    rs = star.system
    assert split.system is rs and rs.family == "D" and rs.rank == 4
    assert (star.painted_node, split.painted_node, star.dim_k, split.dim_k) == (4, 1, 16, 16)
    swap = [3, 1, 2, 0]
    assert [[rs.cartan[i][j] for j in swap] for i in swap] == [list(row) for row in rs.cartan]

    at = {rs.coordinates(v): v for v in rs.roots}

    def image(v):
        c = rs.coordinates(v)
        return at[tuple(c[i] for i in swap)]

    assert {image(v) for v in rs.roots if star.grading.is_compact(v)} == \
        {v for v in rs.roots if split.grading.is_compact(v)}


def test_grading_never_mutates_with_ordering():
    pair = pair_by_name("su(2,1)")
    fixed = [pair.grading.is_compact(v) for v in pair.system.sorted_roots]
    standard_ordering(pair)
    assert [pair.grading.is_compact(v) for v in pair.system.sorted_roots] == fixed


def split_positive(pair, system):
    """The positive roots of a chamber, split into compact and noncompact."""
    positives = make_ordering(pair, system).positives
    return ([v for v in positives if pair.grading.is_compact(v)],
            [v for v in positives if not pair.grading.is_compact(v)])


def test_split_positive_su21():
    pair = pair_by_name("su(2,1)")
    compact, noncompact = split_positive(pair, pair.system.base)
    assert set(compact) == {root_vector(1, -1, 0)}
    assert set(noncompact) == {root_vector(0, 1, -1), root_vector(1, 0, -1)}


def test_split_positive_so14():
    pair = pair_by_name("so(1,4)")
    compact, noncompact = split_positive(pair, pair.system.base)
    assert set(compact) == {root_vector(1, 1), root_vector(1, -1)}
    assert set(noncompact) == {root_vector(1, 0), root_vector(0, 1)}


def test_split_counts_ordering_independent():
    pair = pair_by_name("so(3,2)")
    sizes = {
        (len(c), len(n))
        for c, n in (split_positive(pair, s) for s in all_simple_systems(pair.system))
    }
    assert sizes == {(1, 3)}


def test_pair_by_name_aliases():
    assert pair_by_name("sp(1,1)").name == "so(1,4)"
    assert pair_by_name("sp(2,R)").name == "so(3,2)"
    assert pair_by_name("so(2,3)").name == "so(3,2)"
    assert pair_by_name("su(1,2)").name == "su(2,1)"
    assert pair_by_name("so(4,12)").name == "so(12,4)"
    assert pair_by_name("SP(8, R)").name == "sp(8,R)"


def _unknown(name):
    """The reason pair_by_name gives for every name outside the catalog."""
    return re.escape(f"{name!r} is not in the catalog of pairs of rank <= 16; "
                     "innerlie catalog --max-rank 16 lists them")


def test_pair_by_name_rejections():
    with pytest.raises(RootSystemError, match=_unknown("su(2,2)")):
        pair_by_name("su(2,2)")
    with pytest.raises(RootSystemError):
        pair_by_name("so(2,2)")
    with pytest.raises(RootSystemError):
        pair_by_name("so(4,2)")  # p+q = 3 odd
    with pytest.raises(RootSystemError):
        pair_by_name("sp(3,R)")
    with pytest.raises(RootSystemError):
        pair_by_name("so(6)*")
    with pytest.raises(RootSystemError):
        pair_by_name("e7(7)")
    with pytest.raises(RootSystemError):
        pair_by_name("nonsense")


@pytest.mark.parametrize("name", [
    pytest.param("su(%s,1)" % ("9" * 5000), id="su(5000 digits,1)"),
    pytest.param("so(%s)*" % ("8" * 5000), id="so(5000 digits)*"),
    pytest.param("sp(%s,R)" % ("4" * 5000), id="sp(5000 digits,R)"),
    "sp(x,R)",
    pytest.param("su(\u00b2,1)", id="su(superscript 2,1)"),
])
def test_pair_by_name_refuses_numbers_int_cannot_read(name):
    with pytest.raises(RootSystemError, match=_unknown(name)):
        pair_by_name(name)


def test_pair_by_name_rank_bound():
    assert pair_by_name("su(16,1)").rank == MAX_RANK == 16
    for name in ("su(10,9)", "su(21,20)", "so(18,18)", "sp(9,9)", "sp(18,R)", "so(36)*"):
        with pytest.raises(RootSystemError, match=_unknown(name)):
            pair_by_name(name)


def test_catalog_over_the_rank_bound_raises(monkeypatch):
    """A bound over MAX_RANK is refused before any spec is listed."""
    from innerlie import pairs

    def unlisted(max_rank):
        raise AssertionError(f"_specs({max_rank}) was called")
    monkeypatch.setattr(pairs, "_specs", unlisted)
    for max_rank in (17, 18, 3000):
        with pytest.raises(RootSystemError, match=f"max rank {max_rank} > bound 16"):
            catalog(max_rank)


def test_pair_by_name_returns_the_catalog_pair(catalog8):
    """Pairs are built once: a name or alias resolves to the catalog's object."""
    for pair in catalog8:
        assert pair_by_name(pair.name) is pair
        for alias in pair.aliases:
            assert pair_by_name(alias) is pair


# Non-compact exceptional real forms by algebra: {label: inner type}.  The
# algebras have dimension 14, 52, 78, 133 and 248.
_EXCEPTIONAL_FORMS = {
    "g2": (14, {"2": True}),
    "f4": (52, {"4": True, "-20": True}),
    "e6": (78, {"6": False, "2": True, "-14": True, "-26": False}),
    "e7": (133, {"7": True, "-5": True, "-25": True}),
    "e8": (248, {"8": True, "-24": True}),
}


def _oracle(head, a, b):
    """The catalog name of head(a,b), head(a,R), so(a)* or an exceptional
    form, written from the classification alone: a non-compact simple real
    form of inner type and even dimension, with rank <= 16; else None."""
    if head in _EXCEPTIONAL_FORMS:
        dim, forms = _EXCEPTIONAL_FORMS[head]
        return f"{head}({a})" if forms.get(a) and dim % 2 == 0 else None
    if b == "*":  # so(2m)*: inner, dim m(2m-1), rank m; so(4)* is not simple
        return f"so({a})*" if a % 4 == 0 and 8 <= a <= 32 else None
    if b == "R":  # sp(a,R): inner, dim a(2a+1), rank a; sp(2,R) = so(3,2)
        if a % 2 or not 2 <= a <= 16:
            return None
        return "so(3,2)" if a == 2 else f"sp({a},R)"
    big, small = max(a, b), min(a, b)
    if small < 1:
        return None  # compact
    if head == "su":  # dim (p+q)^2 - 1, rank p+q-1
        return f"su({big},{small})" if (big + small) % 2 and big + small - 1 <= 16 else None
    if head == "sp":  # dim (p+q)(2p+2q+1), rank p+q
        if (big + small) % 2 or big + small > 16:
            return None
        return "so(1,4)" if big == small == 1 else f"sp({big},{small})"
    # so(a,b): inner unless a and b are both odd; dim n(n-1)/2 with n = a+b is
    # even when n is 0 or 1 mod 4; so(2,2) is not simple; rank floor(n/2).
    n = a + b
    if a % 2 and b % 2 or n % 4 not in (0, 1) or n == 4 or n // 2 > 16:
        return None
    if n % 2:
        odd, even = (a, b) if a % 2 else (b, a)
        return f"so({odd},{even})"
    return f"so({big},{small})"


def _candidate_spellings():
    """(spelling, oracle name) over su/so/sp(a,b), sp(a,R), so(a)* and the
    exceptional heads, with a few case and space variants."""
    for head, a, b in product(("su", "so", "sp"), range(36), range(36)):
        yield f"{head}({a},{b})", _oracle(head, a, b)
    for a in range(41):
        yield f"sp({a},R)", _oracle("sp", a, "R")
        yield f"so({a})*", _oracle("so", a, "*")
    for head, (_, forms) in _EXCEPTIONAL_FORMS.items():
        for label in ("0", "1", "2", "4", "6", "7", "8", "-5", "-14", "-20", "-24", "-25", "-26"):
            yield f"{head}({label})", _oracle(head, label, None)
    for spelling, name in [("SU(2, 1)", "su(2,1)"), (" so(1,4) ", "so(1,4)"), ("Sp(1,1)", "so(1,4)"),
                           ("SP(8, R)", "sp(8,R)"), ("sp(2,r)", "so(3,2)"), ("G2(2)", "g2(2)"),
                           ("E8( -24 )", "e8(-24)"), ("so(8) *", "so(8)*"), ("so(4,1)", "so(1,4)"),
                           ("su(2,1", None), ("su 2,1", None), ("su(2,1)*", None), ("", None),
                           ("e7(-133)", None), ("so(4n)*", None), ("sp(2,1,1)", None)]:
        yield spelling, name


def test_pair_by_name_accepts_exactly_the_classified_spellings():
    checked = set()
    for spelling, name in _candidate_spellings():
        if name is None:
            with pytest.raises(RootSystemError):
                pair_by_name(spelling)
        else:
            assert pair_by_name(spelling).name == name, spelling
            checked.add(name)
    catalog16 = catalog(16)
    assert checked == {pair.name for pair in catalog16}
    for pair in catalog16:
        assert all(pair_by_name(s) is pair for s in (pair.name, *pair.aliases))


def test_names_over_the_rank_bound_are_not_cached():
    from innerlie import pairs
    before = pairs._make_pair.cache_info().currsize
    for name in ("su(10,9)", "su(21,20)", "su(1000,999)"):
        with pytest.raises(RootSystemError, match=_unknown(name)):
            pair_by_name(name)
    assert pairs._make_pair.cache_info().currsize == before


def test_so_1_2n_flag(catalog8):
    special = {pair.name for pair in catalog8 if pair.is_so_1_2n}
    assert special == {"so(1,4)", "so(1,8)", "so(1,12)", "so(1,16)"}


def test_compact_additivity_closure_example():
    pair = pair_by_name("f4(-20)")
    rs = pair.system
    compact_roots = [v for v in rs.roots if pair.grading.is_compact(v)]
    for alpha, beta in product(compact_roots[:12], compact_roots[:12]):
        if rs.is_root(alpha + beta):
            assert pair.grading.is_compact(alpha + beta)
