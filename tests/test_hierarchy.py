import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icmup import (ClassNode, Hierarchy, description_length,
                   parse_hierarchy, part_context, resolve_attributes)
from icmup.errors import DegenerateAlphabet, InputFormatError, UnknownClass
from icmup.hierarchy import required_alphabet
from icmup.patterns import symbol_cost_bits

ANIMALS = """\
CLASS mammal : attrs=fur parents= parts=
CLASS cat : attrs= parents=mammal parts=
CLASS dog : attrs= parents=mammal parts=
CLASS rabbit : attrs= parents=mammal parts=
CLASS person : attrs= parents= parts=
CLASS woman : attrs=child-bearing parents=person parts=
CLASS doctor : attrs=treats-patients parents=person parts=
CLASS jane : attrs= parents=woman,doctor parts=
CLASS car : attrs= parents= parts=wheel,door,engine
CLASS wheel : attrs= parents= parts=
CLASS door : attrs= parents= parts=handle
CLASS engine : attrs= parents= parts=
CLASS handle : attrs= parents= parts=
"""


@pytest.fixture()
def animals():
    return parse_hierarchy(ANIMALS)


def texts(symbols):
    return sorted(symbols)


class TestResolve:
    def test_inherits_fur(self, animals):
        assert texts(resolve_attributes(animals, "cat")) == ["fur"]

    def test_root_has_own_only(self, animals):
        assert texts(resolve_attributes(animals, "mammal")) == ["fur"]

    def test_cross_classification_union(self, animals):
        assert texts(resolve_attributes(animals, "jane")) == [
            "child-bearing", "treats-patients"]

    def test_unknown_class(self, animals):
        with pytest.raises(UnknownClass):
            resolve_attributes(animals, "unicorn")

    def test_child_superset_of_parent(self, animals):
        for node in animals:
            child = resolve_attributes(animals, node.name)
            for parent in node.parents:
                assert resolve_attributes(animals, parent) <= child

    def test_shared_attribute_appears_once(self):
        h = Hierarchy([
            ClassNode("p1", frozenset({"a"})),
            ClassNode("p2", frozenset({"a"})),
            ClassNode("c", parents=frozenset({"p1", "p2"})),
        ])
        assert texts(resolve_attributes(h, "c")) == ["a"]


class TestPartContext:
    def test_direct_whole(self, animals):
        assert part_context(animals, "wheel") == ["car"]

    def test_top_level(self, animals):
        assert part_context(animals, "car") == []

    def test_transitive_chain(self, animals):
        assert part_context(animals, "handle") == ["door", "car"]

    def test_unknown(self, animals):
        with pytest.raises(UnknownClass):
            part_context(animals, "rotor")


@pytest.mark.parametrize("name, attributes", [
    ("A", {"p q", ""}), ("A", {"p q"}), ("A", {""}), ("", set()), ("a b", {"p"})])
def test_class_names_and_attributes_are_symbols(name, attributes):
    # both are symbols of the required alphabet
    with pytest.raises(ValueError, match="symbol text"):
        ClassNode(name, attributes)


class TestDescriptionLength:
    def test_single_class_forms_agree(self):
        h = Hierarchy([ClassNode("only", frozenset({"a", "b"}))])
        size = len(required_alphabet(h))
        assert description_length(h, "flat", size) == description_length(
            h, "hierarchical", size)

    def test_hoisted_attributes_save(self):
        # three species, two attributes hoisted to the parent
        h = Hierarchy([
            ClassNode("mammal", frozenset({"fur", "warm"})),
            ClassNode("cat", parents=frozenset({"mammal"})),
            ClassNode("dog", parents=frozenset({"mammal"})),
            ClassNode("rabbit", parents=frozenset({"mammal"})),
        ])
        size = len(required_alphabet(h))
        flat = description_length(h, "flat", size)
        hier = description_length(h, "hierarchical", size)
        # flat: 4 classes x (name + 2 attrs) = 12 symbols
        # hierarchical: (name + 2 attrs) + 3 x (name + link) = 9 symbols
        per = symbol_cost_bits(size)
        assert flat == pytest.approx(12 * per)
        assert hier == pytest.approx(9 * per)
        assert hier < flat

    def test_alphabet_must_cover(self, animals):
        with pytest.raises(DegenerateAlphabet):
            description_length(animals, "flat", 3)

    def test_unknown_form(self, animals):
        with pytest.raises(ValueError):
            description_length(animals, "resolved", 64)

    def test_enumeration_small(self):
        # every single-parent hierarchy on <= 4 nodes, attributes drawn from
        # {x, y}: when two leaves inherit two fresh attributes through a
        # common ancestor, the hierarchical rendering never loses.  (With
        # multiple parents the claim fails: links to contentless extra
        # ancestors cost a symbol and bring nothing.)
        checked = 0
        satisfied = 0
        for n in range(1, 5):
            for counts, hier_nodes in enumerate_tree_hierarchies(n):
                flat_count, hier_count, condition = counts
                h = Hierarchy(hier_nodes)
                size = max(len(required_alphabet(h)), 1)
                per = symbol_cost_bits(size)
                assert description_length(h, "flat", size) == pytest.approx(
                    flat_count * per)
                assert description_length(h, "hierarchical", size) == pytest.approx(
                    hier_count * per)
                checked += 1
                if condition:
                    satisfied += 1
                    assert hier_count <= flat_count
        assert checked > 6000
        assert satisfied > 20


@st.composite
def dags(draw):
    """A hierarchy of up to 8 classes, each naming any earlier classes as
    parents and as parts, so a class may have several of either."""
    n = draw(st.integers(1, 8))
    nodes = []
    for i in range(n):
        names = [f"c{j}" for j in range(i)]
        earlier = st.sets(st.sampled_from(names)) if names else st.just(set())
        nodes.append(ClassNode(
            f"c{i}", frozenset(draw(st.sets(st.sampled_from("wxyz")))),
            frozenset(draw(earlier)), tuple(sorted(draw(earlier)))))
    return Hierarchy(nodes)


def scanned_context(h, part_name):
    """part_context as a scan of every class per level."""
    chain, current = [], part_name
    while True:
        containers = sorted(n.name for n in h if current in n.parts)
        if not containers:
            return chain
        current = containers[0]
        chain.append(current)


def walked_attributes(h, name):
    """A class's resolved attributes by a walk over its ancestors, each
    visited once: the package's former resolution, kept as the oracle of
    its one parents-first pass."""
    attrs = set(h.node(name).own_attributes)
    seen = set()
    stack = list(h.node(name).parents)
    while stack:
        current = stack.pop()
        if current not in seen:
            seen.add(current)
            attrs |= h.node(current).own_attributes
            stack.extend(h.node(current).parents)
    return frozenset(attrs)


@given(dags())
def test_flat_dl_and_context_equal_per_class_resolution(h):
    size = max(len(required_alphabet(h)), 1)
    walked = {name: walked_attributes(h, name) for name in h.names()}
    for name, attrs in walked.items():
        assert resolve_attributes(h, name) == attrs
    count = sum(1 + len(attrs) for attrs in walked.values())
    assert description_length(h, "flat", size) == count * symbol_cost_bits(size)
    for name in h.names():
        assert part_context(h, name) == scanned_context(h, name)


def chain(n, edge):
    """c<k> names c<k-1> under ``edge``, and each class owns one attribute."""
    return Hierarchy(ClassNode(f"c{k}", frozenset({f"a{k}"}),
                               **{edge: [f"c{k - 1}"] if k else []})
                     for k in range(n))


class TestDeepChains:
    # Resolving or scanning every class from scratch is quadratic: 4.6 s
    # (flat DL) and 1.7 s (context) at 3,000 classes on a 2-vCPU VM.  The
    # linear walks take milliseconds there, so 1 s tells the two apart.
    # ``resolve_attributes`` reads the flat DL's pass, so it is pinned too.
    N = 3000

    def test_flat_dl(self):
        h = chain(self.N, "parents")
        start = time.perf_counter()
        dl = description_length(h, "flat", 2 * self.N)
        assert time.perf_counter() - start < 1.0
        # c<k> resolves to k + 1 attributes
        count = self.N + self.N * (self.N + 1) // 2
        assert dl == count * symbol_cost_bits(2 * self.N)

    def test_resolve(self):
        h = chain(self.N, "parents")
        start = time.perf_counter()
        attrs = resolve_attributes(h, f"c{self.N - 1}")
        assert time.perf_counter() - start < 1.0
        assert attrs == {f"a{k}" for k in range(self.N)}

    def test_part_context(self):
        h = chain(self.N, "parts")
        start = time.perf_counter()
        context = part_context(h, "c0")
        assert time.perf_counter() - start < 1.0
        assert context == [f"c{k}" for k in range(1, self.N)]


def enumerate_tree_hierarchies(n):
    """All single-parent structures on n canonically-ordered nodes with own
    attributes drawn from {x, y}; yields symbol counts plus the nodes."""
    attr_symbols = ("x", "y")
    names = [f"n{i}" for i in range(n)]
    parent_choices = [[None] + list(range(i)) for i in range(n)]
    for parents in itertools.product(*parent_choices):
        ancestors = []
        for i, p in enumerate(parents):
            ancestors.append(0 if p is None else (1 << p) | ancestors[p])
        is_parent = 0
        for p in parents:
            if p is not None:
                is_parent |= 1 << p
        leaves = [i for i in range(n) if not (is_parent >> i & 1)]
        for attrs in itertools.product(range(4), repeat=n):
            resolved = []
            for i in range(n):
                r = attrs[i]
                for j in range(n):
                    if ancestors[i] >> j & 1:
                        r |= attrs[j]
                resolved.append(r)
            flat_count = sum(1 + bin(resolved[i]).count("1") for i in range(n))
            hier_count = sum(1 + bin(attrs[i]).count("1")
                             + (0 if parents[i] is None else 1)
                             for i in range(n))
            condition = False
            for a in range(n):
                if bin(resolved[a]).count("1") < 2:
                    continue
                inheritors = [ell for ell in leaves
                              if ancestors[ell] >> a & 1
                              and bin(resolved[a] & ~attrs[ell]).count("1") >= 2]
                if len(inheritors) >= 2:
                    condition = True
                    break
            nodes = [
                ClassNode(names[i],
                          frozenset(s for k, s in enumerate(attr_symbols)
                                    if attrs[i] >> k & 1),
                          frozenset() if parents[i] is None
                          else frozenset({names[parents[i]]}))
                for i in range(n)
            ]
            yield (flat_count, hier_count, condition), nodes


class TestHierarchyFile:
    def test_parse_and_empty_lists(self):
        h = parse_hierarchy("CLASS a : attrs= parents= parts=\n# note\n")
        assert h.names() == ["a"]

    @pytest.mark.parametrize("text", [
        "KLASS a : attrs=",
        "CLASS a attrs=",
        "CLASS a b : attrs=",
        "CLASS a : colour=red",
        "CLASS a : attrs= parents=ghost parts=",
    ])
    def test_bad_lines(self, text):
        with pytest.raises(InputFormatError):
            parse_hierarchy(text)

    def test_duplicate_name(self):
        with pytest.raises(InputFormatError):
            parse_hierarchy("CLASS a : attrs=\nCLASS a : attrs=\n")

    def test_parent_cycle_rejected(self):
        text = ("CLASS a : parents=b\n"
                "CLASS b : parents=a\n")
        with pytest.raises(InputFormatError):
            parse_hierarchy(text)

    def test_part_cycle_rejected(self):
        text = ("CLASS a : parts=b\n"
                "CLASS b : parts=a\n")
        with pytest.raises(InputFormatError):
            parse_hierarchy(text)
