"""Class-inclusion and part-whole hierarchies with description-length
accounting.

Attribute inheritance is pure set union over ancestors (an attribute
reachable twice appears once - that union is the unification step), with no
defaults or overriding.  Description lengths compare two renderings of the
same knowledge: ``flat`` writes every class out with its fully-resolved
attributes, ``hierarchical`` writes own attributes once plus one link symbol
per parent reference.

Parents and parts must each be acyclic; ``graphlib``'s topological sort
checks that on construction and names the classes on any cycle.  The
hierarchy keeps the sort over the parents, which lists every class after
its parents, and one pass in that order resolves each class from its
parents' resolved sets (``_resolved``).  ``resolve_attributes`` reads one class's set from that
pass and the flat description length reads every class's, so inheritance
is resolved one way.  Every walk is a loop over an explicit order or chain,
so a hierarchy of any depth loads and resolves.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from graphlib import CycleError, TopologicalSorter

from .errors import DegenerateAlphabet, InputFormatError, UnknownClass
from .patterns import Record, check_texts, content_lines, symbol_cost_bits

DL_FORMS = ("flat", "hierarchical")


class ClassNode(Record):
    __slots__ = _fields = ("name", "own_attributes", "parents", "parts")
    name: str
    own_attributes: frozenset[str]
    parents: frozenset[str]
    parts: tuple[str, ...]
    _defaults = {"own_attributes": frozenset(), "parents": frozenset(), "parts": ()}

    def __post_init__(self):
        # the name and the attributes are symbols of the required alphabet
        attributes = tuple(self.own_attributes)
        check_texts((self.name, *attributes))
        object.__setattr__(self, "own_attributes", frozenset(attributes))
        object.__setattr__(self, "parents", frozenset(self.parents))
        object.__setattr__(self, "parts", tuple(self.parts))


class Hierarchy:
    """An immutable set of class nodes, acyclic under parents and parts."""

    def __init__(self, nodes: Iterable[ClassNode]):
        by_name: dict[str, ClassNode] = {}
        for node in nodes:
            if node.name in by_name:
                raise ValueError(f"duplicate class name {node.name!r}")
            by_name[node.name] = node
        for node in by_name.values():
            for ref in list(node.parents) + list(node.parts):
                if ref not in by_name:
                    raise ValueError(f"class {node.name!r} references unknown {ref!r}")
        # every class after its parents; the parts need only the check
        self._parents_first = _acyclic_order(by_name, "parents")
        _acyclic_order(by_name, "parts")
        self._nodes = by_name

    def node(self, name: str) -> ClassNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownClass(f"no class named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[ClassNode]:
        for name in self.names():
            yield self._nodes[name]

    def __len__(self) -> int:
        return len(self._nodes)


def _acyclic_order(nodes: dict[str, ClassNode], label: str) -> tuple[str, ...]:
    """The class names with each one after those it names under ``label``
    (``parents`` or ``parts``); a ``ValueError`` names the classes on a
    cycle."""
    # sorted edges make the reported cycle the same on every run
    graph = {name: sorted(getattr(node, label)) for name, node in nodes.items()}
    try:
        return tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        # graphlib lists each class before the one that names it
        cycle = " -> ".join(map(repr, reversed(exc.args[1])))
        raise ValueError(f"cycle in {label}: {cycle}") from None


def _resolved(h: Hierarchy) -> Iterator[tuple[str, set[str]]]:
    """Each class's name and resolved attributes, parents first.

    Each class unions its own attributes with its parents' resolved sets.
    A parent's set is kept only until its last child is resolved, and that
    child extends it in place, so a chain costs time and memory linear in
    its length.  A yielded set is therefore the class's own only until the
    next one is made: read it before going on."""
    waiting = Counter(p for node in h for p in node.parents)
    resolved: dict[str, set[str]] = {}
    for name in h._parents_first:
        node = h.node(name)
        attrs = set(node.own_attributes)
        for parent in node.parents:
            waiting[parent] -= 1
            if waiting[parent]:
                attrs |= resolved[parent]
            else:  # the last child takes the parent's set over
                inherited = resolved.pop(parent)
                inherited |= attrs
                attrs = inherited
        yield name, attrs
        if waiting[name]:
            resolved[name] = attrs


def resolve_attributes(h: Hierarchy, name: str) -> frozenset[str]:
    """Own attributes unioned with everything inherited via parents: the
    class's set from the parents-first pass, which stops at the class."""
    h.node(name)  # raises UnknownClass for a name not in h
    return next(frozenset(attrs) for found, attrs in _resolved(h) if found == name)


def required_alphabet(h: Hierarchy) -> set[str]:
    """Every distinct symbol a rendering of the hierarchy can mention."""
    out: set[str] = set()
    for node in h:
        out.add(node.name)
        out.update(node.own_attributes)
    return out


def description_length(h: Hierarchy, form: str, alphabet_size: int) -> float:
    """Bit cost of one rendering of the hierarchy.

    flat:          every class as ``name + fully-resolved attributes``
                   (inheritance expanded away).
    hierarchical:  every class as ``name + own attributes`` plus one link
                   symbol per parent reference.

    Part links carry no cost here; the comparison is about attribute
    inheritance.
    """
    if form not in DL_FORMS:
        raise ValueError(f"unknown form {form!r}")
    needed = len(required_alphabet(h))
    if alphabet_size < max(needed, 1):
        raise DegenerateAlphabet(
            f"alphabet of {alphabet_size} cannot cover {needed} distinct symbols")
    per_symbol = symbol_cost_bits(alphabet_size)
    if form == "flat":
        count = sum(1 + len(attrs) for _, attrs in _resolved(h))
    else:
        count = sum(1 + len(node.own_attributes) + len(node.parents) for node in h)
    return count * per_symbol


def part_context(h: Hierarchy, part_name: str) -> list[str]:
    """Chain of enclosing wholes, innermost first.

    When several classes list the part, the lexicographically smallest
    container is followed.  A top-level whole has an empty context.
    """
    h.node(part_name)
    container: dict[str, str] = {}  # part -> its smallest container
    for node in h:  # in name order, so the first container seen is smallest
        for part in node.parts:
            container.setdefault(part, node.name)
    chain: list[str] = []
    current = part_name
    while current in container:
        current = container[current]
        chain.append(current)
    return chain


def parse_hierarchy(text: str) -> Hierarchy:
    """Parse the hierarchy file format, one class per line:

        CLASS <name> : attrs=<a,b,...> parents=<p,...> parts=<q,...>

    Empty lists are written as a bare key (``attrs=``).  ``#`` comments and
    blank lines are ignored.
    """
    nodes: list[ClassNode] = []
    for lineno, stripped in content_lines(text):
        if not stripped.startswith("CLASS"):
            raise InputFormatError(f"line {lineno}: expected 'CLASS'")
        head, sep, body = stripped[len("CLASS"):].partition(":")
        if not sep:
            raise InputFormatError(f"line {lineno}: missing ':' separator")
        name = head.strip()
        if not name or len(name.split()) != 1:
            raise InputFormatError(f"line {lineno}: bad class name {head.strip()!r}")
        fields = {"attrs": [], "parents": [], "parts": []}
        for item in body.split():
            key, eq, value = item.partition("=")
            if not eq or key not in fields:
                raise InputFormatError(f"line {lineno}: bad field {item!r}")
            fields[key] = [v for v in value.split(",") if v]
        # split on whitespace and commas, the name and the attributes are
        # symbols, so the node's own check cannot fail here
        nodes.append(ClassNode(name, frozenset(fields["attrs"]),
                               frozenset(fields["parents"]), tuple(fields["parts"])))
    try:
        return Hierarchy(nodes)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None
