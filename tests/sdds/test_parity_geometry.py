"""LH*_RS group geometry and erasure budget, each written once.

``ParityBookkeeping`` is the only place that does arithmetic with
``group_size`` (``group_of``, ``offset_of``, ``member_address``,
``members``) and the only judge of how many members a group may lose
(``within_budget``).  A client whose degraded read or scan would cross
that budget fails with a typed error naming the group instead of
letting a parity bucket raise a bare ``ValueError`` out of the run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.errors import BucketUnavailableError
from repro.sdds import LHStarRSFile
from repro.sdds.protocol import RidScanMatcher

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The methods allowed to compute with ``group_size``.
GEOMETRY = {("ParityBookkeeping", name) for name in
            ("group_of", "offset_of", "member_address", "members")}


def _is_group_size(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "group_size")
            or (isinstance(node, ast.Attribute)
                and node.attr == "group_size"))


def group_size_arithmetic(tree: ast.AST) -> list[tuple[str, int]]:
    """``(enclosing class.function, line)`` of every ``BinOp`` with a
    ``group_size`` operand outside the geometry methods."""
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, cls: str | None, fn: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name if fn is None else fn
        elif (isinstance(node, ast.BinOp)
              and (_is_group_size(node.left)
                   or _is_group_size(node.right))
              and (cls, fn) not in GEOMETRY):
            found.append((fn if cls is None else f"{cls}.{fn}",
                          node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def test_only_the_geometry_methods_compute_with_group_size():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [(str(path.relative_to(SRC)), where, line)
                      for where, line in group_size_arithmetic(tree)]
    assert offenders == []


def test_the_guard_sees_a_hand_derivation():
    tree = ast.parse(
        "class SiteServer:\n"
        "    def place(self, shell, group, index):\n"
        "        return group * shell.group_size + index\n"
        "class ParityBookkeeping:\n"
        "    def members(self, group):\n"
        "        return range(group * self.group_size,\n"
        "                     (group + 1) * self.group_size)\n"
    )
    assert group_size_arithmetic(tree) == [("SiteServer.place", 3)]


class TestGeometry:
    @pytest.mark.parametrize("group_size", [2, 3, 4, 7])
    def test_member_address_inverts_group_and_offset(self, group_size):
        file = LHStarRSFile(group_size=group_size, parity_count=1)
        for address in range(40):
            group, offset = file.group_of(address), file.offset_of(address)
            assert file.member_address(group, offset) == address
            assert file.members(group)[offset] == address
        assert list(file.members(2)) == list(
            range(2 * group_size, 3 * group_size))

    def test_budget_counts_distinct_members(self):
        file = LHStarRSFile(group_size=4, parity_count=2)
        assert file.within_budget([])
        assert file.within_budget([1, 2])
        assert file.within_budget([1, 1, 2])
        assert not file.within_budget([0, 1, 2])


def over_budget_file() -> LHStarRSFile:
    """Group 0 of a k = 1 file with buckets 1 and 2 crashed: the
    coordinator declares bucket 1 recoverable before it learns that
    bucket 2 is down too."""
    file = LHStarRSFile(name="t", bucket_capacity=4, group_size=4,
                        parity_count=1)
    for key in range(40):
        file.insert(key, b"rec%d" % key)
    assert len(file.buckets) == 16
    file.network.crash(file.bucket_id(1))
    file.network.crash(file.bucket_id(2))
    return file


class TestOverBudgetGroup:
    def test_every_lookup_ends_typed_and_names_the_group(self):
        file = over_budget_file()
        failed = {}
        for key in range(40):
            try:
                assert file.lookup(key) == b"rec%d" % key
            except BucketUnavailableError as error:
                failed[key] = str(error)
        assert sorted(failed) == [1, 2, 17, 18, 33, 34]
        for text in failed.values():
            assert "group 0 has lost buckets [1, 2]" in text
            assert "1 parity" in text

    def test_scan_ends_typed_and_names_the_group(self):
        file = over_budget_file()
        with pytest.raises(BucketUnavailableError,
                           match=r"group 0 has lost buckets \[1, 2\]"):
            file.scan(RidScanMatcher())

    def test_other_groups_stay_served(self):
        file = over_budget_file()
        for key in (4, 5, 6, 7, 36):
            assert file.lookup(key) == b"rec%d" % key
