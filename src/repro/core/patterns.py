"""Pattern language and cursors for addressing IR locations.

Scheduling calls name their targets with small pattern strings, exactly as in
Exo:

* ``'for itt in _: _'`` — the first loop whose iterator displays as ``itt``;
* ``'C[_] += _'`` — the first reduction into a buffer displayed as ``C``;
* ``'C_reg[_] = _'`` — likewise for assignment;
* ``'C_reg'`` — the allocation of (or argument named) ``C_reg``;
* any of the above with a ``#k`` suffix to select the k-th match (0-based).

Matches resolve to *cursors*: a :class:`StmtCursor` wraps a path from the
procedure root to one statement (indices into statement blocks, descending
through loop bodies), and exposes ``before()`` / ``after()`` gap cursors used
by fission.  Paths survive pretty-printing and are recomputed after every
transform (each scheduling primitive returns a fresh procedure).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Tuple

from .loopir import Alloc, Assign, Call, For, Proc, Reduce, Stmt
from .prelude import PatternError

# ---------------------------------------------------------------------------
# Paths and cursors
# ---------------------------------------------------------------------------

Path = Tuple[int, ...]


def get_stmt(proc: Proc, path: Path) -> Stmt:
    """Fetch the statement at ``path`` (indices through nested loop bodies)."""
    block: Tuple[Stmt, ...] = proc.body
    stmt: Optional[Stmt] = None
    for i, idx in enumerate(path):
        if idx >= len(block):
            raise PatternError(f"stale path {path} in {proc.name}")
        stmt = block[idx]
        if i + 1 < len(path):
            if not isinstance(stmt, For):
                raise PatternError(f"path {path} descends into a non-loop")
            block = stmt.body
    if stmt is None:
        raise PatternError("empty path")
    return stmt


def replace_at(proc: Proc, path: Path, new_stmts: List[Stmt]) -> Proc:
    """Return ``proc`` with the statement at ``path`` replaced by a block."""
    from .loopir import update

    def rebuild(block: Tuple[Stmt, ...], depth: int) -> Tuple[Stmt, ...]:
        idx = path[depth]
        out = list(block)
        if depth == len(path) - 1:
            out[idx : idx + 1] = list(new_stmts)
        else:
            loop = block[idx]
            assert isinstance(loop, For)
            out[idx] = update(loop, body=rebuild(loop.body, depth + 1))
        return tuple(out)

    return update(proc, body=rebuild(proc.body, 0))


@dataclass(frozen=True)
class StmtCursor:
    """A handle on one statement of a procedure."""

    proc: Proc
    path: Path

    def stmt(self) -> Stmt:
        return get_stmt(self.proc, self.path)

    def before(self) -> "GapCursor":
        return GapCursor(self.proc, self.path, after=False)

    def after(self) -> "GapCursor":
        return GapCursor(self.proc, self.path, after=True)

    def parent_loops(self) -> List[Stmt]:
        """Enclosing loops, outermost first."""
        loops = []
        block: Tuple[Stmt, ...] = self.proc.body
        for i, idx in enumerate(self.path[:-1]):
            stmt = block[idx]
            assert isinstance(stmt, For)
            loops.append(stmt)
            block = stmt.body
        return loops


@dataclass(frozen=True)
class GapCursor:
    """A position between statements: just before or after an anchor."""

    proc: Proc
    path: Path
    after: bool

    def anchor(self) -> Stmt:
        return get_stmt(self.proc, self.path)

    def split_index(self) -> int:
        """Index within the anchor's block where the gap falls."""
        return self.path[-1] + (1 if self.after else 0)


# ---------------------------------------------------------------------------
# Pattern parsing
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_LOOP_RE = re.compile(rf"^for\s+({_NAME}|_)\s+in\s+_\s*:\s*_$")
_ASSIGN_RE = re.compile(rf"^({_NAME})\s*\[\s*_\s*\]\s*(\+?=)\s*_$")
_SCALAR_ASSIGN_RE = re.compile(rf"^({_NAME})\s*(\+?=)\s*_$")
_ALLOC_RE = re.compile(rf"^({_NAME})\s*:\s*_$")
_NAME_RE = re.compile(rf"^({_NAME})$")
_CALL_RE = re.compile(rf"^({_NAME})\s*\(\s*_\s*\)$")


@dataclass(frozen=True)
class Pattern:
    """A compiled statement pattern."""

    kind: str  # 'for' | 'assign' | 'reduce' | 'alloc' | 'name' | 'call'
    name: Optional[str]  # display name to match, None for wildcard
    index: Optional[int]  # '#k' selector, None for "first"
    text: str

    def matches(self, s: Stmt) -> bool:
        if self.kind == "for":
            return isinstance(s, For) and (
                self.name is None or s.iter.name == self.name
            )
        if self.kind == "assign":
            return isinstance(s, Assign) and (
                self.name is None or s.name.name == self.name
            )
        if self.kind == "reduce":
            return isinstance(s, Reduce) and (
                self.name is None or s.name.name == self.name
            )
        if self.kind == "alloc":
            return isinstance(s, Alloc) and (
                self.name is None or s.name.name == self.name
            )
        if self.kind == "call":
            return isinstance(s, Call) and (
                self.name is None or s.proc.name == self.name
            )
        if self.kind == "name":
            if isinstance(s, Alloc):
                return s.name.name == self.name
            if isinstance(s, For):
                return s.iter.name == self.name
            return False
        raise PatternError(f"unknown pattern kind {self.kind!r}")


def parse_pattern(text: str) -> Pattern:
    """Compile a pattern string (see module docstring for the grammar)."""
    raw = text.strip()
    index = None
    if "#" in raw:
        raw, _, suffix = raw.rpartition("#")
        raw = raw.strip()
        try:
            index = int(suffix)
        except ValueError:
            raise PatternError(f"bad #index in pattern {text!r}") from None

    m = _LOOP_RE.match(raw)
    if m:
        name = None if m.group(1) == "_" else m.group(1)
        return Pattern("for", name, index, text)
    m = _ASSIGN_RE.match(raw)
    if m:
        kind = "reduce" if m.group(2) == "+=" else "assign"
        return Pattern(kind, m.group(1), index, text)
    m = _SCALAR_ASSIGN_RE.match(raw)
    if m:
        kind = "reduce" if m.group(2) == "+=" else "assign"
        return Pattern(kind, m.group(1), index, text)
    m = _ALLOC_RE.match(raw)
    if m:
        return Pattern("alloc", m.group(1), index, text)
    m = _CALL_RE.match(raw)
    if m:
        return Pattern("call", m.group(1), index, text)
    m = _NAME_RE.match(raw)
    if m:
        return Pattern("name", m.group(1), index, text)
    raise PatternError(f"cannot parse pattern {text!r}")


# ---------------------------------------------------------------------------
# Searching
# ---------------------------------------------------------------------------


def _matches(block: Tuple[Stmt, ...], pattern: Pattern, prefix: Path = ()):
    """Paths of the statements matching ``pattern``, in program order."""
    for i, s in enumerate(block):
        path = prefix + (i,)
        if pattern.matches(s):
            yield path
        if isinstance(s, For):
            yield from _matches(s.body, pattern, path)


def find_all_stmts(proc: Proc, pattern: Pattern) -> List[Path]:
    """All statement paths matching ``pattern``, in program order."""
    return list(_matches(proc.body, pattern))


def find_stmt(proc: Proc, pattern_text: str) -> StmtCursor:
    """Resolve a pattern string to a single statement cursor.

    Honors the ``#k`` selector; without one, the first match wins (matching
    Exo's convention) but at least one match is required.  The search
    stops at the selected match.
    """
    pattern = parse_pattern(pattern_text)
    k = pattern.index or 0
    paths = list(islice(_matches(proc.body, pattern), k + 1))
    if not paths:
        raise PatternError(
            f"pattern {pattern_text!r} matched nothing in {proc.name}"
        )
    if k >= len(paths):
        raise PatternError(
            f"pattern {pattern_text!r} asked for match #{k} but only "
            f"{len(paths)} exist"
        )
    return StmtCursor(proc, paths[k])


def find_loop(proc: Proc, name_or_pattern: str) -> StmtCursor:
    """Resolve a loop by bare iterator name or full loop pattern."""
    text = name_or_pattern.strip()
    if _NAME_RE.match(text.split("#")[0].strip()):
        base, _, suffix = text.partition("#")
        pat = f"for {base.strip()} in _: _"
        if suffix:
            pat += f" #{suffix}"
        cursor = find_stmt(proc, pat)
    else:
        cursor = find_stmt(proc, text)
    if not isinstance(cursor.stmt(), For):
        raise PatternError(f"{name_or_pattern!r} does not name a loop")
    return cursor


def find_alloc(proc: Proc, name: str) -> StmtCursor:
    """Resolve a buffer name to its allocation statement."""
    base, _, suffix = name.partition("#")
    pat = f"{base.strip()}: _" + (f" #{suffix}" if suffix else "")
    cursor = find_stmt(proc, pat)
    if not isinstance(cursor.stmt(), Alloc):
        raise PatternError(f"{name!r} does not name an allocation")
    return cursor
