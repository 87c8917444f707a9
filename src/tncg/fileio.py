"""Parsers and serializers for the three text formats.

.tg   temporal graph: header "n t", then one "u v label" line per edge,
      0-indexed nodes, labels in 1..t, '#' comments and blank lines ignored.
.tsp  strategy profile: "v: w1 w2 ..." per agent, agents with empty
      strategies may be omitted.
.sc   set cover: header "k m", then m lines of 1-indexed elements, then an
      optional "cover: i1 i2 ..." line of 1-indexed set indices.

Parsers raise FormatError with path and line number; serialize-then-parse is
the identity on the parsed value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from .constructions import SetCoverInstance
from .core import TemporalGraph
from .errors import FormatError
from .game import StrategyProfile


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _ints(parts: Sequence[str], path: str, lineno: int) -> list[int]:
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise FormatError(path, lineno, f"expected integer, got {p!r}") from None
    return out


def parse_graph(text: str, path: str = "<string>") -> TemporalGraph:
    return _parse_graph(text, path)[0]


def _parse_graph(text: str, path: str) -> tuple[TemporalGraph, int, int]:
    """The graph, the header's lifetime t and the header's line number."""
    lines = list(_significant_lines(text))
    if not lines:
        raise FormatError(path, 1, "missing header line 'n t'")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(path, lineno, "header must be two integers 'n t'")
    n, t = _ints(parts, path, lineno)
    if n < 1:
        raise FormatError(path, lineno, f"node count must be >= 1, got {n}")
    if t < 0:
        raise FormatError(path, lineno, f"lifetime must be >= 0, got {t}")
    edges: dict[tuple[int, int], int] = {}
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(path, lineno, "edge line must be 'u v label'")
        u, v, lab = _ints(parts, path, lineno)
        if u == v:
            raise FormatError(path, lineno, f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(path, lineno, f"node out of range 0..{n - 1}")
        if not (1 <= lab <= t):
            raise FormatError(path, lineno, f"label {lab} outside 1..{t}")
        pair = (u, v) if u < v else (v, u)
        if pair in edges:
            raise FormatError(path, lineno, f"duplicate pair {pair}")
        edges[pair] = lab
    return TemporalGraph(n, edges), t, lines[0][0]


def parse_host(text: str, path: str = "<string>") -> TemporalGraph:
    g, t, head = _parse_graph(text, path)
    try:
        g.validate_host()
    except ValueError as e:
        raise FormatError(path, None, str(e)) from None
    if t != g.lifetime:
        raise FormatError(
            path, head, f"host lifetime {t} must equal the largest label {g.lifetime}"
        )
    return g


def dump_graph(g: TemporalGraph) -> str:
    lines = [f"{g.n} {g.lifetime}"]
    for (u, v) in sorted(g.edges):
        lines.append(f"{u} {v} {g.edges[(u, v)]}")
    return "\n".join(lines) + "\n"


def parse_profile(
    text: str, n: Optional[int] = None, path: str = "<string>"
) -> StrategyProfile:
    entries: dict[int, tuple[int, list[int]]] = {}  # agent: (lineno, endpoints)
    max_node = -1
    for lineno, line in _significant_lines(text):
        if ":" not in line:
            raise FormatError(path, lineno, "expected 'agent: endpoints...'")
        left, right = line.split(":", 1)
        (agent,) = _ints([left.strip()], path, lineno)
        if agent < 0:
            raise FormatError(path, lineno, f"negative agent {agent}")
        if agent in entries:
            raise FormatError(path, lineno, f"duplicate agent {agent}")
        endpoints = _ints(right.split(), path, lineno)
        seen: set[int] = set()
        for w in endpoints:
            if w < 0:
                raise FormatError(path, lineno, f"negative endpoint {w}")
            if w == agent:
                raise FormatError(path, lineno, f"agent {agent} buying to itself")
            if w in seen:
                raise FormatError(path, lineno, f"duplicate endpoint {w}")
            seen.add(w)
        entries[agent] = lineno, endpoints
        max_node = max(max_node, agent, *endpoints)
    if n is None:
        n = max_node + 1 if max_node >= 0 else 1
    for agent, (lineno, endpoints) in entries.items():
        if agent >= n:
            raise FormatError(path, lineno, f"agent {agent} out of range 0..{n - 1}")
        for w in endpoints:
            if w >= n:
                raise FormatError(path, lineno, f"endpoint {w} out of range 0..{n - 1}")
    return StrategyProfile(n, {agent: endpoints for agent, (_, endpoints) in entries.items()})


def dump_profile(p: StrategyProfile) -> str:
    lines = []
    for v in range(p.n):
        s = p[v]
        if s:
            lines.append(f"{v}: " + " ".join(str(w) for w in sorted(s)))
    return "\n".join(lines) + "\n" if lines else ""


def parse_setcover(text: str, path: str = "<string>") -> SetCoverInstance:
    lines = list(_significant_lines(text))
    if not lines:
        raise FormatError(path, 1, "missing header line 'k m'")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(path, lineno, "header must be two integers 'k m'")
    k, m = _ints(parts, path, lineno)
    if k < 1 or m < 1:
        raise FormatError(path, lineno, f"need k >= 1 and m >= 1, got {k} {m}")
    body = lines[1:]
    if len(body) < m:
        raise FormatError(path, lineno, f"expected {m} set lines, found {len(body)}")
    sets = []
    for idx in range(m):
        lineno, line = body[idx]
        elems = _ints(line.split(), path, lineno)
        for e in elems:
            if not (1 <= e <= k):
                raise FormatError(path, lineno, f"element {e} outside 1..{k}")
        sets.append(elems)
    cover = None
    rest = body[m:]
    if rest:
        lineno, line = rest[0]
        if not line.startswith("cover:"):
            raise FormatError(path, lineno, "expected 'cover:' line or end of file")
        cover = _ints(line[len("cover:"):].split(), path, lineno)
        for i in cover:
            if not (1 <= i <= m):
                raise FormatError(path, lineno, f"set index {i} outside 1..{m}")
        if len(rest) > 1:
            raise FormatError(path, rest[1][0], "trailing content after cover line")
    try:
        return SetCoverInstance(k, sets, cover)
    except ValueError as e:
        raise FormatError(path, None, str(e)) from None


def dump_setcover(sc: SetCoverInstance) -> str:
    lines = [f"{sc.k} {sc.m}"]
    for s in sc.sets:
        lines.append(" ".join(str(e) for e in sorted(s)))
    if sc.cover is not None:
        lines.append("cover: " + " ".join(str(i) for i in sorted(sc.cover)))
    return "\n".join(lines) + "\n"


def load_graph(path: Union[str, Path]) -> TemporalGraph:
    return parse_graph(Path(path).read_text(), str(path))


def load_host(path: Union[str, Path]) -> TemporalGraph:
    return parse_host(Path(path).read_text(), str(path))


def load_profile(path: Union[str, Path], n: Optional[int] = None) -> StrategyProfile:
    return parse_profile(Path(path).read_text(), n, str(path))


def load_setcover(path: Union[str, Path]) -> SetCoverInstance:
    return parse_setcover(Path(path).read_text(), str(path))


def save_graph(g: TemporalGraph, path: Union[str, Path]) -> None:
    Path(path).write_text(dump_graph(g))


def save_profile(p: StrategyProfile, path: Union[str, Path]) -> None:
    Path(path).write_text(dump_profile(p))


def save_setcover(sc: SetCoverInstance, path: Union[str, Path]) -> None:
    Path(path).write_text(dump_setcover(sc))


@dataclass
class FileReport:
    path: str
    kind: str
    ok: bool
    errors: list = field(default_factory=list)  # (line or None, message)

    def as_dict(self) -> dict:
        return {**asdict(self), "errors": [{"line": ln, "message": msg} for ln, msg in self.errors]}


def validate_files(
    paths: Sequence[Union[str, Path]],
    as_host: bool = False,
    n: Optional[int] = None,
) -> list[FileReport]:
    """Validate each file by extension; .tg files are checked as plain
    graphs unless as_host is set, .tsp profiles range-check against n when
    given.  Returns one report per file."""
    reports = []
    for p in paths:
        path = str(p)
        suffix = Path(path).suffix
        kind = {".tg": "host" if as_host else "graph", ".tsp": "profile", ".sc": "setcover"}.get(suffix)
        if kind is None:
            reports.append(FileReport(path, "unknown", False, [(None, f"unrecognized extension {suffix!r}")]))
            continue
        try:
            text = Path(path).read_text()
        except OSError as e:
            reports.append(FileReport(path, kind, False, [(None, str(e))]))
            continue
        try:
            if kind == "host":
                parse_host(text, path)
            elif kind == "graph":
                parse_graph(text, path)
            elif kind == "profile":
                parse_profile(text, n, path)
            else:
                parse_setcover(text, path)
            reports.append(FileReport(path, kind, True))
        except FormatError as e:
            reports.append(FileReport(path, kind, False, [(e.line, e.reason)]))
    return reports
