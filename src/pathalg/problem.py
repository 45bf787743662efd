"""Line-oriented problem files: quiver, order, field, ideal, named modules.

The format is meant to be hand-written and diffable:

    # one loop algebra
    [quiver]
    vertex e
    arrow x : e -> e

    [order]
    arrows x > y
    vertices e

    [field]
    Q            # or: Fp 7

    [ideal]
    x*x*x - y*y*y

    [module A0]
    generator g : e @ 0
    relation g*x

    [params]
    max-n 5

Ideal lines and relation lines share one term grammar, read by one
reader: a term is [scalar "*"] path, and a module term is a term with a
generator at its head, [scalar "*"] generator ["*" path].  Paths are
'*'-joined identifiers (vertices are usable as length-0 paths); scalars
are integers or fractions p/q.  Over Fp they are read mod p, and terms
that vanish mod p drop out.  Parsing reports every diagnostic it can
find, each with a line, a column, and a stable code.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .algebra import AlgebraElement, ModuleElement
from .errors import CompositionError, PathAlgError
from .fields import Field
from .order import OrderSpec
from .presentation import Generator, ModulePresentation
from .quiver import Quiver

E_SYNTAX = "E_SYNTAX"
E_UNKNOWN_ID = "E_UNKNOWN_ID"
E_NON_COMPOSABLE = "E_NON_COMPOSABLE"
E_INHOMOGENEOUS = "E_INHOMOGENEOUS"
E_NOT_PARALLEL = "E_NOT_PARALLEL"
E_BAD_FIELD = "E_BAD_FIELD"
E_BAD_SCALAR = "E_BAD_SCALAR"
E_DUPLICATE = "E_DUPLICATE"
E_SECTION = "E_SECTION"
E_ORDER = "E_ORDER"


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.line}:{self.col}: {self.code}: {self.message}"


class ParseError(PathAlgError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.render() for d in diagnostics))


@dataclass
class ProblemFile:
    quiver: Quiver
    order: OrderSpec
    field: Field
    ideal: list[AlgebraElement]
    modules: dict[str, ModulePresentation]
    params: dict[str, int] = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.order.field != self.field:
            raise PathAlgError(f"the order is over {self.order.field.name} but the problem is over {self.field.name}")


def _split_terms(expr: str, at: int) -> list[tuple[int, str, int]]:
    """Split on top-level + and -, returning (sign, term text, its position)
    triples; expr starts at position `at` of its line."""
    out = []
    for chunk in expr.split("+"):
        for j, piece in enumerate(chunk.split("-")):
            if piece.strip():
                out.append((-1 if j else 1, piece.strip(), at + len(piece) - len(piece.lstrip())))
            at += len(piece) + 1
    return out


# A whitespace-separated word, and a token of a term: a stripped piece between '*'s.
_WORD = r"\S+"
_TOKEN = r"[^*\s](?:[^*]*[^*\s])?"


def _is_scalar_token(tok: str) -> bool:
    body = tok.split("/")
    return all(part and (part.isdigit() or (part[0] in "+-" and part[1:].isdigit())) for part in body)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.diags: list[Diagnostic] = []
        self.known: set[str] = set()  # the quiver's vertex and arrow names, once it is read

    def err(self, line_no: int, col: int, code: str, message: str) -> None:
        self.diags.append(Diagnostic(line_no, col, code, message))

    def split_declaration(
        self, no: int, line: str, keyword: str, first: str, second: str, expected: str
    ) -> list[tuple[str, int]] | None:
        """The three parts of `keyword name first a second b`, each with its
        position in the line; None after an E_SYNTAX `expected` diagnostic
        unless both separators appear, in order, and every part is one word."""
        name, found_first, tail = line[len(keyword):].partition(first)
        a, found_second, b = tail.partition(second)
        parts, at = [], len(keyword)
        for piece, sep in ((name, first), (a, second), (b, "")):
            words = piece.split()
            if len(words) == 1:
                parts.append((words[0], at + len(piece) - len(piece.lstrip())))
            at += len(piece) + len(sep)
        if found_first and found_second and len(parts) == 3:
            return parts
        self.err(no, 1, E_SYNTAX, expected)
        return None

    def once(self, seen: set[str], key: str, line_no: int, col: int, what: str) -> bool:
        """Whether key is new to `seen`, which then holds it; a repeat is an E_DUPLICATE diagnostic at `col`."""
        if key in seen:
            self.err(line_no, col, E_DUPLICATE, f"duplicate {what}")
            return False
        seen.add(key)
        return True

    def col(self, line_no: int, at: int) -> int:
        """The column of position `at` of a line's text, which is read with its indent stripped."""
        raw = self.lines[line_no - 1]
        return len(raw) - len(raw.lstrip()) + at + 1

    def word_col(self, line_no: int, text: str, i: int, at: int = 0, word: str = _WORD) -> int:
        """The column of the i-th match of `word` in text, which starts at position `at` of a line's text."""
        return self.col(line_no, at + [m.start() for m in re.finditer(word, text)][i])

    def parse(self) -> ProblemFile:
        sections: list[tuple[str, str, int, list[tuple[int, str]]]] = []
        current: list[tuple[int, str]] | None = None
        for no, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    self.err(no, 1, E_SYNTAX, "unterminated section header")
                    current = None
                    continue
                header = line[1:-1].strip()
                parts = header.split(None, 1)
                kind = parts[0] if parts else ""
                name = parts[1].strip() if len(parts) > 1 else ""
                if kind not in ("quiver", "order", "field", "ideal", "module", "params"):
                    self.err(no, 1, E_SECTION, f"unknown section [{header}]")
                    current = None
                    continue
                if kind == "module" and not name:
                    self.err(no, 1, E_SECTION, "module sections need a name: [module <name>]")
                    current = None
                    continue
                current = []
                sections.append((kind, name, no, current))
            else:
                if current is None:
                    self.err(no, 1, E_SECTION, "content outside any section")
                else:
                    current.append((no, line))

        quiver = self._parse_quiver(sections)
        field = self._parse_field(sections)
        order = self._parse_order(sections, quiver, field)
        if quiver:
            self.known = set(quiver.vertices) | {a.name for a in quiver.arrows}
        ideal = self._parse_ideal(sections, quiver, field) if quiver else []
        modules = self._parse_modules(sections, quiver, field) if quiver else {}
        params = self._parse_params(sections)
        if self.diags:
            raise ParseError(self.diags)
        assert quiver is not None and order is not None and field is not None
        return ProblemFile(quiver, order, field, ideal, modules, params)

    def _sections(self, sections, kind):
        return [s for s in sections if s[0] == kind]

    def _parse_quiver(self, sections) -> Quiver | None:
        secs = self._sections(sections, "quiver")
        if not secs:
            self.err(1, 1, E_SECTION, "missing [quiver] section")
            return None
        vertices: list[str] = []
        arrows: list[tuple[str, str, str]] = []
        for _, _, _, body in secs:
            for no, line in body:
                words = line.split()
                if words[0] == "vertex":
                    for i, v in enumerate(words[1:], start=1):
                        if v in vertices:
                            self.err(no, self.word_col(no, line, i), E_DUPLICATE, f"duplicate vertex {v}")
                        else:
                            vertices.append(v)
                    if len(words) == 1:
                        self.err(no, 1, E_SYNTAX, "vertex line needs at least one identifier")
                elif words[0] == "arrow":
                    parts = self.split_declaration(
                        no, line, "arrow", ":", "->", "expected: arrow <name> : <source> -> <target>"
                    )
                    if parts is None:
                        continue
                    (name, at), (src, _), (tgt, _) = parts
                    if any(a[0] == name for a in arrows) or name in vertices:
                        self.err(no, self.col(no, at), E_DUPLICATE, f"duplicate identifier {name}")
                        continue
                    arrows.append((name, src, tgt))
                else:
                    self.err(no, 1, E_SYNTAX, f"unknown quiver line {words[0]!r}")
        for name, src, tgt in arrows:
            for endpoint in (src, tgt):
                if endpoint not in vertices:
                    self.err(1, 1, E_UNKNOWN_ID, f"arrow {name} uses undeclared vertex {endpoint}")
        if self.diags:
            return None
        try:
            return Quiver.build(vertices, arrows)
        except PathAlgError as exc:
            self.err(1, 1, E_SYNTAX, str(exc))
            return None

    def _parse_field(self, sections) -> Field | None:
        secs = self._sections(sections, "field")
        if not secs:
            return Field(0)
        seen: set[str] = set()
        for _, _, hdr_no, _ in secs:
            self.once(seen, "[field]", hdr_no, 1, "[field] section")
        _, _, hdr_no, body = secs[0]
        if not body:
            self.err(hdr_no, 1, E_BAD_FIELD, "[field] section is empty; expected Q or Fp <prime>")
            return Field(0)
        for no, _ in body:
            self.once(seen, "field", no, 1, "field line; [field] holds one")
        no, line = body[0]
        words = line.split()
        if words[0] == "Q" and len(words) == 1:
            return Field(0)
        if words[0] == "Fp" and len(words) == 2 and words[1].isdigit():
            try:
                if not int(words[1]):  # Field(0) is Q
                    raise PathAlgError("0 is not prime")
                return Field(int(words[1]))
            except PathAlgError as exc:
                self.err(no, self.word_col(no, line, 1), E_BAD_FIELD, str(exc))
                return Field(0)
        self.err(no, 1, E_BAD_FIELD, f"bad field spec {line!r}; expected Q or Fp <prime>")
        return Field(0)

    def _parse_order(self, sections, quiver: Quiver | None, field: Field) -> OrderSpec | None:
        if quiver is None:
            return None
        arrow_prec: list[str] | None = None
        vertex_prec: list[str] | None = None
        seen: set[str] = set()
        for _, _, _, body in self._sections(sections, "order"):
            for no, line in body:
                words = line.replace(">", " ").split()
                if not words:
                    continue
                kind, names = words[0], words[1:]
                if kind not in ("arrows", "vertices"):
                    self.err(no, 1, E_SYNTAX, f"unknown order line {kind!r}")
                    continue
                if not self.once(seen, kind, no, self.col(no, 0), f"order line {kind!r}"):
                    continue
                if kind == "arrows":
                    arrow_prec = names
                else:
                    vertex_prec = names
                known = {a.name for a in quiver.arrows} if kind == "arrows" else set(quiver.vertices)
                for i, ident in enumerate(names, start=1):
                    if ident not in known:
                        col = self.word_col(no, line.replace(">", " "), i)
                        self.err(no, col, E_UNKNOWN_ID, f"unknown identifier {ident}")
        if arrow_prec is None:
            arrow_prec = [a.name for a in quiver.arrows]
        if vertex_prec is None:
            vertex_prec = list(quiver.vertices)
        try:
            spec = OrderSpec(tuple(arrow_prec), tuple(vertex_prec), field=field)
            spec.validate(quiver)
            return spec
        except PathAlgError as exc:
            self.err(1, 1, E_ORDER, str(exc))
            return None

    def _read_terms(
        self, quiver: Quiver, field: Field, no: int, expr: str, at: int = 0,
        heads: dict[str, tuple[int, str]] | None = None,
    ) -> dict | None:
        """The terms of an element that starts at position `at` of its line, or
        None once what is wrong with it is reported.

        A term [scalar "*"] path is keyed by its path.  Given `heads`, a
        module's generators as name -> (index, vertex), a term is
        [scalar "*"] generator ["*" path], keyed by (generator index, path).
        """
        terms: dict = {}
        ok = True
        for sign, text, pos in _split_terms(expr, at):
            term = self._read_term(quiver, field, no, text, pos, heads)
            if term is None:
                ok = False
                continue
            key, coeff = term
            coeff = field.of(sign * coeff)
            prev = terms.get(key)
            terms[key] = coeff if prev is None else field.of(prev + coeff)
        return terms if ok else None

    def _read_term(self, quiver: Quiver, field: Field, no: int, text: str, at: int, heads) -> tuple | None:
        """One term, which starts at position `at` of its line (read only to place a diagnostic)."""
        toks = [t.strip() for t in text.split("*") if t.strip()]
        if not toks and heads is None:
            return self.err(no, 1, E_SYNTAX, "empty term")
        coeff, first = field.one, 0  # first: the number of tokens before the path
        if toks and _is_scalar_token(toks[0]):
            try:
                coeff = field.of(toks[0])
            except (ValueError, ZeroDivisionError, PathAlgError):
                return self.err(no, self.word_col(no, text, 0, at, _TOKEN), E_BAD_SCALAR, f"bad scalar {toks[0]!r}")
            first = 1
        path = toks[first:]
        if heads is None:
            if not path:
                return self.err(no, 1, E_SYNTAX, "a term needs a path (vertices act as length-0 paths)")
        elif not path or path[0] not in heads:
            return self.err(no, 1, E_UNKNOWN_ID, "module term must start with a generator name")
        else:
            gname, (gi, vertex) = path[0], heads[path[0]]
            first += 1
            path = path[1:] or [vertex]
        for i, tok in enumerate(path):
            if tok not in self.known:
                col = self.word_col(no, text, first + i, at, _TOKEN)
                return self.err(no, col, E_UNKNOWN_ID, f"unknown identifier {tok}")
        try:
            p = quiver.path(path)
        except CompositionError as exc:
            return self.err(no, self.word_col(no, text, first, at, _TOKEN), E_NON_COMPOSABLE, str(exc))
        if heads is None:
            return p, coeff
        if p.source != vertex:
            return self.err(no, 1, E_NON_COMPOSABLE, f"path {p} does not start at {gname}'s vertex")
        return (gi, p), coeff

    def _parse_ideal(self, sections, quiver: Quiver, field: Field) -> list[AlgebraElement]:
        out = []
        for _, _, _, body in self._sections(sections, "ideal"):
            for no, line in body:
                terms = self._read_terms(quiver, field, no, line)
                if terms is None:
                    continue
                try:
                    elem = AlgebraElement(terms)
                except PathAlgError as exc:
                    self.err(no, 1, E_NOT_PARALLEL, str(exc))
                    continue
                if not elem.is_homogeneous():
                    self.err(no, 1, E_INHOMOGENEOUS, f"inhomogeneous relation {line!r}")
                    continue
                if elem:
                    out.append(elem)
        return out

    def _parse_modules(self, sections, quiver: Quiver, field: Field) -> dict[str, ModulePresentation]:
        out: dict[str, ModulePresentation] = {}
        for _, name, hdr_no, body in self._sections(sections, "module"):
            if name in out:
                self.err(hdr_no, 1, E_DUPLICATE, f"duplicate module {name}")
                continue
            gens: list[Generator] = []
            rel_lines: list[tuple[int, str, int]] = []
            for no, line in body:
                words = line.split(None, 1)
                if words[0] == "generator":
                    parts = self.split_declaration(
                        no, line, "generator", ":", "@", "expected: generator <name> : <vertex> @ <degree>"
                    )
                    if parts is None:
                        continue
                    (gname, gat), (vtx, vat), (deg, dat) = parts
                    if any(g.name == gname for g in gens):
                        self.err(no, self.col(no, gat), E_DUPLICATE, f"duplicate generator {gname}")
                        continue
                    if vtx not in quiver.vertices:
                        self.err(no, self.col(no, vat), E_UNKNOWN_ID, f"unknown vertex {vtx}")
                        continue
                    try:
                        degree = int(deg)
                    except ValueError:
                        self.err(no, self.col(no, dat), E_SYNTAX, f"bad degree {deg!r}")
                        continue
                    if degree < 0:
                        self.err(no, self.col(no, dat), E_SYNTAX, f"generator degree must be >= 0; got {degree}")
                        continue
                    gens.append(Generator(gname, vtx, degree))
                elif words[0] == "relation":
                    expr = words[1] if len(words) > 1 else ""
                    rel_lines.append((no, expr, len(line) - len(expr)))
                else:
                    self.err(no, 1, E_SYNTAX, f"unknown module line {words[0]!r}")
            heads = {g.name: (i, g.vertex) for i, g in enumerate(gens)}
            rels: list[ModuleElement] = []
            for no, expr, at in rel_lines:
                if not expr:
                    self.err(no, 1, E_SYNTAX, "empty relation")
                    continue
                terms = self._read_terms(quiver, field, no, expr, at, heads)
                if terms is None:
                    continue
                rel = ModuleElement(terms)
                if len({gens[i].degree + p.length for i, p in rel.terms}) > 1:
                    self.err(no, 1, E_INHOMOGENEOUS, f"inhomogeneous relation {expr!r}")
                elif rel:
                    rels.append(rel)
            out[name] = ModulePresentation(tuple(gens), tuple(rels))
        return out

    def _parse_params(self, sections) -> dict[str, int]:
        out: dict[str, int] = {}
        seen: set[str] = set()
        for _, _, _, body in self._sections(sections, "params"):
            for no, line in body:
                words = line.split()
                if len(words) != 2 or words[0] not in ("max-n", "max-degree", "seed"):
                    self.err(no, 1, E_SYNTAX, f"unknown params line {line!r}")
                    continue
                if not self.once(seen, words[0], no, self.col(no, 0), f"params line {words[0]!r}"):
                    continue
                try:
                    out[words[0]] = int(words[1])
                except ValueError:
                    self.err(no, self.word_col(no, line, 1), E_SYNTAX, f"bad integer {words[1]!r}")
        return out


def parse(text: str) -> ProblemFile:
    return _Parser(text).parse()


def render(pf: ProblemFile) -> str:
    """Canonical text for a ProblemFile; parse(render(pf)) round-trips."""
    lines = ["[quiver]"]
    lines.append("vertex " + " ".join(pf.quiver.vertices))
    for a in pf.quiver.arrows:
        lines.append(f"arrow {a.name} : {a.source} -> {a.target}")
    lines.append("")
    lines.append("[order]")
    lines.append("arrows " + " > ".join(pf.order.arrow_precedence))
    lines.append("vertices " + " > ".join(pf.order.vertex_precedence))
    lines.append("")
    lines.append("[field]")
    lines.append("Q" if pf.field.characteristic == 0 else f"Fp {pf.field.characteristic}")
    lines.append("")
    lines.append("[ideal]")
    for elem in pf.ideal:
        lines.append(elem.render())
    for name, pres in pf.modules.items():
        lines.append("")
        lines.append(f"[module {name}]")
        for g in pres.generators:
            lines.append(f"generator {g.name} : {g.vertex} @ {g.degree}")
        for r in pres.relations:
            lines.append("relation " + r.render(pres.gen_names()))
    if pf.params:
        lines.append("")
        lines.append("[params]")
        for key in sorted(pf.params):
            lines.append(f"{key} {pf.params[key]}")
    return "\n".join(lines) + "\n"
