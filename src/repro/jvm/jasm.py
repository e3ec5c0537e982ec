"""jasm — the textual form of the IR.

Where the paper's Tabby consumes Java bytecode inside jar files, this
reproduction consumes *jasm*: a Jimple-flavoured assembly language that
round-trips the IR of :mod:`repro.jvm.ir`.  Jar archives
(:mod:`repro.jvm.jar`) are zip files of ``.jasm`` entries.

Grammar sketch::

    program   := classdecl*
    classdecl := ("class" | "interface") QNAME
                 ["extends" QNAME] ["implements" QNAME ("," QNAME)*]
                 "{" member* "}"
    member    := "field"  modifier* TYPE NAME ";"
               | "method" modifier* TYPE NAME "(" [TYPE NAME ("," TYPE NAME)*] ")"
                 ( ";" | "{" stmt* "}" )
    stmt      := [NAME ":"] body ";"
    body      := NAME ":=" ("@this" | "@param-"INT)
               | ref "=" rhs
               | invoke | "return" [val] | "if" val "goto" NAME
               | "goto" NAME | "throw" val | "nop"
               | "switch" val "{" ("case" INT ":" "goto" NAME)*
                                  "default" ":" "goto" NAME "}"
    ref       := NAME | NAME "." NAME | NAME "[" val "]" | "static" QNAME
    rhs       := val | ref | "new" QNAME | "newarray" TYPE "[" val "]"
               | "(" TYPE ")" val | val "instanceof" TYPE
               | val BINOP val | invoke
    invoke    := KIND [NAME] QNAME "(" [val ("," val)*] ")"
    val       := NAME | INT | STRING | "null" | "class" QNAME

A ``static`` reference writes the class and field as one dotted path;
the final segment is the field name (``static java.lang.System.out``).
An invoke writes the optional receiver local, then the dotted
class-and-method path, e.g. ``virtual rt java.lang.Runtime.exec(cmd)``
or ``static java.lang.Runtime.getRuntime()``; ``<init>`` and
``<clinit>`` are valid final segments.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import JasmSyntaxError
from repro.jvm import ir
from repro.jvm import types as jt
from repro.jvm.model import JavaClass, JavaField, JavaMethod, Modifier

__all__ = ["dumps", "loads", "dump_class", "Lexer", "Parser", "Token"]

_MODIFIER_NAMES = (
    "public",
    "private",
    "protected",
    "static",
    "final",
    "abstract",
    "native",
    "transient",
    "synchronized",
    "volatile",
)

_KEYWORDS = {
    "class",
    "interface",
    "extends",
    "implements",
    "field",
    "method",
    "return",
    "if",
    "goto",
    "switch",
    "case",
    "default",
    "throw",
    "nop",
    "new",
    "newarray",
    "instanceof",
    "null",
    "static",
    *_MODIFIER_NAMES,
} | set(ir.InvokeKind.ALL)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
#
# The token stream is two parallel lists, ``texts`` and ``kinds``.  One
# ``findall`` call over the source returns every token's text; a token's
# kind depends on its text alone, so kinds come from a memoised
# text -> kind table.  Nothing records where a token starts: only an
# error needs a line and column, and it finds them by rescanning.


class Token:
    """One lexeme, as :meth:`Lexer.tokens` reports it.  Stores its offset
    into the source; ``line`` and ``column`` (both 1-based) are computed
    on demand."""

    __slots__ = ("kind", "text", "offset", "source")

    def __init__(self, kind: str, text: str, offset: int, source: str):
        self.kind = kind
        self.text = text
        self.offset = offset
        self.source = source

    @property
    def line(self) -> int:
        return _line_column(self.source, self.offset)[0]

    @property
    def column(self) -> int:
        return _line_column(self.source, self.offset)[1]

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def _line_column(source: str, offset: int) -> Tuple[int, int]:
    return (
        source.count("\n", 0, offset) + 1,
        offset - source.rfind("\n", 0, offset),
    )


# ``# lint: ignore[rule, ...]`` comments survive the lexer as pragma
# tokens; every other comment is discarded.
_LINT_PRAGMA_RE = re.compile(r"^(?://|\#)\s*lint:\s*ignore\[([^\]]*)\]\s*$")

#: a name segment; ``<`` starts one only as ``<ident>`` (``<init>``,
#: ``<clinit>``), so a bare ``<`` is the operator
_NAME = r"(?:[A-Za-z_$][\w$>]*|<[A-Za-z_$][\w$]*>)"

#: token kinds and their patterns, in match priority order; ``name`` is
#: ``qname`` when dotted and ``kw`` when a keyword, a ``comment`` is a
#: ``pragma`` when it is a lint pragma, and ``bad`` catches the first
#: character no token starts with
_TOKEN_PATTERNS = (
    ("comment", r"//[^\n]*|\#[^\n]*"),
    ("string", r'"(?:\\.|[^"\\])*"'),
    ("atref", r"@this|@param-\d+"),
    ("assign_id", r":="),
    ("int", r"-?\d+"),
    ("name", rf"{_NAME}(?:\.{_NAME})*"),
    ("op", r"==|!=|<=|>=|\|\||&&|\[\]|[{}()\[\];:,.=<>+\-*/%&|^]"),
    ("bad", r"[^ \t\r\n]"),
)

#: one match per token, leading whitespace included; the one group is
#: the token's text
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(" + "|".join(p for _, p in _TOKEN_PATTERNS) + ")"
)

#: fullmatching a token text picks the alternative that lexed it: an
#: earlier alternative that matched the text would have matched first
_KIND_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_PATTERNS))

#: distinct token texts the kind table keeps before it starts over, so
#: a long-lived process parsing hostile input stays bounded
_KIND_TABLE_LIMIT = 1 << 16


class _KindTable(dict):
    """Memoised token text -> kind."""

    def __missing__(self, text: str) -> str:
        kind = _KIND_RE.fullmatch(text).lastgroup
        if kind == "name":
            if text in _KEYWORDS:
                kind = "kw"
            elif "." in text:
                kind = "qname"
        elif kind == "comment" and _LINT_PRAGMA_RE.match(text):
            kind = "pragma"
        if len(self) >= _KIND_TABLE_LIMIT:
            self.clear()
        self[text] = kind
        return kind


_KINDS = _KindTable()


def _spans(source: str) -> Iterator[Tuple[str, str, int]]:
    """``(kind, text, offset)`` of each token, comments dropped; raises
    at the first character no token starts with."""
    kinds = _KINDS
    for m in _TOKEN_RE.finditer(source):
        text = m.group(1)
        kind = kinds[text]
        if kind == "comment":
            continue
        if kind == "bad":
            raise JasmSyntaxError(
                f"unexpected character {text!r}", *_line_column(source, m.start(1))
            )
        yield kind, text, m.start(1)


def _scan(source: str) -> Tuple[List[str], List[str]]:
    """The token stream of ``source`` as parallel ``texts``/``kinds``."""
    texts = _TOKEN_RE.findall(source)
    kinds = list(map(_KINDS.__getitem__, texts))
    if "comment" in kinds or "bad" in kinds:  # rare: drop comments, find bad
        spans = list(_spans(source))
        texts = [text for _, text, _ in spans]
        kinds = [kind for kind, _, _ in spans]
    return texts, kinds


def _pragma_rules(comment: str) -> List[str]:
    """Rule names from the bracket payload of a lint pragma comment."""
    payload = _LINT_PRAGMA_RE.match(comment).group(1)
    return [rule.strip() for rule in payload.split(",") if rule.strip()]


def _shown(kind: str, text: str) -> str:
    """A token's text as diagnostics show it: a pragma by its payload."""
    return _LINT_PRAGMA_RE.match(text).group(1) if kind == "pragma" else text


class Lexer:
    """Tokenises jasm source: a diagnostic view over the parser's scan."""

    def __init__(self, source: str):
        self.source = source

    def tokens(self) -> List[Token]:
        source = self.source
        out = [
            Token(kind, _shown(kind, text), offset, source)
            for kind, text, offset in _spans(source)
        ]
        out.append(Token("eof", "", len(source), source))
        return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_MODIFIER_FLAGS = {name: int(Modifier[name.upper()]) for name in _MODIFIER_NAMES}
_INVOKE_KINDS = frozenset(ir.InvokeKind.ALL)


class _Locals(dict):
    """One :class:`ir.Local` per name: locals are immutable values, so a
    parse shares them instead of allocating one per mention."""

    def __missing__(self, name: str) -> ir.Local:
        local = self[name] = ir.Local(name)
        return local


class Parser:
    """Recursive-descent parser producing :class:`JavaClass` objects.

    It reads the parallel ``texts``/``kinds`` lists through ``_pos``.  A
    keyword or operator text has one kind, so matching one needs the
    text alone.  A check consumes its token only when it passes, so
    ``_pos`` never moves past the eof; lookahead reaches at most three
    tokens ahead, so three more eofs keep every index in range.
    """

    def __init__(self, source: str):
        self._source = source
        texts, kinds = _scan(source)
        self._texts = texts + [""] * 4
        self._kinds = kinds + ["eof"] * 4
        self._pos = 0
        self._locals = _Locals()

    # -- token plumbing ------------------------------------------------------

    def _error(self, message: str, pos: Optional[int] = None) -> JasmSyntaxError:
        """``message, got <token>`` at token ``pos`` (default: the current
        token)."""
        if pos is None:
            pos = self._pos
        shown = _shown(self._kinds[pos], self._texts[pos])
        return self._error_at(pos, f"{message}, got {shown!r}")

    def _error_at(self, pos: int, message: str) -> JasmSyntaxError:
        """``message`` at the line and column of token ``pos``, found by
        rescanning the source."""
        source = self._source
        _, _, offset = next(islice(_spans(source), pos, None), ("", "", len(source)))
        return JasmSyntaxError(message, *_line_column(source, offset))

    def _expect(self, text: str) -> None:
        pos = self._pos
        if self._texts[pos] != text:
            raise self._error(f"expected {text!r}", pos)
        self._pos = pos + 1

    def _expect_kind(self, kind: str) -> str:
        pos = self._pos
        if self._kinds[pos] != kind:
            raise self._error(f"expected {kind!r}", pos)
        self._pos = pos + 1
        return self._texts[pos]

    def _accept(self, text: str) -> bool:
        if self._texts[self._pos] == text:
            self._pos += 1
            return True
        return False

    # -- grammar -----------------------------------------------------------------

    def parse_program(self) -> List[JavaClass]:
        classes: List[JavaClass] = []
        while self._kinds[self._pos] != "eof":
            classes.append(self.parse_class())
        return classes

    def parse_class(self) -> JavaClass:
        modifiers = Modifier.PUBLIC
        is_interface = False
        head = self._texts[self._pos]
        if head == "interface":
            is_interface = True
            modifiers |= Modifier.INTERFACE | Modifier.ABSTRACT
        elif head != "class":
            raise self._error("expected 'class' or 'interface'")
        self._pos += 1
        name = self._qname()
        super_name: Optional[str] = "java.lang.Object"
        interfaces: List[str] = []
        if self._accept("extends"):
            super_name = self._qname()
        if name == "java.lang.Object":
            super_name = None
        if self._accept("implements"):
            interfaces.append(self._qname())
            while self._accept(","):
                interfaces.append(self._qname())
        cls = JavaClass(name, super_name, interfaces, modifiers)
        self._expect("{")
        texts = self._texts
        while not self._accept("}"):
            pos = self._pos
            if self._kinds[pos] == "pragma":
                cls.lint_suppressions.update(_pragma_rules(texts[pos]))
                self._pos = pos + 1
            elif texts[pos] == "field":
                self._parse_field(cls)
            elif texts[pos] == "method":
                self._parse_method(cls, is_interface)
            else:
                raise self._error("expected 'field' or 'method'")
        return cls

    def _qname(self) -> str:
        pos = self._pos
        kind = self._kinds[pos]
        if kind != "name" and kind != "qname":
            raise self._error("expected a name")
        self._pos = pos + 1
        return self._texts[pos]

    def _modifiers(self) -> Modifier:
        texts = self._texts
        pos = self._pos
        flags = 0
        while texts[pos] in _MODIFIER_FLAGS:
            flags |= _MODIFIER_FLAGS[texts[pos]]
            pos += 1
        self._pos = pos
        return Modifier(flags) if flags else Modifier.PUBLIC

    def _type(self) -> jt.JavaType:
        name = self._qname()
        texts = self._texts
        pos = self._pos
        dims = 0
        while texts[pos] == "[]":
            pos += 1
            dims += 1
        # also accept explicit '[' ']' pairs
        while texts[pos] == "[" and texts[pos + 1] == "]":
            pos += 2
            dims += 1
        self._pos = pos
        base = jt.type_from_name(name)
        if dims:
            return jt.array_of(base, dims)
        return base

    def _identifier(self) -> str:
        """An identifier position: keywords are acceptable names here
        (Java fields/parameters may legitimately be called ``method``,
        ``class`` has no such clash in jasm grammar positions)."""
        pos = self._pos
        kind = self._kinds[pos]
        if kind != "name" and kind != "kw":
            raise self._error("expected an identifier")
        self._pos = pos + 1
        return self._texts[pos]

    def _parse_field(self, cls: JavaClass) -> None:
        self._pos += 1  # 'field'
        modifiers = self._modifiers()
        ftype = self._type()
        name = self._identifier()
        self._expect(";")
        cls.add_field(JavaField(name, ftype, modifiers))

    def _parse_method(self, cls: JavaClass, in_interface: bool) -> None:
        self._pos += 1  # 'method'
        modifiers = self._modifiers()
        rtype = self._type()
        name = self._qname()
        self._expect("(")
        ptypes: List[jt.JavaType] = []
        pnames: List[str] = []
        if not self._accept(")"):
            while True:
                ptypes.append(self._type())
                pnames.append(self._identifier())
                if self._accept(")"):
                    break
                self._expect(",")
        if in_interface:
            modifiers |= Modifier.ABSTRACT
        method = JavaMethod(name, ptypes, rtype, modifiers, pnames)
        cls.add_method(method)
        if self._accept(";"):
            return
        self._expect("{")
        method.body = self._parse_body(method)

    # -- statements --------------------------------------------------------------

    def _parse_body(self, method: JavaMethod) -> List[ir.Statement]:
        """``stmt* "}"``, where ``stmt := [NAME ":"] body ";"``."""
        texts = self._texts
        kinds = self._kinds
        body: List[ir.Statement] = []
        while True:
            pos = self._pos
            head = texts[pos]
            if head == "}":
                self._pos = pos + 1
                return body
            kind = kinds[pos]
            if kind == "pragma":
                method.lint_suppressions.update(_pragma_rules(head))
                self._pos = pos + 1
                continue
            label: Optional[str] = None
            if texts[pos + 1] == ":" and kind == "name":
                label = head
                self._pos = pos + 2
            stmt = self._parse_statement_body()
            stmt.label = label
            pos = self._pos
            if texts[pos] != ";":
                raise self._error("expected ';'")
            self._pos = pos + 1
            body.append(stmt)

    def _parse_statement_body(self) -> ir.Statement:
        pos = self._pos
        head = self._texts[pos]
        kind = self._kinds[pos]
        if kind == "name":
            if self._kinds[pos + 1] == "assign_id":
                local = self._locals[head]
                self._pos = pos + 2
                at = self._expect_kind("atref")
                if at == "@this":
                    return ir.IdentityStmt(local, ir.ThisRef())
                return ir.IdentityStmt(local, ir.ParamRef(int(at[len("@param-") :])))
        elif kind == "kw":
            if head in _INVOKE_KINDS and self._is_invoke_ahead():
                return ir.InvokeStmt(self._parse_invoke())
            if head == "return":
                self._pos = pos + 1
                if self._texts[pos + 1] == ";":
                    return ir.ReturnStmt(None)
                return ir.ReturnStmt(self._parse_value())
            if head == "if":
                self._pos = pos + 1
                cond = self._parse_value()
                self._expect("goto")
                return ir.IfStmt(cond, self._qname())
            if head == "nop":
                self._pos = pos + 1
                return ir.NopStmt()
            if head == "goto":
                self._pos = pos + 1
                return ir.GotoStmt(self._qname())
            if head == "throw":
                self._pos = pos + 1
                return ir.ThrowStmt(self._parse_value())
            if head == "switch":
                return self._parse_switch()
        # an assignment to a ref (a 'static' one included)
        ref = self._parse_ref()
        self._expect("=")
        return ir.AssignStmt(ref, self._parse_rhs())

    def _parse_switch(self) -> ir.SwitchStmt:
        self._pos += 1  # 'switch'
        key = self._parse_value()
        self._expect("{")
        cases: List[Tuple[int, str]] = []
        default: Optional[str] = None
        while not self._accept("}"):
            if self._accept("case"):
                value = int(self._expect_kind("int"))
                self._expect(":")
                self._expect("goto")
                cases.append((value, self._qname()))
            elif self._accept("default"):
                self._expect(":")
                self._expect("goto")
                default = self._qname()
            else:
                raise self._error("expected 'case' or 'default'")
            self._accept(",")
        if default is None:
            raise self._error("switch requires a default arm")
        return ir.SwitchStmt(key, cases, default)

    # -- references and values -----------------------------------------------------

    def _parse_ref(self) -> ir.Value:
        pos = self._pos
        text = self._texts[pos]
        kind = self._kinds[pos]
        if kind == "name":
            self._pos = pos + 1
            base = self._locals[text]
            if self._texts[pos + 1] == "[":
                self._pos = pos + 2
                index = self._parse_value()
                self._expect("]")
                if not isinstance(index, (ir.Local, ir.IntConst)):
                    raise self._error("array index must be a local or int")
                return ir.ArrayRef(base, index)
            return base
        if kind == "qname":
            self._pos = pos + 1
            local, _, field_name = text.partition(".")
            if "." in field_name:
                raise self._error_at(
                    pos,
                    f"instance field access is base.field, got {text!r} "
                    "(use 'static' for static fields)",
                )
            return ir.InstanceFieldRef(self._locals[local], field_name)
        if text == "static":
            self._pos = pos + 1
            class_name, _, field_name = self._qname().rpartition(".")
            if not class_name:
                raise self._error("static reference needs Class.field")
            return ir.StaticFieldRef(class_name, field_name)
        raise self._error("expected a reference")

    def _parse_value(self) -> ir.Value:
        pos = self._pos
        kind = self._kinds[pos]
        if kind == "name" or kind == "qname":
            return self._parse_ref()
        text = self._texts[pos]
        if kind == "int":
            self._pos = pos + 1
            return ir.IntConst(int(text))
        if kind == "string":
            self._pos = pos + 1
            raw = text[1:-1]
            return ir.StringConst(raw.replace('\\"', '"').replace("\\\\", "\\"))
        if text == "null":
            self._pos = pos + 1
            return ir.NullConst()
        if text == "class":
            self._pos = pos + 1
            return ir.ClassConst(self._qname())
        if text == "static":
            return self._parse_ref()
        raise self._error("expected a value")

    def _parse_rhs(self) -> ir.Value:
        pos = self._pos
        head = self._texts[pos]
        if head == "new":
            self._pos = pos + 1
            return ir.NewExpr(self._qname())
        if head == "newarray":
            self._pos = pos + 1
            etype = self._type()
            self._expect("[")
            size = self._parse_value()
            self._expect("]")
            return ir.NewArrayExpr(etype, size)
        if head in _INVOKE_KINDS and self._is_invoke_ahead():
            return self._parse_invoke()
        if head == "(":
            self._pos = pos + 1
            ttype = self._type()
            self._expect(")")
            return ir.CastExpr(ttype, self._parse_value())
        value = self._parse_value()
        op = self._texts[self._pos]
        if op == "instanceof":
            self._pos += 1
            return ir.InstanceOfExpr(value, self._type())
        if op in ir._BINOPS:
            self._pos += 1
            return ir.BinOpExpr(op, value, self._parse_value())
        return value

    def _is_invoke_ahead(self) -> bool:
        """Disambiguate ``static C.m(...)`` (invoke) from ``static C.f``
        (field reference): an invoke has ``(`` after its target path."""
        pos = self._pos + 1
        if self._kinds[pos] == "name":  # receiver local
            pos += 1
        return self._kinds[pos] == "qname" and self._texts[pos + 1] == "("

    def _parse_invoke(self) -> ir.InvokeExpr:
        """An invoke, once :meth:`_is_invoke_ahead` has seen its shape."""
        texts = self._texts
        pos = self._pos
        kind = texts[pos]
        pos += 1
        base: Optional[ir.Value] = None
        if kind != ir.InvokeKind.STATIC:
            if self._kinds[pos] != "name":
                raise self._error("expected 'name'", pos)
            base = self._locals[texts[pos]]
            pos += 1
        if self._kinds[pos] != "qname":
            raise self._error("expected Class.method path", pos)
        class_name, _, method_name = texts[pos].rpartition(".")
        pos += 2  # the path and the '(' that _is_invoke_ahead saw after it
        args: List[ir.Value] = []
        if texts[pos] != ")":
            while True:
                self._pos = pos
                args.append(self._parse_value())
                pos = self._pos
                if texts[pos] == ")":
                    break
                if texts[pos] != ",":
                    raise self._error("expected ','")
                pos += 1
        self._pos = pos + 1
        return ir.InvokeExpr(kind, base, class_name, method_name, args)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _fmt_value(v: ir.Value) -> str:
    if isinstance(v, ir.StaticFieldRef):
        return f"static {v.class_name}.{v.field_name}"
    if isinstance(v, ir.InstanceFieldRef):
        return f"{v.base.name}.{v.field_name}"
    if isinstance(v, ir.ArrayRef):
        return f"{v.base.name}[{_fmt_value(v.index)}]"
    if isinstance(v, ir.InvokeExpr):
        args = ", ".join(_fmt_value(a) for a in v.args)
        target = f"{v.class_name}.{v.method_name}"
        if v.base is None:
            return f"{v.kind} {target}({args})"
        base = "this" if isinstance(v.base, ir.ThisRef) else _fmt_value(v.base)
        return f"{v.kind} {base} {target}({args})"
    if isinstance(v, ir.NewExpr):
        return f"new {v.class_name}"
    if isinstance(v, ir.NewArrayExpr):
        return f"newarray {v.element_type.name}[{_fmt_value(v.size)}]"
    if isinstance(v, ir.CastExpr):
        return f"({v.target_type.name}) {_fmt_value(v.op)}"
    if isinstance(v, ir.InstanceOfExpr):
        return f"{_fmt_value(v.op)} instanceof {v.check_type.name}"
    if isinstance(v, ir.BinOpExpr):
        return f"{_fmt_value(v.left)} {v.op} {_fmt_value(v.right)}"
    return str(v)


def _fmt_statement(stmt: ir.Statement) -> str:
    prefix = f"{stmt.label}: " if stmt.label else ""
    if isinstance(stmt, ir.IdentityStmt):
        return f"{prefix}{stmt.local.name} := {stmt.ref}"
    if isinstance(stmt, ir.AssignStmt):
        return f"{prefix}{_fmt_value(stmt.target)} = {_fmt_value(stmt.rhs)}"
    if isinstance(stmt, ir.InvokeStmt):
        return f"{prefix}{_fmt_value(stmt.expr)}"
    if isinstance(stmt, ir.ReturnStmt):
        if stmt.value is None:
            return f"{prefix}return"
        return f"{prefix}return {_fmt_value(stmt.value)}"
    if isinstance(stmt, ir.IfStmt):
        return f"{prefix}if {_fmt_value(stmt.cond)} goto {stmt.target}"
    if isinstance(stmt, ir.GotoStmt):
        return f"{prefix}goto {stmt.target}"
    if isinstance(stmt, ir.SwitchStmt):
        arms = " ".join(f"case {v}: goto {l}," for v, l in stmt.cases)
        return (
            f"{prefix}switch {_fmt_value(stmt.key)} "
            f"{{ {arms} default: goto {stmt.default} }}"
        )
    if isinstance(stmt, ir.ThrowStmt):
        return f"{prefix}throw {_fmt_value(stmt.value)}"
    if isinstance(stmt, ir.NopStmt):
        return f"{prefix}nop"
    raise JasmSyntaxError(f"cannot print statement {stmt!r}")


def dump_class(cls: JavaClass) -> str:
    """Serialise one class to jasm text."""
    lines: List[str] = []
    kind = "interface" if cls.is_interface else "class"
    header = f"{kind} {cls.name}"
    if cls.super_name and cls.super_name != "java.lang.Object":
        header += f" extends {cls.super_name}"
    if cls.interface_names:
        header += " implements " + ", ".join(cls.interface_names)
    lines.append(header + " {")
    if cls.lint_suppressions:
        lines.append(f"  # lint: ignore[{', '.join(sorted(cls.lint_suppressions))}]")
    for field in cls.fields.values():
        mods = " ".join(
            n
            for n in field.modifiers.names()
            if n in _MODIFIER_NAMES and n != "public"
        )
        mods = (mods + " ") if mods else ""
        lines.append(f"  field {mods}{field.type.name} {field.name};")
    for method in cls.methods.values():
        mods = " ".join(
            n
            for n in method.modifiers.names()
            if n in _MODIFIER_NAMES and n != "public"
        )
        mods = (mods + " ") if mods else ""
        params = ", ".join(
            f"{t.name} {n}" for t, n in zip(method.param_types, method.param_names)
        )
        sig = f"  method {mods}{method.return_type.name} {method.name}({params})"
        if not method.has_body:
            lines.append(sig + ";")
            continue
        lines.append(sig + " {")
        if method.lint_suppressions:
            lines.append(
                f"    # lint: ignore[{', '.join(sorted(method.lint_suppressions))}]"
            )
        for stmt in method.body:
            lines.append(f"    {_fmt_statement(stmt)};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps(classes: Sequence[JavaClass]) -> str:
    """Serialise classes to a single jasm document."""
    return "\n".join(dump_class(c) for c in classes)


def loads(source: str) -> List[JavaClass]:
    """Parse jasm text into classes."""
    return Parser(source).parse_program()
