"""The ``Token``-object jasm lexer and parser, kept as the differential
oracle for :mod:`repro.jvm.jasm`.

This is the lexer/parser pair the flat-stream implementation replaced:
one ``Token`` object per lexeme and a ``_peek``/``_next``/``_accept``/
``_expect`` recursive descent over them.  :func:`loads` must give the
same classes (compared through ``jasm.dump_class``) and the same errors
(message, line, column) as ``repro.jvm.jasm.loads``, except that this
oracle still lexes a bare ``<`` as a name, so ``a < b`` and ``a <= b``
do not parse here; ``tests/jvm/test_jasm_oracle.py`` compares the two.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import JasmSyntaxError
from repro.jvm import ir
from repro.jvm import types as jt
from repro.jvm.jasm import _KEYWORDS, _MODIFIER_NAMES
from repro.jvm.model import JavaClass, JavaField, JavaMethod, Modifier


class Token:
    """One lexeme.  Stores its offset into the source; ``line`` and
    ``column`` (both 1-based) are computed on demand, since only error
    messages and diagnostics ever read them."""

    __slots__ = ("kind", "text", "offset", "source")

    def __init__(self, kind: str, text: str, offset: int, source: str):
        self.kind = kind
        self.text = text
        self.offset = offset
        self.source = source

    @property
    def line(self) -> int:
        return self.source.count("\n", 0, self.offset) + 1

    @property
    def column(self) -> int:
        return self.offset - self.source.rfind("\n", 0, self.offset)

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


# ``# lint: ignore[rule, ...]`` comments survive the lexer as pragma
# tokens; every other comment is discarded.
_LINT_PRAGMA_RE = re.compile(r"^(?://|\#)\s*lint:\s*ignore\[([^\]]*)\]\s*$")

#: one match per token, leading whitespace included; ``bad`` catches
#: the first character no token starts with
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*
    (?:
      (?P<comment>//[^\n]*|\#[^\n]*)
    | (?P<string>"(?:\\.|[^"\\])*")
    | (?P<atref>@this|@param-\d+)
    | (?P<assign_id>:=)
    | (?P<int>-?\d+)
    | (?P<qname>[A-Za-z_$<][\w$>]*(?:\.[A-Za-z_$<][\w$>]*)+)
    | (?P<name>[A-Za-z_$<][\w$>]*)
    | (?P<op>==|!=|<=|>=|\|\||&&|\[\]|[{}()\[\];:,.=<>+\-*/%&|^])
    | (?P<bad>[^ \t\r\n])
    )
    """,
    re.VERBOSE,
)


class Lexer:
    """Tokenises jasm source."""

    def __init__(self, source: str):
        self.source = source

    def tokens(self) -> List[Token]:
        source = self.source
        out: List[Token] = []
        for m in _TOKEN_RE.finditer(source):
            kind = m.lastgroup
            text = m.group(kind)
            offset = m.end() - len(text)  # the token ends the match
            if kind == "name":
                if text in _KEYWORDS:
                    kind = "kw"
            elif kind == "comment":
                pragma = _LINT_PRAGMA_RE.match(text)
                if pragma is None:
                    continue
                kind, text = "pragma", pragma.group(1)
            elif kind == "bad":
                tok = Token(kind, text, offset, source)
                raise JasmSyntaxError(
                    f"unexpected character {text!r}", tok.line, tok.column
                )
            out.append(Token(kind, text, offset, source))
        out.append(Token("eof", "", len(source), source))
        return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _pragma_rules(text: str) -> List[str]:
    """Rule names from the bracket payload of a lint pragma."""
    return [rule.strip() for rule in text.split(",") if rule.strip()]


class Parser:
    """Recursive-descent parser producing :class:`JavaClass` objects."""

    def __init__(self, source: str):
        self._tokens = Lexer(source).tokens()
        # _next never moves past the first eof and _peek looks at most
        # three tokens ahead, so three more eofs keep every peek in range
        self._tokens += self._tokens[-1:] * 3
        self._pos = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self._next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise JasmSyntaxError(
                f"expected {want!r}, got {tok.text!r}", tok.line, tok.column
            )
        return tok

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self._peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self._next()
        return None

    def _error(self, message: str) -> JasmSyntaxError:
        tok = self._peek()
        return JasmSyntaxError(message + f", got {tok.text!r}", tok.line, tok.column)

    # -- grammar -----------------------------------------------------------------

    def parse_program(self) -> List[JavaClass]:
        classes: List[JavaClass] = []
        while self._peek().kind != "eof":
            classes.append(self.parse_class())
        return classes

    def parse_class(self) -> JavaClass:
        modifiers = Modifier.PUBLIC
        is_interface = False
        tok = self._next()
        if tok.kind == "kw" and tok.text == "interface":
            is_interface = True
            modifiers |= Modifier.INTERFACE | Modifier.ABSTRACT
        elif not (tok.kind == "kw" and tok.text == "class"):
            raise JasmSyntaxError(
                f"expected 'class' or 'interface', got {tok.text!r}",
                tok.line,
                tok.column,
            )
        name = self._qname()
        super_name: Optional[str] = "java.lang.Object"
        interfaces: List[str] = []
        if self._accept("kw", "extends"):
            super_name = self._qname()
        if name == "java.lang.Object":
            super_name = None
        if self._accept("kw", "implements"):
            interfaces.append(self._qname())
            while self._accept("op", ","):
                interfaces.append(self._qname())
        cls = JavaClass(name, super_name, interfaces, modifiers)
        self._expect("op", "{")
        while not self._accept("op", "}"):
            kw = self._peek()
            if kw.kind == "pragma":
                cls.lint_suppressions.update(_pragma_rules(self._next().text))
            elif kw.kind == "kw" and kw.text == "field":
                self._parse_field(cls)
            elif kw.kind == "kw" and kw.text == "method":
                self._parse_method(cls, is_interface)
            else:
                raise self._error("expected 'field' or 'method'")
        return cls

    def _qname(self) -> str:
        tok = self._next()
        if tok.kind not in ("name", "qname"):
            raise JasmSyntaxError(
                f"expected a name, got {tok.text!r}", tok.line, tok.column
            )
        return tok.text

    def _modifiers(self) -> Modifier:
        flags = Modifier(0)
        while True:
            tok = self._peek()
            if tok.kind == "kw" and tok.text in _MODIFIER_NAMES:
                self._next()
                flags |= Modifier[tok.text.upper()]
            else:
                break
        return flags or Modifier.PUBLIC

    def _type(self) -> jt.JavaType:
        name = self._qname()
        dims = 0
        while self._peek().kind == "op" and self._peek().text == "[]":
            self._next()
            dims += 1
        # also accept explicit '[' ']' pairs
        while (
            self._peek().text == "["
            and self._peek(1).text == "]"
        ):
            self._next()
            self._next()
            dims += 1
        base = jt.type_from_name(name)
        if dims:
            return jt.array_of(base, dims)
        return base

    def _identifier(self) -> str:
        """An identifier position: keywords are acceptable names here
        (Java fields/parameters may legitimately be called ``method``,
        ``class`` has no such clash in jasm grammar positions)."""
        tok = self._next()
        if tok.kind not in ("name", "kw"):
            raise JasmSyntaxError(
                f"expected an identifier, got {tok.text!r}", tok.line, tok.column
            )
        return tok.text

    def _parse_field(self, cls: JavaClass) -> None:
        self._expect("kw", "field")
        modifiers = self._modifiers()
        ftype = self._type()
        name = self._identifier()
        self._expect("op", ";")
        cls.add_field(JavaField(name, ftype, modifiers))

    def _parse_method(self, cls: JavaClass, in_interface: bool) -> None:
        self._expect("kw", "method")
        modifiers = self._modifiers()
        rtype = self._type()
        name = self._qname()
        self._expect("op", "(")
        ptypes: List[jt.JavaType] = []
        pnames: List[str] = []
        if not self._accept("op", ")"):
            while True:
                ptypes.append(self._type())
                pnames.append(self._identifier())
                if self._accept("op", ")"):
                    break
                self._expect("op", ",")
        if in_interface:
            modifiers |= Modifier.ABSTRACT
        method = JavaMethod(name, ptypes, rtype, modifiers, pnames)
        cls.add_method(method)
        if self._accept("op", ";"):
            return
        self._expect("op", "{")
        body: List[ir.Statement] = []
        while not self._accept("op", "}"):
            if self._peek().kind == "pragma":
                method.lint_suppressions.update(_pragma_rules(self._next().text))
                continue
            body.append(self._parse_statement())
        method.body = body

    # -- statements --------------------------------------------------------------

    def _parse_statement(self) -> ir.Statement:
        label: Optional[str] = None
        if (
            self._peek().kind == "name"
            and self._peek(1).kind == "op"
            and self._peek(1).text == ":"
        ):
            label = self._next().text
            self._next()
        stmt = self._parse_statement_body()
        stmt.label = label
        self._expect("op", ";")
        return stmt

    def _parse_statement_body(self) -> ir.Statement:
        tok = self._peek()
        if tok.kind == "kw":
            if tok.text == "return":
                self._next()
                if self._peek().text == ";":
                    return ir.ReturnStmt(None)
                return ir.ReturnStmt(self._parse_value())
            if tok.text == "if":
                self._next()
                cond = self._parse_value()
                self._expect("kw", "goto")
                return ir.IfStmt(cond, self._qname())
            if tok.text == "goto":
                self._next()
                return ir.GotoStmt(self._qname())
            if tok.text == "throw":
                self._next()
                return ir.ThrowStmt(self._parse_value())
            if tok.text == "nop":
                self._next()
                return ir.NopStmt()
            if tok.text == "switch":
                return self._parse_switch()
            if tok.text in ir.InvokeKind.ALL and self._is_invoke_ahead():
                return ir.InvokeStmt(self._parse_invoke())
            if tok.text == "static":
                ref = self._parse_ref()
                self._expect("op", "=")
                return ir.AssignStmt(ref, self._parse_rhs())
        # identity or assignment starting with a ref
        if tok.kind == "name" and self._peek(1).kind == "assign_id":
            local = ir.Local(self._next().text)
            self._next()
            at = self._expect("atref")
            if at.text == "@this":
                return ir.IdentityStmt(local, ir.ThisRef())
            index = int(at.text[len("@param-") :])
            return ir.IdentityStmt(local, ir.ParamRef(index))
        ref = self._parse_ref()
        self._expect("op", "=")
        return ir.AssignStmt(ref, self._parse_rhs())

    def _parse_switch(self) -> ir.SwitchStmt:
        self._expect("kw", "switch")
        key = self._parse_value()
        self._expect("op", "{")
        cases: List[Tuple[int, str]] = []
        default: Optional[str] = None
        while not self._accept("op", "}"):
            if self._accept("kw", "case"):
                value = int(self._expect("int").text)
                self._expect("op", ":")
                self._expect("kw", "goto")
                cases.append((value, self._qname()))
            elif self._accept("kw", "default"):
                self._expect("op", ":")
                self._expect("kw", "goto")
                default = self._qname()
            else:
                raise self._error("expected 'case' or 'default'")
            self._accept("op", ",")
        if default is None:
            raise self._error("switch requires a default arm")
        return ir.SwitchStmt(key, cases, default)

    # -- references and values -----------------------------------------------------

    def _parse_ref(self) -> ir.Value:
        if self._accept("kw", "static"):
            path = self._qname()
            class_name, _, field_name = path.rpartition(".")
            if not class_name:
                raise self._error("static reference needs Class.field")
            return ir.StaticFieldRef(class_name, field_name)
        tok = self._next()
        if tok.kind == "qname":
            parts = tok.text.split(".")
            if len(parts) != 2:
                raise JasmSyntaxError(
                    f"instance field access is base.field, got {tok.text!r} "
                    "(use 'static' for static fields)",
                    tok.line,
                    tok.column,
                )
            return ir.InstanceFieldRef(ir.Local(parts[0]), parts[1])
        if tok.kind != "name":
            raise JasmSyntaxError(
                f"expected a reference, got {tok.text!r}", tok.line, tok.column
            )
        base = ir.Local(tok.text)
        if self._peek().text == "[":
            self._next()
            index = self._parse_value()
            self._expect("op", "]")
            if not isinstance(index, (ir.Local, ir.IntConst)):
                raise self._error("array index must be a local or int")
            return ir.ArrayRef(base, index)
        return base

    def _parse_value(self) -> ir.Value:
        tok = self._peek()
        if tok.kind == "int":
            self._next()
            return ir.IntConst(int(tok.text))
        if tok.kind == "string":
            self._next()
            raw = tok.text[1:-1]
            return ir.StringConst(raw.replace('\\"', '"').replace("\\\\", "\\"))
        if tok.kind == "kw" and tok.text == "null":
            self._next()
            return ir.NullConst()
        if tok.kind == "kw" and tok.text == "class":
            self._next()
            return ir.ClassConst(self._qname())
        if tok.kind == "kw" and tok.text == "static":
            return self._parse_ref()
        if tok.kind in ("name", "qname"):
            return self._parse_ref()
        raise JasmSyntaxError(
            f"expected a value, got {tok.text!r}", tok.line, tok.column
        )

    def _parse_rhs(self) -> ir.Value:
        tok = self._peek()
        if tok.kind == "kw" and tok.text == "new":
            self._next()
            return ir.NewExpr(self._qname())
        if tok.kind == "kw" and tok.text == "newarray":
            self._next()
            etype = self._type()
            self._expect("op", "[")
            size = self._parse_value()
            self._expect("op", "]")
            return ir.NewArrayExpr(etype, size)
        if tok.kind == "kw" and tok.text in ir.InvokeKind.ALL and self._is_invoke_ahead():
            return self._parse_invoke()
        if tok.text == "(":
            self._next()
            ttype = self._type()
            self._expect("op", ")")
            return ir.CastExpr(ttype, self._parse_value())
        value = self._parse_value()
        nxt = self._peek()
        if nxt.kind == "kw" and nxt.text == "instanceof":
            self._next()
            return ir.InstanceOfExpr(value, self._type())
        if nxt.kind == "op" and nxt.text in (
            "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&", "|", "^",
        ):
            self._next()
            right = self._parse_value()
            return ir.BinOpExpr(nxt.text, value, right)
        return value

    def _is_invoke_ahead(self) -> bool:
        """Disambiguate ``static C.m(...)`` (invoke) from ``static C.f``
        (field reference): an invoke has ``(`` after its target path."""
        offset = 1
        if self._peek(offset).kind == "name":  # receiver local
            offset += 1
        if self._peek(offset).kind != "qname":
            return False
        after = self._peek(offset + 1)
        return after.kind == "op" and after.text == "("

    def _parse_invoke(self) -> ir.InvokeExpr:
        kind_tok = self._next()
        kind = kind_tok.text
        base: Optional[ir.Value] = None
        if kind != ir.InvokeKind.STATIC:
            tok = self._expect("name")
            base = ir.Local(tok.text)
        path_tok = self._next()
        if path_tok.kind != "qname":
            raise JasmSyntaxError(
                f"expected Class.method path, got {path_tok.text!r}",
                path_tok.line,
                path_tok.column,
            )
        class_name, _, method_name = path_tok.text.rpartition(".")
        if not class_name:
            raise self._error("invoke target needs Class.method")
        self._expect("op", "(")
        args: List[ir.Value] = []
        if not self._accept("op", ")"):
            while True:
                args.append(self._parse_value())
                if self._accept("op", ")"):
                    break
                self._expect("op", ",")
        return ir.InvokeExpr(kind, base, class_name, method_name, args)


def loads(source: str) -> List[JavaClass]:
    """Parse jasm text into classes."""
    return Parser(source).parse_program()
