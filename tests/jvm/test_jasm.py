"""Unit tests for the jasm textual format (lexer, parser, printer)."""

import pytest

from repro.errors import JasmSyntaxError
from repro.jvm import ir, jasm
from repro.jvm.builder import ProgramBuilder
from repro.jvm.model import SERIALIZABLE


def round_trip(source: str) -> str:
    return jasm.dumps(jasm.loads(source))


class TestLexer:
    def test_basic_tokens(self):
        toks = jasm.Lexer('a = "hi" ; // comment\n b := @param-1 ;').tokens()
        kinds = [t.kind for t in toks]
        assert "string" in kinds
        assert "assign_id" in kinds
        assert "atref" in kinds
        assert kinds[-1] == "eof"

    def test_qname_vs_name(self):
        toks = jasm.Lexer("java.lang.Object foo").tokens()
        assert toks[0].kind == "qname"
        assert toks[1].kind == "name"

    def test_line_tracking(self):
        toks = jasm.Lexer("a\nb").tokens()
        assert toks[0].line == 1
        assert toks[1].line == 2

    def test_unexpected_character(self):
        with pytest.raises(JasmSyntaxError):
            jasm.Lexer("a ~ b").tokens()

    def test_keywords_recognised(self):
        toks = jasm.Lexer("class interface return").tokens()
        assert all(t.kind == "kw" for t in toks[:-1])

    def test_positions_are_one_based_line_and_column(self):
        toks = jasm.Lexer("a\r\n\t b  // c\n# lint: ignore[x]\n  ").tokens()
        assert [(t.kind, t.text, t.line, t.column) for t in toks] == [
            ("name", "a", 1, 1),
            ("name", "b", 2, 3),
            ("pragma", "x", 3, 1),
            ("eof", "", 4, 3),
        ]

    @pytest.mark.parametrize(
        "source, line, column",
        [("a ~ b", 1, 3), ("a\n  \"open", 2, 3), ("x\r\n\t?", 2, 2)],
    )
    def test_unexpected_character_position(self, source, line, column):
        with pytest.raises(JasmSyntaxError) as info:
            jasm.Lexer(source).tokens()
        assert (info.value.line, info.value.column) == (line, column)

    @pytest.mark.parametrize("source", ["", "   ", "\n\t\n", "// only"])
    def test_blank_sources_lex_to_eof(self, source):
        assert [t.kind for t in jasm.Lexer(source).tokens()] == ["eof"]
        assert jasm.loads(source) == []


class TestParserBasics:
    def test_empty_class(self):
        (cls,) = jasm.loads("class a.B { }")
        assert cls.name == "a.B"
        assert cls.super_name == "java.lang.Object"

    def test_extends_implements(self):
        (cls,) = jasm.loads(
            "class a.B extends a.A implements x.I, java.io.Serializable { }"
        )
        assert cls.super_name == "a.A"
        assert cls.interface_names == ("x.I", "java.io.Serializable")

    def test_interface(self):
        (cls,) = jasm.loads("interface a.I { method java.lang.Object get(); }")
        assert cls.is_interface
        assert not cls.find_method("get").has_body

    def test_field(self):
        (cls,) = jasm.loads("class a.B { field static int count; field a.B next; }")
        assert cls.field("count").is_static
        assert cls.field("next").type.name == "a.B"

    def test_method_params(self):
        (cls,) = jasm.loads(
            "class a.B { method int f(int x, java.lang.String s) { return 0; } }"
        )
        m = cls.find_method("f")
        assert m.param_names == ("x", "s")
        assert [t.name for t in m.param_types] == ["int", "java.lang.String"]

    def test_array_types(self):
        (cls,) = jasm.loads("class a.B { field java.lang.Object[] items; }")
        assert cls.field("items").type.name == "java.lang.Object[]"

    def test_syntax_error_position(self):
        with pytest.raises(JasmSyntaxError) as exc:
            jasm.loads("class a.B {\n  field ; \n}")
        assert exc.value.line == 2


class TestStatements:
    def parse_body(self, stmts: str):
        (cls,) = jasm.loads(
            "class a.B { method void m(java.lang.Object p) { %s } }" % stmts
        )
        return cls.find_method("m").body

    def test_identity(self):
        body = self.parse_body("this := @this; p := @param-1;")
        assert isinstance(body[0], ir.IdentityStmt)
        assert isinstance(body[0].ref, ir.ThisRef)
        assert isinstance(body[1].ref, ir.ParamRef)
        assert body[1].ref.index == 1

    def test_field_access(self):
        body = self.parse_body("a = b.f; b.f = a;")
        load, store = body
        assert isinstance(load.rhs, ir.InstanceFieldRef)
        assert isinstance(store.target, ir.InstanceFieldRef)

    def test_static_field_access(self):
        body = self.parse_body(
            "a = static java.lang.System.out; static a.B.flag = a;"
        )
        load, store = body
        assert isinstance(load.rhs, ir.StaticFieldRef)
        assert load.rhs.class_name == "java.lang.System"
        assert load.rhs.field_name == "out"
        assert isinstance(store.target, ir.StaticFieldRef)

    def test_array_access(self):
        body = self.parse_body("a = b[0]; b[i] = a;")
        assert isinstance(body[0].rhs, ir.ArrayRef)
        assert isinstance(body[1].target, ir.ArrayRef)

    def test_new_and_newarray(self):
        body = self.parse_body("a = new x.Y; b = newarray int[10];")
        assert isinstance(body[0].rhs, ir.NewExpr)
        assert isinstance(body[1].rhs, ir.NewArrayExpr)

    def test_cast_and_instanceof(self):
        body = self.parse_body("a = (x.Y) b; c = b instanceof x.Y;")
        assert isinstance(body[0].rhs, ir.CastExpr)
        assert isinstance(body[1].rhs, ir.InstanceOfExpr)

    def test_binop(self):
        body = self.parse_body("a = b == c; d = b + c;")
        assert isinstance(body[0].rhs, ir.BinOpExpr)
        assert body[0].rhs.op == "=="
        assert body[1].rhs.op == "+"

    @pytest.mark.parametrize("op", sorted(ir._BINOPS))
    def test_every_binop_round_trips(self, op):
        pb = ProgramBuilder()
        with pb.cls("demo.Ops") as c:
            with c.method("m", params=["int"], returns="int") as m:
                m.ret(m.binop(op, m.param(1), -1))
        text = jasm.dumps(pb.build())
        assert f" {op} -1;" in text
        assert round_trip(text) == text
        (cls,) = jasm.loads(text)
        assert cls.find_method("m").body[-2].rhs.op == op

    def test_less_than_is_an_operator(self):
        body = self.parse_body("a = b < c; d = b <= c; special this x.Y.<init>();")
        assert [s.rhs.op for s in body[:2]] == ["<", "<="]
        assert body[2].invoke_expr().method_name == "<init>"

    def test_virtual_invoke(self):
        body = self.parse_body("virtual b java.lang.Runtime.exec(a);")
        call = body[0].invoke_expr()
        assert call.kind == "virtual"
        assert call.class_name == "java.lang.Runtime"
        assert call.method_name == "exec"
        assert call.args == (ir.Local("a"),)

    def test_static_invoke_vs_static_field(self):
        body = self.parse_body(
            "r = static java.lang.Runtime.getRuntime(); s = static a.B.flag;"
        )
        assert isinstance(body[0].rhs, ir.InvokeExpr)
        assert isinstance(body[1].rhs, ir.StaticFieldRef)

    def test_constructor_invoke(self):
        body = self.parse_body("a = new x.Y; special a x.Y.<init>(p);")
        call = body[1].invoke_expr()
        assert call.method_name == "<init>"

    def test_control_flow(self):
        body = self.parse_body(
            "if a goto end; goto end; end: return; "
        )
        assert isinstance(body[0], ir.IfStmt)
        assert isinstance(body[1], ir.GotoStmt)
        assert body[2].label == "end"

    def test_switch(self):
        body = self.parse_body(
            "switch p { case 1: goto a, case 2: goto b, default: goto c }; "
            "a: nop; b: nop; c: return;"
        )
        sw = body[0]
        assert isinstance(sw, ir.SwitchStmt)
        assert sw.cases == ((1, "a"), (2, "b"))
        assert sw.default == "c"

    def test_throw_and_nop(self):
        body = self.parse_body("nop; throw p;")
        assert isinstance(body[0], ir.NopStmt)
        assert isinstance(body[1], ir.ThrowStmt)

    def test_string_constants(self):
        body = self.parse_body('a = "hello \\"world\\"";')
        assert body[0].rhs == ir.StringConst('hello "world"')

    def test_class_constant(self):
        body = self.parse_body("a = class java.lang.Runtime;")
        assert body[0].rhs == ir.ClassConst("java.lang.Runtime")

    def test_null_and_int(self):
        body = self.parse_body("a = null; b = -5;")
        assert isinstance(body[0].rhs, ir.NullConst)
        assert body[1].rhs == ir.IntConst(-5)

    def test_deep_dotted_ref_rejected(self):
        with pytest.raises(JasmSyntaxError):
            self.parse_body("a = b.c.d;")


class TestRoundTrip:
    def test_idempotent_on_builder_output(self):
        pb = ProgramBuilder()
        with pb.cls("demo.Chain", implements=[SERIALIZABLE]) as c:
            c.field("next", "java.lang.Object")
            c.field("flag", "int", static=True)
            with c.method("readObject", params=["java.io.ObjectInputStream"]) as m:
                v = m.get_field(m.this, "next")
                m.if_eq(v, None, "skip")
                m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")
                m.label("skip")
                arr = m.new_array("int", 3)
                m.array_set(arr, 0, 1)
                m.set_static("demo.Chain", "flag", 1)
                g = m.get_static("demo.Chain", "flag")
                m.switch(g, [(1, "one")], "skip2")
                m.label("one")
                m.cast(v, "java.lang.String")
                m.label("skip2")
                m.ret()
        text = jasm.dumps(pb.build())
        assert round_trip(text) == text

    def test_two_classes(self):
        source = "class a.B { }\n\nclass a.C extends a.B { }"
        classes = jasm.loads(source)
        assert [c.name for c in classes] == ["a.B", "a.C"]

    def test_comments_ignored(self):
        (cls,) = jasm.loads("// a comment\nclass a.B { # another\n }")
        assert cls.name == "a.B"
