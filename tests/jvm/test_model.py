"""Unit tests for the class/method/field model."""

import pytest

from repro.errors import ClassModelError
from repro.jvm import types as jt
from repro.jvm.model import (
    SERIALIZABLE,
    JavaClass,
    JavaField,
    JavaMethod,
    MethodSignature,
    Modifier,
)


class TestModifier:
    def test_from_names(self):
        m = Modifier.from_names(["public", "static"])
        assert m & Modifier.PUBLIC
        assert m & Modifier.STATIC

    def test_unknown_name_rejected(self):
        with pytest.raises(ClassModelError):
            Modifier.from_names(["bogus"])

    def test_names_round_trip(self):
        m = Modifier.PUBLIC | Modifier.FINAL
        assert set(m.names()) == {"public", "final"}


class TestMethodSignature:
    def test_signature_string(self):
        sig = MethodSignature("a.B", "run", [jt.INT, jt.STRING], jt.VOID)
        assert sig.signature == "<a.B: void run(int,java.lang.String)>"
        assert sig.sub_signature == "void run(int,java.lang.String)"

    def test_alias_key_ignores_types(self):
        s1 = MethodSignature("a.B", "run", [jt.INT], jt.VOID)
        s2 = MethodSignature("c.D", "run", [jt.STRING], jt.OBJECT)
        assert s1.alias_key == s2.alias_key == ("run", 1)

    def test_equality_and_hash(self):
        s1 = MethodSignature("a.B", "run", [jt.INT], jt.VOID)
        s2 = MethodSignature("a.B", "run", [jt.INT], jt.VOID)
        assert s1 == s2
        assert hash(s1) == hash(s2)

    def test_empty_name_rejected(self):
        with pytest.raises(ClassModelError):
            MethodSignature("a.B", "", [], jt.VOID)


class TestJavaMethod:
    def test_default_param_names(self):
        m = JavaMethod("f", [jt.INT, jt.INT])
        assert m.param_names == ("p1", "p2")

    def test_param_name_count_mismatch_rejected(self):
        with pytest.raises(ClassModelError):
            JavaMethod("f", [jt.INT], param_names=["a", "b"])

    def test_predicates(self):
        init = JavaMethod("<init>")
        clinit = JavaMethod("<clinit>", modifiers=Modifier.STATIC)
        assert init.is_constructor
        assert clinit.is_static_initializer
        assert clinit.is_static

    def test_unattached_method_has_no_class(self):
        m = JavaMethod("f")
        with pytest.raises(ClassModelError):
            _ = m.class_name

    def test_signature_after_attach(self):
        cls = JavaClass("a.B")
        m = cls.add_method(JavaMethod("f", [jt.INT], jt.VOID))
        assert m.signature.signature == "<a.B: void f(int)>"

    def test_signature_is_built_once_per_owner(self):
        m = JavaClass("a.B").add_method(JavaMethod("f", [jt.INT], jt.VOID))
        assert m.signature is m.signature
        JavaClass("a.C").add_method(m)
        assert m.signature.signature == "<a.C: void f(int)>"
        assert m.signature is m.signature


class TestJavaClass:
    def test_object_has_no_super(self):
        obj = JavaClass("java.lang.Object")
        assert obj.super_name is None

    def test_default_super(self):
        cls = JavaClass("a.B")
        assert cls.super_name == "java.lang.Object"

    def test_duplicate_field_rejected(self):
        cls = JavaClass("a.B")
        cls.add_field(JavaField("x", jt.INT))
        with pytest.raises(ClassModelError):
            cls.add_field(JavaField("x", jt.LONG))

    def test_duplicate_method_rejected(self):
        cls = JavaClass("a.B")
        cls.add_method(JavaMethod("f", [jt.INT]))
        with pytest.raises(ClassModelError):
            cls.add_method(JavaMethod("f", [jt.INT]))

    def test_overloads_allowed(self):
        cls = JavaClass("a.B")
        cls.add_method(JavaMethod("f", [jt.INT]))
        cls.add_method(JavaMethod("f", [jt.STRING]))
        assert len(cls.methods_named("f")) == 2

    def test_find_method_by_arity(self):
        cls = JavaClass("a.B")
        one = cls.add_method(JavaMethod("f", [jt.INT]))
        two = cls.add_method(JavaMethod("f", [jt.INT, jt.INT]))
        assert cls.find_method("f", 2) is two
        assert cls.find_method("f", 1) is one
        assert cls.find_method("g") is None

    def test_declares_serializable(self):
        cls = JavaClass("a.B", interface_names=[SERIALIZABLE])
        assert cls.declares_serializable
        assert not JavaClass("a.C").declares_serializable

    def test_interface_predicate(self):
        iface = JavaClass("a.I", modifiers=Modifier.PUBLIC | Modifier.INTERFACE)
        assert iface.is_interface

    def test_transient_field(self):
        f = JavaField("cache", jt.OBJECT, Modifier.PUBLIC | Modifier.TRANSIENT)
        assert f.is_transient
