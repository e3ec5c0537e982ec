"""Java type model.

This module replaces the type layer of Soot.  It models the Java type
system at the granularity Tabby's analysis needs: primitive types,
class/interface reference types, and array types, plus JVM-style
descriptor parsing (``Ljava/lang/Object;``, ``[I`` ...) and the
human-readable dotted form (``java.lang.Object``, ``int[]``).

Types are interned: constructing the same type twice yields the same
object, so identity comparison is valid and type sets stay small even
for large corpora.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.errors import TypeModelError

__all__ = [
    "JavaType",
    "PrimitiveType",
    "ClassType",
    "ArrayType",
    "VoidType",
    "parse_descriptor",
    "parse_method_descriptor",
    "type_from_name",
    "BOOLEAN",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "LONG",
    "FLOAT",
    "DOUBLE",
    "VOID",
    "OBJECT",
    "STRING",
    "CLASS",
    "THROWABLE",
]


class JavaType:
    """Base class for all Java types.

    Instances are immutable and interned; use ``is`` or ``==``
    interchangeably for comparison.
    """

    #: dotted human-readable name, e.g. ``java.lang.Object`` or ``int[]``
    name: str
    #: JVM descriptor, e.g. ``Ljava/lang/Object;`` or ``[I``
    descriptor: str

    def __init__(self, name: str, descriptor: str):
        self.name = name
        self.descriptor = descriptor

    @property
    def is_primitive(self) -> bool:
        return isinstance(self, PrimitiveType)

    @property
    def is_reference(self) -> bool:
        return isinstance(self, (ClassType, ArrayType))

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, JavaType) and self.descriptor == other.descriptor
        )

    def __hash__(self) -> int:
        return hash(self.descriptor)


class PrimitiveType(JavaType):
    """One of the eight Java primitive types."""

    _DESCRIPTORS = {
        "boolean": "Z",
        "byte": "B",
        "char": "C",
        "short": "S",
        "int": "I",
        "long": "J",
        "float": "F",
        "double": "D",
    }

    def __init__(self, name: str):
        if name not in self._DESCRIPTORS:
            raise TypeModelError(f"not a primitive type: {name!r}")
        super().__init__(name, self._DESCRIPTORS[name])


class VoidType(JavaType):
    """The ``void`` pseudo-type (valid only as a return type)."""

    def __init__(self) -> None:
        super().__init__("void", "V")


class ClassType(JavaType):
    """A class or interface reference type, e.g. ``java.util.HashMap``."""

    def __init__(self, name: str):
        if not name or name.startswith(".") or name.endswith("."):
            raise TypeModelError(f"invalid class name: {name!r}")
        if "/" in name or ";" in name or "[" in name:
            raise TypeModelError(
                f"class names use dotted form, got descriptor-like {name!r}"
            )
        descriptor = "L" + name.replace(".", "/") + ";"
        super().__init__(name, descriptor)

    @property
    def package(self) -> str:
        """Package part of the name (empty string for the default package)."""
        head, _, _ = self.name.rpartition(".")
        return head

    @property
    def simple_name(self) -> str:
        """Class name without its package."""
        _, _, tail = self.name.rpartition(".")
        return tail


class ArrayType(JavaType):
    """An array type; ``element`` may itself be an array (multi-dim)."""

    def __init__(self, element: JavaType):
        if element.is_void:
            raise TypeModelError("void[] is not a valid type")
        super().__init__(element.name + "[]", "[" + element.descriptor)
        self.element = element

    @property
    def dimensions(self) -> int:
        dims = 1
        elem = self.element
        while isinstance(elem, ArrayType):
            dims += 1
            elem = elem.element
        return dims

    @property
    def base_element(self) -> JavaType:
        """Innermost non-array element type."""
        elem = self.element
        while isinstance(elem, ArrayType):
            elem = elem.element
        return elem


_INTERNED: Dict[str, JavaType] = {}


def _intern(t: JavaType) -> JavaType:
    return _INTERNED.setdefault(t.descriptor, t)


def primitive(name: str) -> PrimitiveType:
    """Interned primitive type by Java keyword (``int``, ``boolean`` ...)."""
    t = _intern(PrimitiveType(name))
    assert isinstance(t, PrimitiveType)
    return t


def class_type(name: str) -> ClassType:
    """Interned class type by dotted name."""
    t = _intern(ClassType(name))
    assert isinstance(t, ClassType)
    return t


def array_of(element: JavaType, dimensions: int = 1) -> ArrayType:
    """Interned array type over ``element`` with ``dimensions`` levels."""
    if dimensions < 1:
        raise TypeModelError("array dimensions must be >= 1")
    t: JavaType = element
    for _ in range(dimensions):
        t = _intern(ArrayType(t))
    assert isinstance(t, ArrayType)
    return t


BOOLEAN = primitive("boolean")
BYTE = primitive("byte")
CHAR = primitive("char")
SHORT = primitive("short")
INT = primitive("int")
LONG = primitive("long")
FLOAT = primitive("float")
DOUBLE = primitive("double")
VOID = _intern(VoidType())

OBJECT = class_type("java.lang.Object")
STRING = class_type("java.lang.String")
CLASS = class_type("java.lang.Class")
THROWABLE = class_type("java.lang.Throwable")

_PRIMITIVE_BY_DESC = {
    "Z": BOOLEAN,
    "B": BYTE,
    "C": CHAR,
    "S": SHORT,
    "I": INT,
    "J": LONG,
    "F": FLOAT,
    "D": DOUBLE,
}

_PRIMITIVE_NAMES = set(PrimitiveType._DESCRIPTORS)


def parse_descriptor(descriptor: str) -> JavaType:
    """Parse a single JVM field descriptor into a type.

    >>> parse_descriptor("Ljava/lang/String;").name
    'java.lang.String'
    >>> parse_descriptor("[[I").name
    'int[][]'
    """
    t, rest = _parse_one(descriptor, 0)
    if rest != len(descriptor):
        raise TypeModelError(f"trailing characters in descriptor: {descriptor!r}")
    return t


def _parse_one(descriptor: str, pos: int) -> Tuple[JavaType, int]:
    if pos >= len(descriptor):
        raise TypeModelError(f"truncated descriptor: {descriptor!r}")
    ch = descriptor[pos]
    if ch in _PRIMITIVE_BY_DESC:
        return _PRIMITIVE_BY_DESC[ch], pos + 1
    if ch == "V":
        return VOID, pos + 1
    if ch == "[":
        elem, end = _parse_one(descriptor, pos + 1)
        return array_of(elem), end
    if ch == "L":
        end = descriptor.find(";", pos)
        if end < 0:
            raise TypeModelError(f"unterminated class descriptor: {descriptor!r}")
        internal = descriptor[pos + 1 : end]
        if not internal:
            raise TypeModelError(f"empty class descriptor: {descriptor!r}")
        return class_type(internal.replace("/", ".")), end + 1
    raise TypeModelError(f"bad descriptor character {ch!r} in {descriptor!r}")


def parse_method_descriptor(descriptor: str) -> Tuple[Tuple[JavaType, ...], JavaType]:
    """Parse a JVM method descriptor, e.g. ``(ILjava/lang/String;)V``.

    Returns ``(parameter_types, return_type)``.
    """
    if not descriptor.startswith("("):
        raise TypeModelError(f"method descriptor must start with '(': {descriptor!r}")
    close = descriptor.find(")")
    if close < 0:
        raise TypeModelError(f"method descriptor missing ')': {descriptor!r}")
    params = []
    pos = 1
    while pos < close:
        t, pos = _parse_one(descriptor, pos)
        if t.is_void:
            raise TypeModelError("void is not a valid parameter type")
        params.append(t)
    if pos != close:
        raise TypeModelError(f"malformed parameter list: {descriptor!r}")
    ret = parse_descriptor(descriptor[close + 1 :])
    return tuple(params), ret


@lru_cache(maxsize=4096)  # types are interned, so a repeated name is a hit
def type_from_name(name: str) -> JavaType:
    """Parse a human-readable type name (``int``, ``java.util.Map[]`` ...)."""
    name = name.strip()
    if not name:
        raise TypeModelError("empty type name")
    dims = 0
    while name.endswith("[]"):
        dims += 1
        name = name[:-2].strip()
    if name == "void":
        base: JavaType = VOID
    elif name in _PRIMITIVE_NAMES:
        base = primitive(name)
    else:
        base = class_type(name)
    if dims:
        return array_of(base, dims)
    return base


def erased_match(a: JavaType, b: JavaType) -> bool:
    """Loose compatibility used by alias matching.

    Two reference types always erased-match (polymorphism may substitute
    any reference); primitives must match exactly.  This mirrors the
    paper's alias rule of "same name, return value and parameter count".
    """
    if a.is_reference and b.is_reference:
        return True
    return a == b
