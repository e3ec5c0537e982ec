"""Java class/method/field model.

Replaces Soot's ``SootClass``/``SootMethod``/``SootField``.  A
:class:`JavaClass` carries the class-level semantic information Tabby
extracts in §III-B1 of the paper: name, modifiers, superclass,
interfaces, fields, and methods.  A :class:`JavaMethod` carries its
signature, modifiers, and a body of IR statements (see
:mod:`repro.jvm.ir`).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.errors import ClassModelError
from repro.jvm import types as jt

if TYPE_CHECKING:  # pragma: no cover
    from repro.jvm.ir import Statement

__all__ = [
    "Modifier",
    "MethodSignature",
    "JavaField",
    "JavaMethod",
    "JavaClass",
    "SERIALIZABLE",
    "EXTERNALIZABLE",
]

#: dotted names of the two marker interfaces that make a class serializable
SERIALIZABLE = "java.io.Serializable"
EXTERNALIZABLE = "java.io.Externalizable"


class Modifier(enum.IntFlag):
    """JVM access/modifier flags (subset relevant to the analysis)."""

    PUBLIC = 0x0001
    PRIVATE = 0x0002
    PROTECTED = 0x0004
    STATIC = 0x0008
    FINAL = 0x0010
    SYNCHRONIZED = 0x0020
    VOLATILE = 0x0040
    TRANSIENT = 0x0080
    NATIVE = 0x0100
    INTERFACE = 0x0200
    ABSTRACT = 0x0400

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "Modifier":
        flags = cls(0)
        for name in names:
            try:
                flags |= cls[name.upper()]
            except KeyError:
                raise ClassModelError(f"unknown modifier: {name!r}") from None
        return flags

    def names(self) -> List[str]:
        return [m.name.lower() for m in Modifier if m & self and m.name]


class MethodSignature:
    """Immutable method signature: owner class, name, params, return type.

    ``key`` (name + parameter count + erased return kind) is the alias
    key from §III-B2: methods with the same name, return value and number
    of parameters are alias candidates.
    """

    __slots__ = ("class_name", "name", "param_types", "return_type", "_sig")

    def __init__(
        self,
        class_name: str,
        name: str,
        param_types: Sequence[jt.JavaType],
        return_type: jt.JavaType,
    ):
        if not name:
            raise ClassModelError("method name must be non-empty")
        self.class_name = class_name
        self.name = name
        self.param_types = tuple(param_types)
        self.return_type = return_type
        params = ",".join(t.name for t in self.param_types)
        self._sig = f"<{class_name}: {return_type.name} {name}({params})>"

    @property
    def signature(self) -> str:
        """Soot-style full signature string."""
        return self._sig

    @property
    def sub_signature(self) -> str:
        """Signature without the owning class (used for overriding checks)."""
        params = ",".join(t.name for t in self.param_types)
        return f"{self.return_type.name} {self.name}({params})"

    @property
    def alias_key(self) -> Tuple[str, int]:
        """Key under which alias candidates are grouped (paper §III-B2)."""
        return (self.name, len(self.param_types))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MethodSignature) and self._sig == other._sig

    def __hash__(self) -> int:
        return hash(self._sig)

    def __repr__(self) -> str:
        return f"MethodSignature({self._sig!r})"

    def __str__(self) -> str:
        return self._sig


class JavaField:
    """A field declaration inside a class."""

    __slots__ = ("name", "type", "modifiers", "owner")

    def __init__(
        self,
        name: str,
        ftype: jt.JavaType,
        modifiers: Modifier = Modifier.PUBLIC,
    ):
        if not name:
            raise ClassModelError("field name must be non-empty")
        self.name = name
        self.type = ftype
        self.modifiers = modifiers
        self.owner: Optional["JavaClass"] = None

    @property
    def is_static(self) -> bool:
        return bool(self.modifiers & Modifier.STATIC)

    @property
    def is_transient(self) -> bool:
        return bool(self.modifiers & Modifier.TRANSIENT)

    def __repr__(self) -> str:
        return f"JavaField({self.type.name} {self.name})"


class JavaMethod:
    """A method with signature, modifiers, locals and an IR body.

    The body is a flat list of :class:`~repro.jvm.ir.Statement`; branch
    targets are statement indexes resolved by the CFG builder.
    Abstract/native/interface methods have an empty body and
    ``has_body`` False.
    """

    def __init__(
        self,
        name: str,
        param_types: Sequence[jt.JavaType] = (),
        return_type: jt.JavaType = jt.VOID,
        modifiers: Modifier = Modifier.PUBLIC,
        param_names: Optional[Sequence[str]] = None,
    ):
        self.name = name
        self.param_types = tuple(param_types)
        self.return_type = return_type
        self.modifiers = modifiers
        if param_names is None:
            param_names = [f"p{i}" for i in range(1, len(self.param_types) + 1)]
        if len(param_names) != len(self.param_types):
            raise ClassModelError(
                f"{name}: {len(param_names)} parameter names for "
                f"{len(self.param_types)} parameter types"
            )
        self.param_names = tuple(param_names)
        self.body: List["Statement"] = []
        self.owner: Optional["JavaClass"] = None
        self._signature: Optional[MethodSignature] = None
        #: lint rule names suppressed for this method (``repro.lint``);
        #: authored via the builder DSL or a ``# lint: ignore[...]``
        #: pragma in jasm source.
        self.lint_suppressions: Set[str] = set()

    # -- identity ---------------------------------------------------------

    @property
    def class_name(self) -> str:
        if self.owner is None:
            raise ClassModelError(f"method {self.name} not attached to a class")
        return self.owner.name

    @property
    def signature(self) -> MethodSignature:
        """Built once per owner: a signature is immutable, so only a
        change of owner makes a new one."""
        sig = self._signature
        if sig is None or sig.class_name != self.class_name:
            sig = self._signature = MethodSignature(
                self.class_name, self.name, self.param_types, self.return_type
            )
        return sig

    # -- predicates --------------------------------------------------------

    @property
    def is_static(self) -> bool:
        return bool(self.modifiers & Modifier.STATIC)

    @property
    def is_abstract(self) -> bool:
        return bool(self.modifiers & Modifier.ABSTRACT)

    @property
    def is_native(self) -> bool:
        return bool(self.modifiers & Modifier.NATIVE)

    @property
    def is_constructor(self) -> bool:
        return self.name == "<init>"

    @property
    def is_static_initializer(self) -> bool:
        return self.name == "<clinit>"

    @property
    def has_body(self) -> bool:
        return bool(self.body)

    @property
    def arity(self) -> int:
        return len(self.param_types)

    def __repr__(self) -> str:
        owner = self.owner.name if self.owner else "?"
        return f"JavaMethod(<{owner}: {self.name}/{self.arity}>)"


class JavaClass:
    """A class or interface definition.

    ``super_name`` is a dotted class name (``None`` only for
    ``java.lang.Object``); ``interface_names`` are dotted names of
    directly implemented/extended interfaces.  Resolution of names to
    :class:`JavaClass` objects happens in :mod:`repro.jvm.hierarchy`.
    """

    def __init__(
        self,
        name: str,
        super_name: Optional[str] = "java.lang.Object",
        interface_names: Sequence[str] = (),
        modifiers: Modifier = Modifier.PUBLIC,
    ):
        jt.class_type(name)  # validates the name
        if name == "java.lang.Object":
            super_name = None
        self.name = name
        self.super_name = super_name
        self.interface_names: Tuple[str, ...] = tuple(interface_names)
        self.modifiers = modifiers
        self.fields: Dict[str, JavaField] = {}
        self.methods: Dict[str, JavaMethod] = {}  # keyed by sub_signature
        #: name of the jar archive this class came from, if any
        self.jar_name: Optional[str] = None
        #: lint rule names suppressed for every method of this class
        self.lint_suppressions: Set[str] = set()

    # -- construction -------------------------------------------------------

    def add_field(self, field: JavaField) -> JavaField:
        if field.name in self.fields:
            raise ClassModelError(f"duplicate field {self.name}.{field.name}")
        field.owner = self
        self.fields[field.name] = field
        return field

    def add_method(self, method: JavaMethod) -> JavaMethod:
        method.owner = self
        key = method.signature.sub_signature
        if key in self.methods:
            raise ClassModelError(f"duplicate method {self.name}.{key}")
        self.methods[key] = method
        return method

    # -- lookup --------------------------------------------------------------

    def field(self, name: str) -> Optional[JavaField]:
        return self.fields.get(name)

    def method(self, sub_signature: str) -> Optional[JavaMethod]:
        return self.methods.get(sub_signature)

    def methods_named(self, name: str) -> List[JavaMethod]:
        return [m for m in self.methods.values() if m.name == name]

    def find_method(self, name: str, arity: Optional[int] = None) -> Optional[JavaMethod]:
        """First method matching ``name`` (and ``arity`` when given)."""
        for m in self.methods.values():
            if m.name == name and (arity is None or m.arity == arity):
                return m
        return None

    # -- predicates -----------------------------------------------------------

    @property
    def is_interface(self) -> bool:
        return bool(self.modifiers & Modifier.INTERFACE)

    @property
    def is_abstract(self) -> bool:
        return bool(self.modifiers & Modifier.ABSTRACT)

    @property
    def declares_serializable(self) -> bool:
        """Whether this class *directly* names a serialization interface."""
        return SERIALIZABLE in self.interface_names or (
            EXTERNALIZABLE in self.interface_names
        )

    @property
    def type(self) -> jt.ClassType:
        return jt.class_type(self.name)

    @property
    def package(self) -> str:
        return self.type.package

    def __repr__(self) -> str:
        kind = "interface" if self.is_interface else "class"
        return f"JavaClass({kind} {self.name})"
