"""Core data structures of the SSA intermediate representation.

This module is the Python analogue of the Swift Intermediate Language (SIL)
that the paper's automatic-differentiation transformation operates on
(Section 2.2).  The IR is in static single assignment form with *block
arguments* instead of phi nodes, exactly as in SIL: a branch passes values to
the destination block's arguments.

The instruction set is deliberately small.  Almost all computation is an
:class:`ApplyInst` of either a registered primitive (the base case of the AD
recursion) or another lowered function.  Structural instructions
(tuple/struct construction and projection) exist as first-class instructions
because the AD synthesis needs to reason about them directly.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence, Union

from repro.errors import SourceLocation


class SILType:
    """A lightweight, mostly-advisory type tag attached to SSA values.

    The frontend annotates values where the type is statically evident;
    everything else is :data:`ANY`.  The verifier checks structure, not
    types — matching the scope of this reproduction.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"${self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SILType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("SILType", self.name))


FLOAT = SILType("Float")
INT = SILType("Int")
BOOL = SILType("Bool")
STRING = SILType("String")
TUPLE = SILType("Tuple")
STRUCT = SILType("Struct")
LIST = SILType("List")
TENSOR = SILType("Tensor")
FUNCTION = SILType("Function")
ACCESS = SILType("Access")
ANY = SILType("Any")


class Value:
    """A single SSA value: a block argument or an instruction result."""

    _ids = itertools.count()

    __slots__ = ("id", "type", "producer", "hint")

    def __init__(self, type: SILType = ANY, producer=None, hint: str = "") -> None:
        self.id = next(Value._ids)
        self.type = type
        # The Instruction or Block that defines this value.
        self.producer = producer
        # Optional source-level variable name, for printing/diagnostics.
        self.hint = hint

    def __repr__(self) -> str:
        suffix = f"#{self.hint}" if self.hint else ""
        return f"%{self.id}{suffix}"


class Instruction:
    """Base class of every SIL instruction."""

    #: True for instructions that end a basic block.
    is_terminator = False

    __slots__ = ("operands", "results", "parent", "loc")

    def __init__(
        self,
        operands: Sequence[Value] = (),
        n_results: int = 1,
        result_type: SILType = ANY,
        loc: Optional[SourceLocation] = None,
    ) -> None:
        self.operands: list[Value] = list(operands)
        self.results: list[Value] = [
            Value(result_type, producer=self) for _ in range(n_results)
        ]
        self.parent: Optional[Block] = None
        self.loc = loc or SourceLocation()

    @property
    def result(self) -> Value:
        if len(self.results) != 1:
            raise ValueError(f"{self} has {len(self.results)} results")
        return self.results[0]

    def opname(self) -> str:
        return type(self).__name__.removesuffix("Inst").lower()

    def __repr__(self) -> str:
        res = ", ".join(map(repr, self.results))
        ops = ", ".join(map(repr, self.operands))
        head = f"{res} = " if self.results else ""
        return f"{head}{self.opname()} {ops}"


class ConstInst(Instruction):
    """Materializes a Python object as an SSA value.

    The literal may be any Python object (numbers, strings, ``None``,
    modules, callables captured from the enclosing scope, ...).  Constants
    are never *varied* for activity analysis.
    """

    __slots__ = ("literal",)

    def __init__(self, literal, loc=None) -> None:
        t = _literal_type(literal)
        super().__init__((), 1, t, loc)
        self.literal = literal

    def __repr__(self) -> str:
        return f"{self.result!r} = const {self.literal!r}"


def _literal_type(literal) -> SILType:
    if isinstance(literal, bool):
        return BOOL
    if isinstance(literal, int):
        return INT
    if isinstance(literal, float):
        return FLOAT
    if isinstance(literal, str):
        return STRING
    return ANY


class FunctionRef:
    """A direct reference to a callable target of :class:`ApplyInst`.

    ``target`` is either a :class:`repro.sil.primitives.Primitive` or a
    lowered :class:`Function` (or any object exposing the same interface).
    Direct references avoid a global name registry and keep modules
    self-contained.
    """

    __slots__ = ("target",)

    def __init__(self, target) -> None:
        self.target = target

    @property
    def name(self) -> str:
        return getattr(self.target, "name", repr(self.target))

    def __repr__(self) -> str:
        return f"@{self.name}"


class ApplyInst(Instruction):
    """Function application.

    ``callee`` is a :class:`FunctionRef` (direct call) or a :class:`Value`
    (indirect call of a first-class function value, e.g. a layer stored in a
    model struct).  For indirect calls the callee value is also the first
    operand so analyses uniformly see it as a data dependency.
    """

    __slots__ = ("callee",)

    def __init__(
        self,
        callee: Union[FunctionRef, Value],
        args: Sequence[Value],
        loc=None,
    ) -> None:
        operands = ([callee] if isinstance(callee, Value) else []) + list(args)
        super().__init__(operands, 1, ANY, loc)
        self.callee = callee

    @property
    def is_indirect(self) -> bool:
        return isinstance(self.callee, Value)

    @property
    def args(self) -> list[Value]:
        return self.operands[1:] if self.is_indirect else self.operands

    def __repr__(self) -> str:
        args = ", ".join(map(repr, self.args))
        callee = repr(self.callee)
        return f"{self.result!r} = apply {callee}({args})"


class TupleInst(Instruction):
    """Constructs a tuple from its operands."""

    def __init__(self, elements: Sequence[Value], loc=None) -> None:
        super().__init__(elements, 1, TUPLE, loc)


class TupleExtractInst(Instruction):
    """Projects element ``index`` out of a tuple value."""

    __slots__ = ("index",)

    def __init__(self, operand: Value, index: int, loc=None) -> None:
        super().__init__((operand,), 1, ANY, loc)
        self.index = index

    def __repr__(self) -> str:
        return f"{self.result!r} = tuple_extract {self.operands[0]!r}, {self.index}"


class StructExtractInst(Instruction):
    """Reads field ``field`` of a struct (attribute access)."""

    __slots__ = ("field",)

    def __init__(self, operand: Value, field: str, loc=None) -> None:
        super().__init__((operand,), 1, ANY, loc)
        self.field = field

    def __repr__(self) -> str:
        return f"{self.result!r} = struct_extract {self.operands[0]!r}, #{self.field}"


class BeginAccessInst(Instruction):
    """Opens a formal access to one storage location, ``base[key]`` or
    ``base.key`` — the SIL analogue of Swift's ``begin_access``.

    ``kind`` is ``"read"`` or ``"modify"``; ``key_kind`` is ``"item"``
    (subscript) or ``"attr"`` (stored property).  The single result is an
    *access token* (type :data:`ACCESS`): the only value through which the
    location may be read (:class:`AccessLoadInst`) or written
    (:class:`AccessStoreInst`) until a matching :class:`EndAccessInst`.

    The law of exclusivity is checked twice over these instructions: the
    static borrow checker (``repro.analysis.ownership``) proves scopes
    disjoint ahead of time, and the interpreter materializes each ``modify``
    token as a :class:`repro.valsem.inout.InoutRef`, whose runtime
    :class:`~repro.errors.BorrowError` verifies the static result.
    """

    __slots__ = ("kind", "key_kind")

    def __init__(
        self, base: Value, key: Value, kind: str = "modify",
        key_kind: str = "item", loc=None,
    ) -> None:
        if kind not in ("read", "modify"):
            raise ValueError(f"invalid access kind {kind!r}")
        if key_kind not in ("item", "attr"):
            raise ValueError(f"invalid access key kind {key_kind!r}")
        super().__init__((base, key), 1, ACCESS, loc)
        self.kind = kind
        self.key_kind = key_kind

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def key(self) -> Value:
        return self.operands[1]

    def __repr__(self) -> str:
        return (
            f"{self.result!r} = begin_access [{self.kind}] "
            f"{self.base!r}, {self.key_kind} {self.key!r}"
        )


class AccessLoadInst(Instruction):
    """Reads the current value of the location behind an access token."""

    def __init__(self, token: Value, loc=None) -> None:
        super().__init__((token,), 1, ANY, loc)

    @property
    def token(self) -> Value:
        return self.operands[0]

    def __repr__(self) -> str:
        return f"{self.result!r} = access_load {self.token!r}"


class AccessStoreInst(Instruction):
    """Writes ``value`` through an access token (requires ``modify``)."""

    def __init__(self, token: Value, value: Value, loc=None) -> None:
        super().__init__((token, value), 0, ANY, loc)

    @property
    def token(self) -> Value:
        return self.operands[0]

    @property
    def value(self) -> Value:
        return self.operands[1]

    def __repr__(self) -> str:
        return f"access_store {self.token!r}, {self.value!r}"


class EndAccessInst(Instruction):
    """Closes the access scope opened by a :class:`BeginAccessInst`."""

    def __init__(self, token: Value, loc=None) -> None:
        super().__init__((token,), 0, ANY, loc)

    @property
    def token(self) -> Value:
        return self.operands[0]

    def __repr__(self) -> str:
        return f"end_access {self.token!r}"


#: Instruction classes participating in formal access scopes.
ACCESS_INSTS = (BeginAccessInst, AccessLoadInst, AccessStoreInst, EndAccessInst)


class Terminator(Instruction):
    is_terminator = True

    def __init__(self, operands=(), loc=None) -> None:
        super().__init__(operands, 0, ANY, loc)

    def successors(self) -> list["Block"]:
        return [dest for dest, _ in self.edges()]

    def edges(self) -> list[tuple["Block", list[Value]]]:
        """Outgoing CFG edges as ``(dest, values passed to dest's args)``,
        in operand order (a ``cond_br``'s true edge first); ``[]`` for
        ``return``."""
        return []


class BrInst(Terminator):
    """Unconditional branch, passing ``args`` to ``dest``'s block arguments."""

    __slots__ = ("dest",)

    def __init__(self, dest: "Block", args: Sequence[Value] = (), loc=None) -> None:
        super().__init__(args, loc)
        self.dest = dest

    def edges(self) -> list[tuple["Block", list[Value]]]:
        return [(self.dest, list(self.operands))]

    def __repr__(self) -> str:
        args = ", ".join(map(repr, self.operands))
        return f"br {self.dest.name}({args})"


class CondBrInst(Terminator):
    """Two-way conditional branch with per-edge argument lists."""

    __slots__ = ("true_dest", "false_dest", "n_true")

    def __init__(
        self,
        cond: Value,
        true_dest: "Block",
        true_args: Sequence[Value],
        false_dest: "Block",
        false_args: Sequence[Value],
        loc=None,
    ) -> None:
        super().__init__([cond, *true_args, *false_args], loc)
        self.true_dest = true_dest
        self.false_dest = false_dest
        self.n_true = len(true_args)

    @property
    def cond(self) -> Value:
        return self.operands[0]

    @property
    def true_args(self) -> list[Value]:
        return self.operands[1 : 1 + self.n_true]

    @property
    def false_args(self) -> list[Value]:
        return self.operands[1 + self.n_true :]

    def edges(self) -> list[tuple["Block", list[Value]]]:
        return [
            (self.true_dest, self.true_args),
            (self.false_dest, self.false_args),
        ]

    def __repr__(self) -> str:
        t = ", ".join(map(repr, self.true_args))
        f = ", ".join(map(repr, self.false_args))
        return (
            f"cond_br {self.cond!r}, "
            f"{self.true_dest.name}({t}), {self.false_dest.name}({f})"
        )


class ReturnInst(Terminator):
    """Returns a single value from the function."""

    def __init__(self, value: Value, loc=None) -> None:
        super().__init__((value,), loc)

    @property
    def value(self) -> Value:
        return self.operands[0]

    def __repr__(self) -> str:
        return f"return {self.value!r}"


class Block:
    """A basic block: arguments, a straight-line body, and one terminator."""

    _ids = itertools.count()

    def __init__(self, name: str = "", arg_types: Sequence[SILType] = ()) -> None:
        self.name = name or f"bb{next(Block._ids)}"
        self.args: list[Value] = [Value(t, producer=self) for t in arg_types]
        self.instructions: list[Instruction] = []

    def add_arg(self, type: SILType = ANY, hint: str = "") -> Value:
        v = Value(type, producer=self, hint=hint)
        self.args.append(v)
        return v

    def append(self, inst: Instruction) -> Instruction:
        if self.instructions and self.instructions[-1].is_terminator:
            raise ValueError(f"block {self.name} already terminated")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    @property
    def terminator(self) -> Terminator:
        if not self.instructions or not self.instructions[-1].is_terminator:
            raise ValueError(f"block {self.name} is not terminated")
        return self.instructions[-1]  # type: ignore[return-value]

    @property
    def body(self) -> list[Instruction]:
        """Instructions excluding the terminator."""
        insts = self.instructions
        if insts and insts[-1].is_terminator:
            return insts[:-1]
        return list(insts)

    def successors(self) -> list["Block"]:
        return self.terminator.successors()

    def __repr__(self) -> str:
        return f"<Block {self.name}>"


class Function:
    """A SIL function: an ordered list of blocks, entry block first.

    The entry block's arguments are the function parameters.  ``pyfunc``
    optionally retains the original Python callable for fallback execution
    and for resolving default arguments.
    """

    def __init__(self, name: str, param_names: Sequence[str] = ()) -> None:
        self.name = name
        self.blocks: list[Block] = []
        self.param_names = list(param_names)
        self.pyfunc = None

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    @property
    def params(self) -> list[Value]:
        return self.entry.args

    def new_block(self, name: str = "") -> Block:
        b = Block(name)
        self.blocks.append(b)
        return b

    def values(self) -> Iterator[Value]:
        """All SSA values defined in this function, in program order."""
        for block in self.blocks:
            yield from block.args
            for inst in block.instructions:
                yield from inst.results

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def predecessors(self) -> dict[Block, list[Block]]:
        preds: dict[Block, list[Block]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def reachable_blocks(self) -> list[Block]:
        """Blocks reachable from entry, in depth-first preorder."""
        seen: list[Block] = []
        seen_set: set[int] = set()
        stack = [self.entry]
        while stack:
            b = stack.pop()
            if id(b) in seen_set:
                continue
            seen_set.add(id(b))
            seen.append(b)
            stack.extend(reversed(b.successors()))
        return seen

    def __repr__(self) -> str:
        from repro.sil.printer import print_function

        return print_function(self)


def users(func: Function) -> dict[Value, list[Instruction]]:
    """Map each value to the instructions that consume it."""
    table: dict[Value, list[Instruction]] = {}
    for inst in func.instructions():
        for op in inst.operands:
            table.setdefault(op, []).append(inst)
    return table
