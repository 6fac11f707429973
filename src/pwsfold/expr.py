"""Scalar expressions in the variables x1, x2, x3, lambda.

Grammar (standard precedence, left-associative within a level):

    expression := term (('+' | '-') term)*
    term       := unary (('*' | '/') unary)*
    unary      := '-' unary | power
    power      := atom ('^' ['-'] INTEGER)*
    atom       := NUMBER | VARIABLE | FUNC '(' expression ')' | '(' expression ')'

'^' binds tighter than unary minus, so -x2^2 parses as -(x2^2). Exponents are
restricted to integer literals. Parentheses, function calls and unary minus
nest at most MAX_NESTING deep (ParseError otherwise). Parsed trees are
immutable and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Union

from .exceptions import EvaluationError, ParseError, ValidationError

__all__ = [
    "Const", "Var", "Neg", "BinOp", "Pow", "Call", "Expression",
    "parse_expression", "evaluate", "differentiate", "to_text",
    "polynomial_degree", "compile_expression", "compile_field",
    "VARIABLES", "FUNCTIONS",
]

VARIABLES = ("x1", "x2", "x3", "lambda")
# Parentheses, calls and unary minus nested inside one another; the parser
# recurses through up to 5 frames per level, well within Python's default
# recursion limit of 1000 at this depth.
MAX_NESTING = 100


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Const, Var, Neg, BinOp, Pow, Call]

ZERO = Const(0.0)
ONE = Const(1.0)

# The functions a Call may name: name -> (implementation, f'(u) as a tree in
# the argument u). The interpreter calls the implementation, generated code
# binds it to the local _<name>, and _diff applies the chain rule to f'(u).
_FUNCS: dict[str, tuple[Callable, Callable]] = {
    "sin": (math.sin, lambda u: Call("cos", u)),
    "cos": (math.cos, lambda u: Neg(Call("sin", u))),
    "tanh": (math.tanh, lambda u: _sub(ONE, Pow(Call("tanh", u), 2))),
    "sqrt": (math.sqrt, lambda u: _div(ONE, _mul(Const(2.0), Call("sqrt", u)))),
    "abs": (abs, lambda u: _div(u, Call("abs", u))),  # valid away from u = 0
}
FUNCTIONS = tuple(_FUNCS)


# --- tokenizer -------------------------------------------------------------

# A number is made of decimal digits (str.isdecimal, what float() and int()
# read); an identifier is a word character other than a decimal digit, then
# word characters. Any other character that is not a space or a symbol is an
# error.
_TOKEN = re.compile(r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|(?P<ident>[^\W\d]\w*)|(?P<symbol>[-+*/^()])"
                    r"|(?P<space>\s+)|(?P<bad>.)", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, then ('end', '', len(text)); a
    symbol's kind is the symbol itself."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        value, pos = m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        tokens.append((value if kind == "symbol" else kind, value, pos))
    tokens.append(("end", "", len(text)))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # nesting levels open

    def nested(self, parse, pos: int) -> Expression:
        """parse() one nesting level deeper, at most MAX_NESTING levels."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"nested more than {MAX_NESTING} levels deep", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def expression(self) -> Expression:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expression:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expression:
        if self.peek()[0] == "-":
            pos = self.advance()[2]
            return Neg(self.nested(self.unary, pos))
        return self.power()

    def power(self) -> Expression:
        node = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            kind, text, pos = self.peek()
            if kind != "number" or any(ch in text for ch in ".eE"):
                raise ParseError("exponent must be an integer literal", pos)
            self.advance()
            node = Pow(node, sign * int(text))
        return node

    def atom(self) -> Expression:
        kind, text, pos = self.peek()
        if kind == "number":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is not finite", pos)
            self.advance()
            return Const(value)
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.advance()
                arg = self.nested(self.expression, pos)
                self.expect(")")
                return Call(text, arg)
            if text not in VARIABLES:
                raise ParseError(f"unknown identifier {text!r}", pos)
            return Var(text)
        if kind == "(":
            self.advance()
            node = self.nested(self.expression, pos)
            self.expect(")")
            return node
        raise ParseError(f"expected an operand, found {text or 'end of input'!r}", pos)


def parse_expression(text: str) -> Expression:
    """Parse text into an expression tree."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    node = parser.expression()
    kind, tok_text, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {tok_text!r}", pos)
    return node


# --- recursive walks --------------------------------------------------------


def _walk(walker: Callable, e: Expression, *args):
    """walker(e, *args) for a recursive walker of the tree: one too deep for
    Python's recursion limit (a long sum nests one level per term) raises
    ValidationError."""
    try:
        return walker(e, *args)
    except RecursionError as exc:
        raise ValidationError(f"expression too deeply nested to walk ({exc})") from exc


# --- printing ---------------------------------------------------------------


def to_text(e: Expression) -> str:
    """Canonical fully parenthesized form; round-trips through the parser."""
    return _walk(_text, e)


def _text(e: Expression) -> str:
    if isinstance(e, Const):
        # negative literals need parentheses: -a^n parses as -(a^n)
        if math.copysign(1.0, e.value) < 0:
            return f"(-{abs(e.value)!r})"
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{_text(e.arg)})"
    if isinstance(e, BinOp):
        return f"({_text(e.left)} {e.op} {_text(e.right)})"
    if isinstance(e, Pow):
        return f"({_text(e.base)}^{e.exponent})"
    if isinstance(e, Call):
        return f"{e.func}({_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# --- evaluation -------------------------------------------------------------

def evaluate(e: Expression, x1: float, x2: float, x3: float, lam: float) -> float:
    """Evaluate at a binding of the four variables. Non-finite results raise."""
    for name, v in (("x1", x1), ("x2", x2), ("x3", x3), ("lambda", lam)):
        if not math.isfinite(v):
            raise EvaluationError(f"binding for {name} is not finite: {v!r}")
    value = _walk(_eval, e, x1, x2, x3, lam)
    if not math.isfinite(value):
        raise EvaluationError(f"expression evaluated to {value!r}")
    return value


def _eval(e: Expression, x1: float, x2: float, x3: float, lam: float) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.name == "x1":
            return x1
        if e.name == "x2":
            return x2
        if e.name == "x3":
            return x3
        return lam
    if isinstance(e, Neg):
        return -_eval(e.arg, x1, x2, x3, lam)
    if isinstance(e, BinOp):
        lv = _eval(e.left, x1, x2, x3, lam)
        rv = _eval(e.right, x1, x2, x3, lam)
        if e.op == "+":
            return lv + rv
        if e.op == "-":
            return lv - rv
        if e.op == "*":
            return lv * rv
        if rv == 0.0:
            raise EvaluationError("division by zero")
        return lv / rv
    if isinstance(e, Pow):
        base = _eval(e.base, x1, x2, x3, lam)
        if e.exponent < 0 and base == 0.0:
            raise EvaluationError("zero raised to a negative power")
        try:
            return base ** e.exponent
        except OverflowError as exc:
            raise EvaluationError(str(exc)) from exc
    if isinstance(e, Call):
        arg = _eval(e.arg, x1, x2, x3, lam)
        if e.func == "sqrt" and arg < 0.0:
            raise EvaluationError(f"sqrt of negative value {arg!r}")
        return _FUNCS[e.func][0](arg)
    raise TypeError(f"not an expression node: {e!r}")


# --- differentiation --------------------------------------------------------


def _is_zero(e: Expression) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e: Expression) -> bool:
    return isinstance(e, Const) and e.value == 1.0


def _add(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return BinOp("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_zero(a) or _is_zero(b):
        return ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return BinOp("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return ZERO
    if _is_one(b):
        return a
    return BinOp("/", a, b)


def differentiate(e: Expression, var: str) -> Expression:
    """Exact symbolic partial derivative with respect to one variable."""
    if var not in VARIABLES:
        raise ValidationError(f"unknown variable {var!r}; expected one of {VARIABLES}")
    return _walk(_diff, e, var)


def _diff(e: Expression, var: str) -> Expression:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        d = _diff(e.arg, var)
        return ZERO if _is_zero(d) else Neg(d)
    if isinstance(e, BinOp):
        dl = _diff(e.left, var)
        dr = _diff(e.right, var)
        if e.op == "+":
            return _add(dl, dr)
        if e.op == "-":
            return _sub(dl, dr)
        if e.op == "*":
            return _add(_mul(dl, e.right), _mul(e.left, dr))
        # (l/r)' = l'/r - l r'/r^2
        return _sub(_div(dl, e.right), _div(_mul(e.left, dr), Pow(e.right, 2)))
    if isinstance(e, Pow):
        d = _diff(e.base, var)
        if _is_zero(d) or e.exponent == 0:
            return ZERO
        if e.exponent == 1:
            return d
        return _mul(Const(float(e.exponent)), _mul(Pow(e.base, e.exponent - 1), d))
    if isinstance(e, Call):
        d = _diff(e.arg, var)
        return ZERO if _is_zero(d) else _mul(_FUNCS[e.func][1](e.arg), d)
    raise TypeError(f"not an expression node: {e!r}")


# --- structure queries -------------------------------------------------------


def polynomial_degree(e: Expression, var: str) -> int | None:
    """Degree of e as a polynomial in var, or None if not polynomial in var."""
    return _walk(_degree, e, var)


def _degree(e: Expression, var: str) -> int | None:
    if isinstance(e, Const):
        return 0
    if isinstance(e, Var):
        return 1 if e.name == var else 0
    if isinstance(e, Neg):
        return _degree(e.arg, var)
    if isinstance(e, BinOp):
        dl = _degree(e.left, var)
        dr = _degree(e.right, var)
        if dl is None or dr is None:
            return None
        if e.op in ("+", "-"):
            return max(dl, dr)
        if e.op == "*":
            return dl + dr
        return dl if dr == 0 else None
    if isinstance(e, Pow):
        db = _degree(e.base, var)
        if db is None:
            return None
        if db == 0:
            return 0
        return db * e.exponent if e.exponent >= 0 else None
    if isinstance(e, Call):
        da = _degree(e.arg, var)
        return 0 if da == 0 else None
    raise TypeError(f"not an expression node: {e!r}")


# --- compilation to plain Python --------------------------------------------

def _py_source(e: Expression, sub: Callable[[Expression], str] | None = None) -> str:
    """Python source of e; sub prints its operands (default: this printer)."""
    sub = sub or _py_source
    if isinstance(e, Const):
        return f"({e.value!r})"  # ** binds tighter than unary minus
    if isinstance(e, Var):
        return "lam" if e.name == "lambda" else e.name
    if isinstance(e, Neg):
        return f"(-{sub(e.arg)})"
    if isinstance(e, BinOp):
        return f"({sub(e.left)} {e.op} {sub(e.right)})"
    if isinstance(e, Pow):
        return f"({sub(e.base)} ** {e.exponent})"
    if isinstance(e, Call):
        return f"_{e.func}({sub(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _literal_source(e: Expression, literals: dict[str, float]) -> str:
    """Python source of e with each variable named in literals printed as
    that constant, by the plain printer and without simplification."""
    def sub(node):
        if isinstance(node, Var) and node.name in literals:
            return _py_source(Const(literals[node.name]))
        return _py_source(node, sub)
    return sub(e)


def _operands(e: Expression) -> tuple[Expression, ...]:
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def _shared_source(exprs) -> list[str]:
    """Python sources of exprs that compute each repeated subexpression once.

    A compound subexpression whose source text a left-to-right evaluation
    meets more than once (not counting repeats inside a repeat) is assigned
    to a local _c<n> where it first occurs, with ':=', and read back at the
    later occurrences. Every operation is still done in the same order on
    the same operands, so values and raised errors are unchanged. Keyed on
    text, not on node equality: Const(0.0) == Const(-0.0).
    """
    texts: dict[int, str] = {}  # by node identity: trees share subtrees

    def text_of(e):
        key = id(e)
        if key not in texts:
            texts[key] = _py_source(e, text_of)
        return texts[key]

    seen: set[str] = set()
    repeated: set[str] = set()

    def count(e):
        if not _operands(e):  # a constant or a variable
            return
        text = text_of(e)
        if text in seen:
            repeated.add(text)
            return
        seen.add(text)
        for operand in _operands(e):
            count(operand)

    names: dict[str, str] = {}

    def emit(e):
        text = text_of(e)
        if text in names:
            return names[text]
        source = _py_source(e, emit)
        if text in repeated:
            names[text] = name = f"_c{len(names)}"
            source = f"({name} := {source})"
        return source

    for e in exprs:
        count(e)
    return [emit(e) for e in exprs]


_BINDINGS = {f"_{name}": impl for name, (impl, _) in _FUNCS.items()}
_PRELUDE = ", ".join(f"{local}={local}" for local in _BINDINGS)


def _generate(exprs,
              binds: tuple[tuple[str, str], ...] | None = None,
              template: str | None = None) -> Callable:
    """Compile one expression, or a tuple of them, into a Python function.

    A tuple compiles to a tuple-valued function. The arguments are
    (x1, x2, x3, lam), or, given binds, a tuple of (name, source) pairs,
    (t, x) as an integrator field: it unpacks x into x1, x2, x3, then
    assigns each name its source in order (lam among them), and computes
    each repeated subexpression once (_shared_source), as a field called 6
    times per Runge-Kutta attempt repays. The other functions are compiled
    often and called a few times each, so they keep the plain printer.

    Given template, the source of a function named _f whose parameters end
    in {prelude}, exprs is a tuple of (tree, literals) pairs and the
    template's {0}, {1}, ... take their sources by _literal_source. Python's
    compiler folds the subexpressions that the literals make constant, with
    the same operations in the same order as at run time, and leaves one
    that raises to raise at run time.

    A tree too deep for the printer or for Python's compiler (about 200
    nested operations) raises ValidationError.
    """
    ns = dict(_BINDINGS)
    try:
        if template is not None:
            source = template.format(*starmap(_literal_source, exprs), prelude=_PRELUDE)
        else:
            items = exprs if isinstance(exprs, tuple) else (exprs,)
            if binds is None:
                sources = [_py_source(e) for e in items]
                head = f"def _f(x1, x2, x3, lam, {_PRELUDE}):\n"
            else:
                sources = _shared_source(items)
                head = (f"def _f(t, x, {_PRELUDE}):\n"
                        "    x1, x2, x3 = x\n"
                        + "".join(f"    {name} = {s}\n" for name, s in binds))
            if isinstance(exprs, tuple):
                result = "(" + ", ".join(sources) + ")"
            else:
                result = sources[0]
            source = f"{head}    return {result}\n"
        exec(source, ns)
    except (SyntaxError, RecursionError) as exc:
        raise ValidationError(f"expression too deeply nested to compile ({exc})") from exc
    return ns["_f"]


def compile_expression(e: Expression):
    """Compile to a fast callable (x1, x2, x3, lam) -> float.

    The compiled path does no finiteness checking; use evaluate() when
    diagnostics matter. ZeroDivisionError and ValueError pass through raw.
    """
    return _generate(e)


def compile_field(components, binds=None) -> Callable:
    """Compile several expressions into one callable returning a tuple:
    (x1, x2, x3, lam) -> (...), or given binds the (t, x) integrator field
    of _generate."""
    return _generate(tuple(components), binds)
