"""A small C-like frontend for the HLS core.

Parses straight-line assignment code of the kind CVXGEN emits (and the
paper's Listing 1)::

    x[1] = a*b + c*d;
    x[2] = e*f + g*x[1];
    x[3] = h*i + k*x[2];

into a :class:`~repro.hls.ir.CDFG`.  Supported: identifiers (with
``[...]`` index suffixes, folded into the name), float literals, unary
minus, ``+ - * /``, parentheses, and ``;``-terminated assignments.  Every
name read before being assigned becomes an INPUT; every assigned name
that is still live at the end (or listed in ``outputs``) becomes an
OUTPUT.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ir import CDFG, OpKind

__all__ = ["parse_program", "ParseError", "expand_loops"]


# ---------------------------------------------------------------------------
# loop unrolling pre-pass
# ---------------------------------------------------------------------------

_FOR_RE = re.compile(
    r"for\s*\(\s*(?P<var>[A-Za-z_]\w*)\s*=\s*(?P<start>-?\d+)\s*;"
    r"\s*(?P=var)\s*<\s*(?P<end>-?\d+)\s*;"
    r"\s*(?:(?P=var)\s*\+\+|(?P=var)\s*=\s*(?P=var)\s*\+\s*"
    r"(?P<step>\d+))\s*\)\s*\{")

_IDX_RE = re.compile(r"\[([^\[\]]*)\]")


def _safe_int_eval(expr: str, env: dict[str, int]) -> int:
    """Evaluate a tiny integer expression (index arithmetic)."""
    if not re.fullmatch(r"[\w\s+\-*/()%]*", expr):
        raise ParseError(f"unsupported index expression {expr!r}")
    try:
        value = eval(expr, {"__builtins__": {}}, dict(env))  # noqa: S307
    except Exception as exc:
        raise ParseError(f"cannot evaluate index {expr!r}: {exc}") from exc
    if not isinstance(value, int):
        raise ParseError(f"index {expr!r} is not an integer")
    return value


def _substitute(body: str, env: dict[str, int]) -> str:
    """Resolve index expressions and bare loop variables in a body.

    Indices that still reference not-yet-bound inner loop variables are
    left untouched; the recursive expansion of the inner loop resolves
    them."""
    def idx(m: re.Match) -> str:
        try:
            return f"[{_safe_int_eval(m.group(1), env)}]"
        except ParseError as exc:
            if "is not defined" in str(exc):
                return m.group(0)
            raise

    out = _IDX_RE.sub(idx, body)
    for var, value in env.items():
        out = re.sub(rf"\b{re.escape(var)}\b", str(value), out)
    return out


def _find_matching_brace(src: str, open_pos: int) -> int:
    depth = 0
    for i in range(open_pos, len(src)):
        if src[i] == "{":
            depth += 1
        elif src[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ParseError("unbalanced braces in for loop")


def expand_loops(src: str, env: dict[str, int] | None = None) -> str:
    """Fully unroll C-style counted loops (HLS-style static unrolling).

    Supports ``for (i = a; i < b; i++)`` / ``i = i + k`` headers with
    literal bounds, nesting, index arithmetic on loop variables inside
    ``[...]``, and bare uses of the loop variable as a value.  Loops are
    unrolled textually before parsing -- the datapath IR stays pure
    straight-line code, exactly how Nymble/CVXGEN-style flows treat
    fixed-trip-count kernels.
    """
    env = dict(env or {})
    while True:
        m = _FOR_RE.search(src)
        if m is None:
            break
        brace_open = src.index("{", m.start())
        brace_close = _find_matching_brace(src, brace_open)
        body = src[brace_open + 1:brace_close]
        var = m.group("var")
        start = int(m.group("start"))
        end = int(m.group("end"))
        step = int(m.group("step") or 1)
        if step <= 0:
            raise ParseError("loop step must be positive")
        pieces = []
        for value in range(start, end, step):
            iter_env = {**env, var: value}
            pieces.append(expand_loops(_substitute(body, iter_env),
                                       iter_env))
        src = src[:m.start()] + "\n".join(pieces) + src[brace_close + 1:]
    return src


class ParseError(ValueError):
    """Raised on malformed source."""


_TOKEN_RE = re.compile(r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+)
  | (?P<name>[A-Za-z_]\w*(?:\[[^\]]*\])*)
  | (?P<op>[+\-*/=();])
  | (?P<ws>\s+)
""", re.VERBOSE | re.DOTALL)


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r} at "
                             f"offset {pos}")
        kind = m.lastgroup or ""
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser building the CDFG on the fly."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.graph = CDFG()
        self.env: dict[str, int] = {}       # name -> producing node
        self.assigned: list[str] = []

    # -- token helpers ---------------------------------------------------

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return t

    def _expect(self, text: str) -> None:
        t = self._next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, got {t.text!r} at "
                             f"offset {t.pos}")

    # -- grammar ------------------------------------------------------------

    def parse(self) -> None:
        while self._peek() is not None:
            self._statement()

    def _statement(self) -> None:
        target = self._next()
        if target.kind != "name":
            raise ParseError(f"expected assignment target at offset "
                             f"{target.pos}, got {target.text!r}")
        self._expect("=")
        value = self._expr()
        self._expect(";")
        self.env[target.text] = value
        self.assigned.append(target.text)

    def _expr(self) -> int:
        """expr := term (('+'|'-') term)*"""
        node = self._term()
        while (t := self._peek()) is not None and t.text in "+-":
            self._next()
            rhs = self._term()
            kind = OpKind.ADD if t.text == "+" else OpKind.SUB
            node = self.graph.add_op(kind, node, rhs)
        return node

    def _term(self) -> int:
        """term := factor (('*'|'/') factor)*"""
        node = self._factor()
        while (t := self._peek()) is not None and t.text in "*/":
            self._next()
            rhs = self._factor()
            kind = OpKind.MUL if t.text == "*" else OpKind.DIV
            node = self.graph.add_op(kind, node, rhs)
        return node

    def _factor(self) -> int:
        t = self._next()
        if t.text == "(":
            node = self._expr()
            self._expect(")")
            return node
        if t.text == "-":
            return self.graph.add_op(OpKind.NEG, self._factor())
        if t.kind == "num":
            return self.graph.add_const(float(t.text), t.text)
        if t.kind == "name":
            if t.text not in self.env:
                self.env[t.text] = self.graph.add_input(t.text)
            return self.env[t.text]
        raise ParseError(f"unexpected token {t.text!r} at offset {t.pos}")


def parse_program(src: str,
                  outputs: list[str] | None = None) -> CDFG:
    """Parse straight-line C-like source into a CDFG.

    ``outputs`` selects which assigned names become OUTPUT nodes; by
    default every name whose value is not consumed by a later statement
    (the live-out set) is emitted.
    """
    p = _Parser(_tokenize(expand_loops(src)))
    p.parse()
    if not p.assigned:
        raise ParseError("program contains no assignments")
    if outputs is None:
        # live-out: assigned names whose final value has no consumer
        outputs = [name for name in dict.fromkeys(p.assigned)
                   if not p.graph.successors(p.env[name])]
        if not outputs:
            outputs = [p.assigned[-1]]
    for name in outputs:
        if name not in p.env:
            raise ParseError(f"requested output {name!r} was never "
                             "assigned")
        p.graph.add_output(p.env[name], name)
    p.graph.prune_dead()
    return p.graph
