"""Numeric evaluation of expression DAGs with mpmath.

One walk serves both fields.  A value depends on the call's bindings, so
the walk goes through ``expr.walk_once``, which evaluates each distinct
node of the DAG once per call.  It handles the structural kinds
(constants, symbols, sums, products, quotients and powers, with their pole
checks) the same way for both.  A function head is looked up in the table
of the field being evaluated: on the reals, ln, sqrt, artanh and arcoth
refuse points outside their domain; on the complex numbers, every head
with a branch cut (ln, sqrt, arctan, arccot, artanh and arcoth) refuses
points on it, and ln refuses 0.  Heads that behave the same in both
fields are written once.

Every evaluation runs at an explicitly requested decimal precision;
precision is never ambient state.  This is the one module of the symbolic
side that imports mpmath when it loads: ``trigsum.expr`` resolves
``eval_real``, ``eval_complex`` and ``ComplexVal`` from here on first use,
so parsing, printing and the operator and mapping rewrites never load it.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

import mpmath as mp

from .expr import (BranchCutError, DomainError, EvalError, Expr, ExprError,
                   PoleError, UnboundSymbolError, walk_once)

__all__ = ["eval_real", "eval_complex", "ComplexVal"]

# mpmath.mpc plays the role of a complex value with configurable-precision
# real and imaginary parts (.real / .imag).
ComplexVal = mp.mpc


def _poles(name: str) -> Callable:
    """mpmath's ``name``, reporting a pole it hits as a PoleError."""
    fn = getattr(mp, name)

    def head(x):
        try:
            return fn(x)
        except ZeroDivisionError:
            raise PoleError(f"{name} pole hit") from None
    return head


def _refuse(fn: Callable, outside: Callable, error: type, message: str) -> Callable:
    """``fn``, raising ``error(message)`` where ``outside`` holds."""
    def head(x):
        if outside(x):
            raise error(message)
        return fn(x)
    return head


def _arccot(x):
    return mp.pi / 2 - mp.atan(x)


def _on_imaginary_cut(z) -> bool:
    return z.real == 0 and abs(z.imag) >= 1


def _on_negative_axis(z) -> bool:
    return z.imag == 0 and z.real < 0


_BOTH_FIELDS: Dict[str, Callable] = {
    "exp": mp.exp, "sin": mp.sin, "cos": mp.cos, "sinh": mp.sinh, "cosh": mp.cosh,
    **{name: _poles(name) for name in ("tan", "cot", "sec", "csc", "tanh")},
}

_REAL_HEADS: Dict[str, Callable] = {
    **_BOTH_FIELDS,
    "arctan": mp.atan,
    "arccot": _arccot,
    "ln": _refuse(mp.ln, lambda x: x <= 0, DomainError,
                  "ln of a non-positive value"),
    "sqrt": _refuse(mp.sqrt, lambda x: x < 0, DomainError,
                    "sqrt of a negative value"),
    "artanh": _refuse(mp.atanh, lambda x: abs(x) >= 1, DomainError,
                      "artanh outside (-1, 1)"),
    "arcoth": _refuse(mp.acoth, lambda x: abs(x) <= 1, DomainError,
                      "arcoth inside [-1, 1]"),
}

_COMPLEX_HEADS: Dict[str, Callable] = {
    **_BOTH_FIELDS,
    "arctan": _refuse(mp.atan, _on_imaginary_cut, BranchCutError,
                      "arctan on its branch cut"),
    "arccot": _refuse(_arccot, _on_imaginary_cut, BranchCutError,
                      "arccot on its branch cut"),
    "ln": _refuse(_refuse(mp.log, _on_negative_axis, BranchCutError,
                          "ln on its branch cut"),
                  lambda z: z == 0, PoleError, "ln(0)"),
    "sqrt": _refuse(mp.sqrt, _on_negative_axis, BranchCutError,
                    "sqrt on its branch cut"),
    "artanh": _refuse(mp.atanh, lambda z: z.imag == 0 and abs(z.real) >= 1,
                      BranchCutError, "artanh on its branch cut"),
    "arcoth": _refuse(mp.acoth, lambda z: z.imag == 0 and abs(z.real) <= 1,
                      BranchCutError, "arcoth on its branch cut"),
}


def eval_real(e: Expr, bindings: Mapping[str, object] | None = None,
              digits: int = 30) -> mp.mpf:
    """Evaluate on the reals at the requested decimal precision.

    arccot has range (0, pi): arccot(t) = pi/2 - arctan(t), so that
    arccot(-t) = pi - arccot(t).
    """
    bindings = bindings or {}
    with mp.workdps(digits):
        vals = {k: mp.mpf(v) if not isinstance(v, mp.mpf) else v
                for k, v in bindings.items()}
        return +_evaluate(e, vals, mp.mpf, _REAL_HEADS, "real")


def eval_complex(e: Expr, bindings: Mapping[str, object] | None = None,
                 digits: int = 30) -> mp.mpc:
    """Principal-branch complex evaluation; ln has Im in (-pi, pi].

    Poles raise PoleError; points exactly on a branch cut raise
    BranchCutError rather than picking a side silently.
    """
    bindings = bindings or {}
    with mp.workdps(digits):
        vals = {k: mp.mpc(v) for k, v in bindings.items()}
        return +_evaluate(e, vals, mp.mpc, _COMPLEX_HEADS, "complex")


def _evaluate(e: Expr, vals: Mapping[str, object], number: Callable,
              heads: Mapping[str, Callable], field: str):
    """The value of e: constants through ``number``, function heads through
    ``heads``; each distinct node is evaluated once."""
    return walk_once(_value, vals, number, heads, field)(e)


def _value(x: Expr, value: Callable, vals: Mapping[str, object],
           number: Callable, heads: Mapping[str, Callable], field: str):
    """One node of ``_evaluate``, its children through ``value``."""
    kind = x.kind
    if kind == "rat":
        q = x.value
        return number(mp.mpf(q.numerator) / q.denominator)
    if kind == "pi":
        return number(mp.pi)
    if kind == "sym":
        try:
            return vals[x.value]
        except KeyError:
            raise UnboundSymbolError(f"unbound symbol {x.value!r}") from None
    if kind == "neg":
        return -value(x.args[0])
    if kind == "add":
        return value(x.args[0]) + value(x.args[1])
    if kind == "mul":
        return value(x.args[0]) * value(x.args[1])
    if kind == "div":
        den = value(x.args[1])
        if den == 0:
            raise PoleError("division by zero")
        return value(x.args[0]) / den
    if kind == "pow":
        base = value(x.args[0])
        if base == 0 and x.value < 0:
            raise PoleError("zero base with negative exponent")
        return base ** x.value
    if kind == "call":
        arg = value(x.args[0])
        head = heads.get(x.value)
        if head is None:
            raise EvalError(f"no {field} evaluator for {x.value!r}")
        return head(arg)
    raise ExprError(f"unknown node kind {kind!r}")
