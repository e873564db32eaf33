"""Numeric evaluation of expression DAGs with mpmath.

Every evaluation runs at an explicitly requested decimal precision;
precision is never ambient state.  This is the one module of the symbolic
side that imports mpmath when it loads: ``trigsum.expr`` resolves
``eval_real``, ``eval_complex`` and ``ComplexVal`` from here on first use,
so parsing, printing and the operator and mapping rewrites never load it.
"""

from __future__ import annotations

from typing import Callable, Mapping

import mpmath as mp

from .expr import (BranchCutError, DomainError, EvalError, Expr, ExprError,
                   PoleError, UnboundSymbolError, rat_value)

__all__ = ["eval_real", "eval_complex", "ComplexVal"]

# mpmath.mpc plays the role of a complex value with configurable-precision
# real and imaginary parts (.real / .imag).
ComplexVal = mp.mpc


def _arccot_real(x):
    return mp.pi / 2 - mp.atan(x)


_REAL_FUNCS: dict[str, Callable] = {
    "exp": mp.exp, "sin": mp.sin, "cos": mp.cos, "tan": mp.tan,
    "cot": mp.cot, "sec": mp.sec, "csc": mp.csc,
    "sinh": mp.sinh, "cosh": mp.cosh, "tanh": mp.tanh,
    "arctan": mp.atan, "arccot": _arccot_real,
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
        return +_eval_real(e, vals)


def _eval_real(e: Expr, vals: Mapping[str, mp.mpf]) -> mp.mpf:
    if e.kind == "rat":
        v = rat_value(e)
        return mp.mpf(v.numerator) / v.denominator
    if e.kind == "pi":
        return +mp.pi
    if e.kind == "sym":
        try:
            return vals[e.value]  # type: ignore[index]
        except KeyError:
            raise UnboundSymbolError(f"unbound symbol {e.value!r}") from None
    if e.kind == "neg":
        return -_eval_real(e.args[0], vals)
    if e.kind == "add":
        return _eval_real(e.args[0], vals) + _eval_real(e.args[1], vals)
    if e.kind == "mul":
        return _eval_real(e.args[0], vals) * _eval_real(e.args[1], vals)
    if e.kind == "div":
        den = _eval_real(e.args[1], vals)
        if den == 0:
            raise PoleError("division by zero")
        return _eval_real(e.args[0], vals) / den
    if e.kind == "pow":
        base = _eval_real(e.args[0], vals)
        n = e.value
        if base == 0 and n < 0:
            raise PoleError("zero base with negative exponent")
        return base ** n
    if e.kind == "call":
        x = _eval_real(e.args[0], vals)
        name = e.value
        if name == "ln":
            if x <= 0:
                raise DomainError("ln of a non-positive value")
            return mp.ln(x)
        if name == "sqrt":
            if x < 0:
                raise DomainError("sqrt of a negative value")
            return mp.sqrt(x)
        if name == "artanh":
            if abs(x) >= 1:
                raise DomainError("artanh outside (-1, 1)")
            return mp.atanh(x)
        if name == "arcoth":
            if abs(x) <= 1:
                raise DomainError("arcoth inside [-1, 1]")
            return mp.acoth(x)
        fn = _REAL_FUNCS.get(name)  # type: ignore[arg-type]
        if fn is None:
            raise EvalError(f"no real evaluator for {name!r}")
        try:
            return fn(x)
        except ZeroDivisionError:
            raise PoleError(f"{name} pole hit") from None
    raise ExprError(f"unknown node kind {e.kind!r}")


def eval_complex(e: Expr, bindings: Mapping[str, object] | None = None,
                 digits: int = 30) -> mp.mpc:
    """Principal-branch complex evaluation; ln has Im in (-pi, pi].

    Poles raise PoleError; points exactly on a branch cut raise
    BranchCutError rather than picking a side silently.
    """
    bindings = bindings or {}
    with mp.workdps(digits):
        vals = {k: mp.mpc(v) for k, v in bindings.items()}
        return +_eval_complex(e, vals)


def _eval_complex(e: Expr, vals: Mapping[str, mp.mpc]) -> mp.mpc:
    if e.kind == "rat":
        v = rat_value(e)
        return mp.mpc(mp.mpf(v.numerator) / v.denominator)
    if e.kind == "pi":
        return mp.mpc(mp.pi)
    if e.kind == "sym":
        try:
            return vals[e.value]  # type: ignore[index]
        except KeyError:
            raise UnboundSymbolError(f"unbound symbol {e.value!r}") from None
    if e.kind == "neg":
        return -_eval_complex(e.args[0], vals)
    if e.kind == "add":
        return _eval_complex(e.args[0], vals) + _eval_complex(e.args[1], vals)
    if e.kind == "mul":
        return _eval_complex(e.args[0], vals) * _eval_complex(e.args[1], vals)
    if e.kind == "div":
        den = _eval_complex(e.args[1], vals)
        if den == 0:
            raise PoleError("division by zero")
        return _eval_complex(e.args[0], vals) / den
    if e.kind == "pow":
        base = _eval_complex(e.args[0], vals)
        n = e.value
        if base == 0 and n < 0:
            raise PoleError("zero base with negative exponent")
        return base ** n
    if e.kind == "call":
        z = _eval_complex(e.args[0], vals)
        name = e.value
        if name == "ln":
            if z == 0:
                raise PoleError("ln(0)")
            return mp.log(z)
        if name == "sqrt":
            return mp.sqrt(z)
        if name == "exp":
            return mp.exp(z)
        if name in ("sin", "cos", "sinh", "cosh"):
            return getattr(mp, name)(z)
        if name in ("tan", "cot", "sec", "csc"):
            try:
                return getattr(mp, name)(z)
            except ZeroDivisionError:
                raise PoleError(f"{name} pole hit") from None
        if name == "arctan":
            if z.real == 0 and abs(z.imag) >= 1:
                raise BranchCutError("arctan on its branch cut")
            return mp.atan(z)
        if name == "arccot":
            if z.real == 0 and abs(z.imag) >= 1:
                raise BranchCutError("arccot on its branch cut")
            return mp.pi / 2 - mp.atan(z)
        if name == "artanh":
            if z.imag == 0 and abs(z.real) >= 1:
                raise BranchCutError("artanh on its branch cut")
            return mp.atanh(z)
        if name == "arcoth":
            if z.imag == 0 and abs(z.real) <= 1:
                raise BranchCutError("arcoth on its branch cut")
            return mp.acoth(z)
        if name == "tanh":
            try:
                return mp.tanh(z)
            except ZeroDivisionError:
                raise PoleError("tanh pole hit") from None
    raise ExprError(f"unknown node kind {e.kind!r}")
