"""Numeric evaluation of expression DAGs with mpmath.

A call compiles its expressions once into a program and runs that program
at every point it is given, inside one ``mp.workdps``.  The program lists
the distinct nodes of all the call's roots in the order of
``expr.postorder`` (a quotient takes its denominator first and checks it
for zero before its numerator's first new step), so each
distinct node is evaluated once per point, and a point that fails raises
the error that such a walk meets first.  Rationals and pi become numbers
once per call, at the call's precision.  The program holds no node and
nothing of it outlives the call.

The structural kinds (constants, symbols, sums, products, quotients and
powers, with their pole checks) compile the same way for both fields.  A
function head is looked up in the table of the field being evaluated: on
the reals, ln, sqrt, artanh and arcoth refuse points outside their domain;
on the complex numbers, every head with a branch cut (ln, sqrt, arctan,
arccot, artanh and arcoth) refuses points on it, and ln refuses 0.  Heads
that behave the same in both fields are written once.  On the reals, sin
and cos of one argument node take both values from one
``libmp.mpf_cos_sin`` call, and sinh and cosh from one ``mpf_cosh_sinh``,
at the context's precision and rounding: these are the kernels that
``mp.sin``, ``mp.cos``, ``mp.sinh`` and ``mp.cosh`` run, so the values are
the same bits.

Every evaluation runs at an explicitly requested decimal precision;
precision is never ambient state.  This is the one module of the symbolic
side that imports mpmath when it loads: ``trigsum.expr`` resolves
``eval_real``, ``eval_complex`` and ``ComplexVal`` from here on first use,
so parsing, printing and the operator and mapping rewrites never load it.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterable, List, Mapping, Sequence

import mpmath as mp
from mpmath import libmp

from .expr import (BranchCutError, DomainError, EvalError, Expr, ExprError,
                   PoleError, UnboundSymbolError, postorder)

__all__ = ["eval_real", "eval_complex", "eval_real_batch",
           "eval_complex_batch", "ComplexVal"]

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

# real heads whose values come two at a time: the head's kernel and the
# position of its value in the kernel's (cos, sin) or (cosh, sinh) result
_PAIRED: Dict[str, tuple] = {
    "cos": (libmp.mpf_cos_sin, 0), "sin": (libmp.mpf_cos_sin, 1),
    "cosh": (libmp.mpf_cosh_sinh, 0), "sinh": (libmp.mpf_cosh_sinh, 1),
}


def eval_real(e: Expr, bindings: Mapping[str, object] | None = None,
              digits: int = 30) -> mp.mpf:
    """Evaluate on the reals at the requested decimal precision.

    arccot has range (0, pi): arccot(t) = pi/2 - arctan(t), so that
    arccot(-t) = pi - arccot(t).
    """
    return eval_real_batch((e,), (bindings or {},), digits)[0][0]


def eval_complex(e: Expr, bindings: Mapping[str, object] | None = None,
                 digits: int = 30) -> mp.mpc:
    """Principal-branch complex evaluation; ln has Im in (-pi, pi].

    Poles raise PoleError; points exactly on a branch cut raise
    BranchCutError rather than picking a side silently.
    """
    return eval_complex_batch((e,), (bindings or {},), digits)[0][0]


def eval_real_batch(exprs: Sequence[Expr],
                    points: Iterable[Mapping[str, object]],
                    digits: int = 30) -> List[tuple]:
    """``eval_real`` of every expression at every binding dict: one tuple
    of values per point, in the order of ``exprs``.  The first point that
    fails raises its error."""
    with mp.workdps(digits):
        run = _Program(exprs, mp.mpf, _REAL_HEADS, "real", _PAIRED)
        return [run({k: v if isinstance(v, mp.mpf) else mp.mpf(v)
                     for k, v in point.items()})
                for point in points]


def eval_complex_batch(exprs: Sequence[Expr],
                       points: Iterable[Mapping[str, object]],
                       digits: int = 30) -> List[tuple]:
    """``eval_complex`` of every expression at every binding dict: one
    tuple of values per point, in the order of ``exprs``.  The first point
    that fails raises its error."""
    with mp.workdps(digits):
        run = _Program(exprs, mp.mpc, _COMPLEX_HEADS, "complex", {})
        return [run({k: mp.mpc(v) for k, v in point.items()})
                for point in points]


class _Program:
    """The steps that evaluate ``roots`` at one point, compiled at the
    context's precision.  Each step is a closure that reads its inputs from
    ``values`` and writes its result there; ``values[0]`` holds the point's
    bindings.  A call of the program runs every step in order and returns
    the roots' values."""

    def __init__(self, roots: Sequence[Expr], number: Callable,
                 heads: Mapping[str, Callable], field: str,
                 paired: Mapping[str, tuple]):
        self.values: list = [None]
        self.steps: List[Callable] = []
        self._number, self._heads, self._field = number, heads, field
        # what mp.sin and the other mpmath functions read at each call
        self._paired, self._prec_rounding = paired, tuple(mp.mp._prec_rounding)
        self._slots: Dict[Expr, int] = {}
        self._unpaired: Dict[tuple, tuple] = {}
        for x in postorder(roots, marked=True):
            if x.__class__ is tuple:
                num, den = x[0].args
                if num not in self._slots and num.kind not in ("rat", "pi"):
                    # the numerator's steps may fail: check the denominator first
                    self.steps.append(_guard(self.values, self._slots[den]))
            else:
                self._slots[x] = self._compile(x)
        self.roots = [self._slots[e] for e in roots]
        del self._slots, self._unpaired   # the program keeps no node

    def __call__(self, bindings: Mapping[str, object]) -> tuple:
        values = self.values
        values[0] = bindings
        for step in self.steps:
            step()
        return tuple(+values[i] for i in self.roots)

    def _new_slot(self, value=None) -> int:
        self.values.append(value)
        return len(self.values) - 1

    def _step(self, make: Callable, *args) -> int:
        out = self._new_slot()
        self.steps.append(make(self.values, out, *args))
        return out

    def _compile(self, x: Expr) -> int:
        kind, slots = x.kind, self._slots
        if kind == "rat":
            q = x.value
            return self._new_slot(self._number(mp.mpf(q.numerator) / q.denominator))
        if kind == "pi":
            return self._new_slot(self._number(mp.pi))
        if kind == "sym":
            return self._step(_bound, x.value)
        if kind == "neg":
            return self._step(_unary, operator.neg, slots[x.args[0]])
        if kind in ("add", "mul"):
            a, b = slots[x.args[0]], slots[x.args[1]]
            return self._step(_binary, getattr(operator, kind), a, b)
        if kind == "div":
            return self._step(_quotient, slots[x.args[0]], slots[x.args[1]])
        if kind == "pow":
            return self._step(_power, slots[x.args[0]], x.value)
        if kind == "call":
            return self._call(x.value, slots[x.args[0]])
        return self._step(_fail, ExprError, f"unknown node kind {kind!r}")

    def _call(self, name: str, arg: int) -> int:
        head = self._heads.get(name)
        if head is None:
            return self._step(_fail, EvalError,
                              f"no {self._field} evaluator for {name!r}")
        if name not in self._paired:
            return self._step(_unary, head, arg)
        kernel, position = self._paired[name]
        partner = self._unpaired.pop((kernel, arg), None)
        if partner is None:
            out = self._step(_unary, head, arg)
            self._unpaired[(kernel, arg)] = (len(self.steps) - 1, out)
            return out
        # the partner's step becomes one kernel call that gives both values
        index, other = partner
        out = self._new_slot()
        first, second = (out, other) if position == 0 else (other, out)
        self.steps[index] = _pair(self.values, first, second, kernel, arg,
                                  self._prec_rounding)
        return out


# step makers: each binds the program's value list and its slots


def _bound(values: list, out: int, name: str) -> Callable:
    def step():
        try:
            values[out] = values[0][name]
        except KeyError:
            raise UnboundSymbolError(f"unbound symbol {name!r}") from None
    return step


def _unary(values: list, out: int, fn: Callable, a: int) -> Callable:
    def step():
        values[out] = fn(values[a])
    return step


def _binary(values: list, out: int, fn: Callable, a: int, b: int) -> Callable:
    def step():
        values[out] = fn(values[a], values[b])
    return step


def _nonzero(den) -> None:
    if den == 0:
        raise PoleError("division by zero")


def _guard(values: list, den: int) -> Callable:
    def step():
        _nonzero(values[den])
    return step


def _quotient(values: list, out: int, num: int, den: int) -> Callable:
    def step():
        d = values[den]
        _nonzero(d)
        values[out] = values[num] / d
    return step


def _power(values: list, out: int, a: int, n: int) -> Callable:
    def step():
        base = values[a]
        if base == 0 and n < 0:
            raise PoleError("zero base with negative exponent")
        values[out] = base ** n
    return step


def _pair(values: list, first: int, second: int, kernel: Callable, a: int,
          prec_rounding: tuple) -> Callable:
    make = mp.mp.make_mpf

    def step():
        c, s = kernel(values[a]._mpf_, *prec_rounding)
        values[first], values[second] = make(c), make(s)
    return step


def _fail(values: list, out: int, error: type, message: str) -> Callable:
    def step():
        raise error(message)
    return step
