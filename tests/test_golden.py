"""Pinned closed forms: the printed output of map_fourier, map_cospow and
apply_operator on a fixed list of requests, byte for byte.

The rows run through every part of the exact (cos, sin) normal form in
`trigpoly`: the inverse-trig collapse with its 0/0 guard loci, the
constant-denominator fold (the Pythagorean denominators of arctan(t) and
arctan(t/2)), results that carry sqrt(3) (the paper's Example 2), the
denominator loci, and a refusal whose message is pinned too.  A change to
the arithmetic under these rewrites must leave every string as it is.
"""

import pytest

from trigsum.acceptance import EXAMPLE2_SUM
from trigsum.expr import parse_expr, to_text
from trigsum.mapping import MappingError, map_cospow, map_fourier
from trigsum.operators import apply_operator

# (family, S(t), kind, c or None, closed form or "error: <message>",
#  singular points, validity interval)
MAP_ROWS = [
    ('fourier', EXAMPLE2_SUM, 'cosine', 'pi',
     '-1/2 + 1/9*cos(x)*pi*sqrt(3)',
     ['(-1/3)*pi', '1/3*pi'], ('(-1/3)*pi', '1/3*pi')),
    ('fourier', EXAMPLE2_SUM, 'sine', None,
     '1/6*artanh(2*(sqrt(3)*(2*sin(c^-1*pi*x))/sqrt(3)^2)/(1 + ((sqrt(3)*(2*cos(c^-1*pi*x) + -1)/sqrt(3)^2)^2 + (sqrt(3)*(2*sin(c^-1*pi*x))/sqrt(3)^2)^2)))*cos(c^-1*pi*x)*sqrt(3) + (-1/6)*ln((1 + cos(c^-1*pi*x))^2 + sin(c^-1*pi*x)^2)*sin(c^-1*pi*x) + 1/12*ln((cos(c^-1*pi*x)*cos(c^-1*pi*x) - sin(c^-1*pi*x)*sin(c^-1*pi*x) - cos(c^-1*pi*x) + 1)^2 + (cos(c^-1*pi*x)*sin(c^-1*pi*x) + sin(c^-1*pi*x)*cos(c^-1*pi*x) - sin(c^-1*pi*x))^2)*sin(c^-1*pi*x)',
     ['(-1/3)*c', '1/3*c'], ('(-1/3)*c', '1/3*c')),
    ('fourier', '-ln(1-t)', 'sine', None,
     '(-1/2)*c^-1*pi*x + 1/2*pi',
     ['0', '2*c'], ('0', '2*c')),
    ('fourier', '-ln(1-t)', 'cosine', None,
     '(-1/2)*ln((1 - cos(c^-1*pi*x))^2 + (-sin(c^-1*pi*x))^2)',
     [], None),
    ('fourier', 'arctan(t)', 'sine', None,
     '1/2*artanh(1/2*(2*sin(c^-1*pi*x)))',
     [], None),
    ('fourier', 'arctan(t)', 'cosine', None,
     '1/4*pi',
     ['(-1/2)*c', '1/2*c'], ('(-1/2)*c', '1/2*c')),
    ('fourier', 'arctan(t/2)', 'cosine', '1',
     '1/2*arctan(4/3*(2*(1/2*cos(pi*x))))',
     [], None),
    ('fourier', 'ln(1+t)/t', 'sine', None,
     '1/2*c^-1*cos(c^-1*pi*x)*pi*x + (-1/2)*ln((1 + cos(c^-1*pi*x))^2 + sin(c^-1*pi*x)^2)*sin(c^-1*pi*x)',
     ['(-1)*c', 'c'], ('(-1)*c', 'c')),
    ('fourier', '1/(2-t)', 'cosine', 'pi',
     '2*(5 + (-4)*cos(x))^-1 - (5 + (-4)*cos(x))^-1*cos(x)',
     [], None),
    ('cospow', '-ln(1-t)', 'sin', None,
     '1/2*pi - x',
     ['0', 'pi'], ('0', 'pi')),
    ('cospow', 'ln(1+t)', 'cos', None,
     '1/2*ln((1 + cos(x)*cos(x))^2 + (sin(x)*cos(x))^2)',
     [], None),
    ('cospow', 'arctan(t)', 'sin', None,
     'error: common factor with no rational cos root', None, None),
]

# (expression, argument, shift, cos part, sin part)
OPERATOR_ROWS = [
    ('ln(x)', 'x', 'h',
     '1/2*ln(x^2 + h^2)',
     'arccot(x/h)'),
    ('arctan(x)', 'x', 'h',
     '1/2*arctan(2*x/(1 - (x^2 + h^2)))',
     '1/2*artanh(2*h/(1 + (x^2 + h^2)))'),
    ('1/(x^2+1)', 'x', 'h',
     '(x*x - h*h + 1)/((x*x - h*h + 1)^2 + (x*h + h*x)^2)',
     '(-(x*h + h*x))/((x*x - h*h + 1)^2 + (x*h + h*x)^2)'),
]


@pytest.mark.parametrize("family,sum_text,kind,c,closed_form,singular,validity",
                         MAP_ROWS)
def test_map_output_pinned(family, sum_text, kind, c, closed_form, singular,
                           validity):
    S = parse_expr(sum_text)
    try:
        if family == "fourier":
            result = map_fourier(S, c=parse_expr(c) if c else None, kind=kind)
        else:
            result = map_cospow(S, kind=kind)
    except MappingError as exc:
        assert "error: " + str(exc) == closed_form
        return
    assert to_text(result.closed_form) == closed_form
    assert [to_text(p) for p in result.singular_points] == singular
    interval = result.validity_interval
    got = None if interval is None else tuple(to_text(v) for v in interval)
    assert got == validity


@pytest.mark.parametrize("expr,arg,shift,cos_part,sin_part", OPERATOR_ROWS)
def test_operator_output_pinned(expr, arg, shift, cos_part, sin_part):
    pair = apply_operator(parse_expr(expr), parse_expr(arg), parse_expr(shift))
    assert to_text(pair.cos_part) == cos_part
    assert to_text(pair.sin_part) == sin_part
