"""trigsum: closed-form summation of trigonometric series, exact values of
the even zeta family, and fast-converging series for zeta at odd integers,
all anchored to brute-force numeric oracles.

The public names resolve on first use (PEP 562), so importing the package
loads no submodule; each name loads only the module that defines it."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exact": ("PiPolynomial", "ExactRational", "bernoulli_star",
              "euler_number", "harmonic", "zeta_even", "eta_even",
              "lambda_even", "beta_odd", "frakD", "calD"),
    "expr": ("Expr", "ComplexVal", "parse_expr", "to_text", "eval_real",
             "eval_complex", "substitute", "fold"),
    "operators": ("OperatorPair", "apply_operator", "complex_shift_oracle",
                  "verify_inverse_system", "simplify_collect"),
    "mapping": ("TrigSeriesResult", "map_fourier", "map_cospow",
                "detect_singularities"),
    "dirichlet": ("PrecisionContext", "SeriesApprox", "zeta_odd", "eta_odd",
                  "hurwitz_zeta", "dirichlet_oracle", "identity_checks"),
    "registry": ("IdentityRecord", "VerificationReport", "list_identities",
                 "get_record", "closed_form_eval", "partial_sum_eval",
                 "verify", "corollary2_integrate", "theorem23_shift"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, which `import trigsum` once loaded
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
