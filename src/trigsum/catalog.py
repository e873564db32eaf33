"""The identity catalog as plain rows: (id, kind, label) for each record of
``trigsum.registry``, in id order.

The rows are the one place a record's kind and label are written: the
registry builds each record's from its row, and ``trigsum identities``
prints the rows without loading the registry.  This module imports
nothing.
"""

IDENTITIES = (
    ("cor5-beta", "fourier", "beta-family cosine series over [-c/2, c/2]"),
    ("cor6-lambda", "fourier", "odd-denominator cosine series over [0, c]"),
    ("cor7-frakd", "fourier",
     "signed odd-denominator cosine series over [0, c/4]"),
    ("cor8-cald", "fourier",
     "signed odd-denominator odd-power cosine series over [0, c/4]"),
    ("eq56-frakd-value", "value", "signed odd-denominator Dirichlet value"),
    ("eq59-lambda-shift", "fourier",
     "quarter-shifted odd-denominator cosine series over [c/4, 3c/4]"),
    ("eq69-frakd-poly", "fourier", "cubic closed form on [c/4, 3c/4]"),
    ("eq70-frakd-poly", "fourier", "quadratic closed form on [0, c/4]"),
    ("example1-cospow", "cospow", "sin(nx) cos^n x / n over (0, pi)"),
    ("example2-fourier", "fourier",
     "alternating cos(3 n x) over (-pi/3, pi/3), c = pi"),
    ("lemma4-cos-arctan", "fourier",
     "alternating odd cosine series of 1/(2n+1) over (-c/2, c/2)"),
    ("lemma4-sin-alt", "fourier", "alternating sine series of 1/n over (-c, c)"),
    ("lemma4-sin-log", "fourier", "sine series of 1/n over (0, 2c)"),
    ("thm11-cos", "fourier", "cosine series of n^(-2r) over [0, 2c]"),
    ("thm11-sin", "fourier", "sine series of n^(-2r-1) over [0, 2c]"),
    ("thm16-zeta-odd-cos", "fourier",
     "cosine series of n^(-2r-1) with log and residual terms"),
    ("thm18-cos", "fourier", "alternating cosine series of n^(-2r) over [-c, c]"),
    ("thm18-sin", "fourier",
     "alternating sine series of n^(-2r-1) over [-c, c]"),
    ("thm21-eta-odd", "fourier",
     "alternating cosine series of n^(-2r-1) with Bernoulli residual"),
)
