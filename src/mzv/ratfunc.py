"""No command builds a rational function in z: the differential equations
are checked as D * residual = 0 with D a polynomial in z (see
`symbols.formal_derivative`).  The empty class keeps the `ratfunc.ops`
layer of the out-of-tree benchmark tracer resolvable; it wraps no method.
"""


class RatFunc:
    pass
