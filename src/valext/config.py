"""Tunable limits for desk-scale exact computation.

All limits are deliberate scope caps, not heuristics: within them every
answer is exact, beyond them operations raise CapabilityError rather than
guess.
"""

# Highest rank of a value group / monomial valuation.
MAX_RANK = 3

# Highest number of transcendental steps in one field tower.
MAX_TRANSCENDENTALS = 4

# Univariate factorization degree bound.
FACTOR_DEGREE_BOUND = 12

# Highest degree p^(N*t) of a truncated perfect closure: truncation exponent
# N in characteristic p, over a field with t >= 1 transcendental generators
# (p^N when t = 0); a general build counts those of the coefficient field and
# of k' above k.  The work of a general build grows with it; at this cap
# an extension with --verify took at most about 1.5 s at ranks 1-3 for
# p = 2, 3, 5 on a 2-core x86-64 VM with Python 3.11 (F_p(a)(r), r^p = a,
# with k' s^p = a; best of 3 runs).
MAX_CLOSURE_DEGREE = 1024

# Seed of the equal-degree splitting in factorization; the factors do not
# depend on it.  Sampled verification draws from the scenario's own seed.
DEFAULT_SEED = 0
