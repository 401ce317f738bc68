"""Task functions the daemon binds by name (``repro serve --bindings``).

Only the cycle design needs one: its accumulator ``acc`` integrates
itself plus the fresh sensor input ``ext``.  The vectorized designs
evaluate no values and run unbound.
"""


def integrate(acc, ext):
    return acc + ext + 1.0


FUNCTIONS = {"integrate": integrate}
