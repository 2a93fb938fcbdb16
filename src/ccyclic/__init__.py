"""Majorization-extremal degree sequences of c-cyclic graphs and index bounds.

Each name is imported from its module: ``majorization``, ``extremal``,
``degree_sequences``, ``indices``, ``bounds``, ``realization`` or ``cli``.
"""
