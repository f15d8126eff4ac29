"""Sombor-family graph indices with exhaustive extremal verification.

Callers import from the modules; the package root loads none of them.
The modules are: bitset graphs with graph6 I/O (``graphs``), the four
degree-based indices (``indices``), the named graph families, h_graph's
Sombor terms and the membership tests (``families``), isomorph-free
generation and brute-force search (``enumeration``), bound checking
(``bounds``) and the command line (``cli``), the only front end.
"""

__version__ = "0.1.0"
