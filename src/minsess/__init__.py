"""minsess: a toolchain for a higher-order session calculus.

Session types and their decomposition into minimal session types
(`types`), terms and capture-avoiding substitution (`terms`), algorithmic
typechecking (`typecheck`), and a reduction semantics with a deterministic
runner and an exhaustive state-space explorer (`semantics`).
"""

__version__ = "0.1.0"
