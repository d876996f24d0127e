"""RPR003 — seeded ``Generator`` randomness only.

Reproducibility of the asynchronous experiments (the paper averages 20
seeded runs; the engine replays exact interleavings) requires every
random decision to come from an explicitly seeded
``numpy.random.Generator``.  Two anti-patterns break that:

- the legacy module-level RNG (``np.random.rand``, ``np.random.seed``,
  ``np.random.normal``, ...) — global, shared, order-dependent state
  that any import can perturb;
- ``np.random.default_rng()`` with no seed — a fresh OS-entropy stream
  per call, unreproducible by construction;
- a seed computed with ``hash(...)`` — the hash of a ``str`` (or of a
  tuple holding one) is salted per process, so the stream changes with
  ``PYTHONHASHSEED``.  A seed is an argument of ``default_rng`` or a
  bit-generator / ``SeedSequence`` constructor, a ``seed=`` keyword, or
  a value assigned to a name containing ``seed``.

Seeded construction (``default_rng(seed)``, ``SeedSequence`` /
``spawn`` for independent streams, explicit ``Generator`` /
``BitGenerator`` classes) stays allowed, and
:func:`repro.utils.seeds.stable_seed` derives a seed from a key.
"""

from __future__ import annotations

import ast
from typing import List, Set

from . import Finding, Rule

__all__ = ["SeededRngRule"]

#: attributes of numpy.random that are fine to reference
ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: constructors whose arguments are seeds
SEED_SINKS = frozenset(ALLOWED - {"Generator", "BitGenerator"})


def _hash_calls(expr: ast.AST) -> List[ast.Call]:
    return [
        n
        for n in ast.walk(expr)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "hash"
    ]


def _seed_exprs(node: ast.AST) -> List[ast.AST]:
    """The expressions ``node`` uses as a seed."""
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
        if name in SEED_SINKS:
            return [*node.args, *(k.value for k in node.keywords)]
        return [k.value for k in node.keywords if k.arg == "seed"]
    if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for t in targets:
            name = t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", "")
            if "seed" in name.lower():
                return [node.value]
    return []


class SeededRngRule(Rule):
    code = "RPR003"
    name = "seeded-generator-rng"
    description = (
        "randomness must come from seeded numpy Generators; the legacy "
        "module-level RNG, unseeded default_rng() and seeds computed "
        "with hash() are forbidden"
    )
    hint = (
        "use np.random.default_rng(seed) (and SeedSequence.spawn for "
        "independent streams, stable_seed(key) for a seed from a key) instead"
    )
    scope = ()

    def check(self, tree: ast.AST, source: str, relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        numpy_aliases: Set[str] = set()
        hashed: Set[int] = set()  # hash() calls already reported
        random_aliases: Set[str] = set()  # names bound to numpy.random
        default_rng_aliases: Set[str] = set()

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random":
                        random_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            random_aliases.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name == "default_rng":
                            default_rng_aliases.add(alias.asname or "default_rng")
                        elif alias.name not in ALLOWED:
                            findings.append(
                                self.finding(
                                    relpath,
                                    node,
                                    f"import of legacy module-level RNG "
                                    f"'numpy.random.{alias.name}'",
                                )
                            )

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                base = node.value
                # np.random.<attr> / numpy.random.<attr>
                if (
                    isinstance(base, ast.Attribute)
                    and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in numpy_aliases
                ) or (isinstance(base, ast.Name) and base.id in random_aliases):
                    if node.attr not in ALLOWED:
                        findings.append(
                            self.finding(
                                relpath,
                                node,
                                f"legacy module-level RNG "
                                f"'np.random.{node.attr}' (global, "
                                "order-dependent state)",
                            )
                        )
            if isinstance(node, ast.Call):
                fn = node.func
                is_default_rng = (
                    isinstance(fn, ast.Attribute) and fn.attr == "default_rng"
                ) or (isinstance(fn, ast.Name) and fn.id in default_rng_aliases)
                if is_default_rng and not node.args and not node.keywords:
                    findings.append(
                        self.finding(
                            relpath,
                            node,
                            "unseeded default_rng() — draws OS entropy, "
                            "irreproducible by construction",
                        )
                    )
            for expr in _seed_exprs(node):
                for call in _hash_calls(expr):
                    if id(call) not in hashed:
                        hashed.add(id(call))
                        findings.append(
                            self.finding(
                                relpath,
                                call,
                                "seed computed with hash() — salted per "
                                "process, so the stream changes with "
                                "PYTHONHASHSEED",
                            )
                        )
        return findings
