"""The five benchmark workloads: inputs, units, and correctness checks.

A *unit* is one relaxation built and solved (or built and exported): the
work ``signedbpo relax`` / ``signedbpo export`` does for one input.  Each
workload object generates its inputs from the run seed, runs a unit by key
through signedbpo's public API, and checks the unit's output against an
independent reference (exhaustive enumeration, a scipy MILP, or a parse of
the exported text).  References are computed lazily inside ``check``,
which run.py never times.

The seed draws the numbers, not the shapes: exact_hierarchy redraws the
coefficient magnitudes of the acceptance suite's criterion-4 polynomials,
keeping every support and sign, and the extended-mode and export Max-Cut
pools relabel the nodes of fixed graphs from the criterion-7 generator.
Solve cost is heavy-tailed in the shape (one unit in a few hundred takes a
thousand times the median), so fresh shapes per seed would make the
run-to-run spread measure the luck of the draw instead of the code.  The
cutting-plane workloads keep their instances fixed (see ``rotated``).

signedbpo is imported inside the functions, so that its import falls in
the timed set-up, and every call goes through a module attribute, so that
the tracer's patches see it.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

STANDARD = "standard"
LOVASZ = "lovasz"
SA1 = "sa1"

CRITERION4_SEED = 20240  # the acceptance suite's criterion-4 draw
CRITERION7_SEED = 1007  # the acceptance suite's criterion-7 draw
FLOAT_TOL = 1e-6


# -- inputs ---------------------------------------------------------------------


def criterion4_polynomials(seed: int | None, copies: int = 1):
    """The 200 criterion-4 polynomials of the acceptance suite (n <= 8,
    <= 4 nonlinear terms, degree <= 3).  With a seed, each comes ``copies``
    times with every coefficient's magnitude redrawn and its sign kept."""
    from signedbpo.polynomials import Polynomial, random_polynomial

    fixed = random.Random(CRITERION4_SEED)
    rng = random.Random(seed)
    out = []
    for _ in range(200):
        n = fixed.randint(2, 8)
        f = random_polynomial(fixed, n, fixed.randint(0, 4), max_degree=3)
        if seed is None:
            out.append(f)
            continue
        for _ in range(copies):
            terms = {}
            for sup, c in f.terms():
                den = rng.randint(1, 10)
                terms[sup] = Fraction(rng.randint(1, 5 * den), den) * (1 if c > 0 else -1)
            out.append(Polynomial(n, terms))
    return out


def random_graphs(seed: int | None, n: int, p: float, count: int):
    """``count`` random +-1 graphs G(n, p) from the criterion-7 generator
    (with n = 30, p = 0.1 the first ten are the acceptance suite's).  With
    a seed, each graph's nodes are relabeled by a draw from it."""
    from signedbpo.maxcut import Graph

    fixed = random.Random(CRITERION7_SEED)
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        label = [*range(n + 1)] if seed is None else [0, *rng.sample(range(1, n + 1), n)]
        edges = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if fixed.random() < p:
                    a, b = sorted((label[i], label[j]))
                    edges.append((a, b, Fraction(fixed.choice((-1, 1)))))
        graphs.append(Graph(n, tuple(sorted(edges))))
    return graphs


def rotated(items: list, seed: int) -> list:
    """``items`` in their order, starting at a position drawn from ``seed``.

    The cutting-plane workloads use fixed instances: redrawn coefficients
    or relabeled variables move a single cutting-plane solve by a factor of
    two or more, and a few units carry most of a pass, so pools drawn per
    seed differ by more than a run can average.
    """
    start = random.Random(seed).randrange(len(items))
    return items[start:] + items[:start]


# -- references ------------------------------------------------------------------


def maxcut_milp(g) -> Fraction:
    """Exact maximum cut of an integer-weighted graph by a scipy MILP.

    The MILP's assignment is re-scored exactly, so a solver tolerance
    accident shows as a mismatch instead of a wrong reference.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n, m = g.n_nodes, len(g.edges)
    cost = np.zeros(n + m)
    rows, lower, upper = [], [], []
    for e, (i, j, w) in enumerate(g.edges):
        cost[n + e] = -float(w)
        for ci, cj, lo, hi in ((-1, -1, -np.inf, 0), (1, 1, -np.inf, 2), (-1, 1, 0, np.inf), (1, -1, 0, np.inf)):
            row = np.zeros(n + m)
            row[i - 1], row[j - 1], row[n + e] = ci, cj, 1
            rows.append(row)
            lower.append(lo)
            upper.append(hi)
    integrality = np.zeros(n + m)
    integrality[:n] = 1
    res = milp(
        c=cost,
        constraints=LinearConstraint(np.array(rows), np.array(lower), np.array(upper)),
        integrality=integrality,
        bounds=Bounds(np.zeros(n + m), np.ones(n + m)),
    )
    if res.status != 0:
        raise RuntimeError(f"MILP oracle failed: {res.message}")
    x = [round(v) for v in res.x[:n]]
    value = g.cut_value(x)
    if abs(float(value) + res.fun) > 1e-6:
        raise RuntimeError(f"MILP objective {-res.fun} != re-scored cut {value}")
    return value


def check_mps(model, text: str, names: dict[str, str]) -> str | None:
    """Parse fixed-format MPS text back and compare it with the model.

    Requires equal row, column and nonzero counts, every written value
    (coefficients, objective, right-hand sides) equal to the model's as a
    float, matching senses and free bounds, and a name table that maps
    every row and column to a distinct name used in the text.
    """
    rows, variables = model.rows(), model.variables()
    if set(names) != {"OBJ", *variables, *(r.name for r in rows)}:
        return "name table does not cover exactly the model's rows and columns"
    if len(set(names.values())) != len(names):
        return "name table maps two names to one"
    senses, entries, rhs, free = {}, {}, {}, set()
    section = None
    for line in text.splitlines():
        fields = line.split()
        if not line.startswith(" "):
            section = fields[0]
            continue
        if section == "ROWS":
            senses[fields[1]] = fields[0]
        elif section == "COLUMNS":
            if (fields[0], fields[1]) in entries:
                return f"duplicate entry {fields[0]} {fields[1]}"
            entries[(fields[0], fields[1])] = float(fields[2])
        elif section == "RHS":
            rhs[fields[1]] = float(fields[2])
        elif section == "BOUNDS":
            if fields[0] != "FR":
                return f"unexpected bound type {fields[0]}"
            free.add(fields[2])
    if section != "ENDATA":
        return "missing ENDATA"
    if senses.pop("OBJ", None) != "N":
        return "missing objective row"
    if len(senses) != len(rows):
        return f"{len(senses)} rows written, model has {len(rows)}"
    columns = {col for col, _ in entries} | free
    if len(columns) != len(variables):
        return f"{len(columns)} columns written, model has {len(variables)}"
    nnz = sum(len(r.coeffs) for r in rows)
    written = sum(1 for _, row in entries if row != "OBJ")
    if written != nnz or len(entries) - written != len(model.objective):
        return f"{written} nonzeros written, model has {nnz}"
    tag = {"<=": "L", ">=": "G", "=": "E"}
    for r in rows:
        row = names[r.name]
        if senses.get(row) != tag[r.sense]:
            return f"row {r.name}: sense {senses.get(row)} != {r.sense}"
        if rhs.get(row, 0.0) != float(r.rhs):
            return f"row {r.name}: rhs {rhs.get(row, 0.0)} != {r.rhs}"
        for var, c in r.coeffs.items():
            if entries.get((names[var], row)) != float(c):
                return f"row {r.name}, column {var}: {entries.get((names[var], row))} != {c}"
    for var, c in model.objective.items():
        if entries.get((names[var], "OBJ")) != float(-c):
            return f"objective {var}: {entries.get((names[var], 'OBJ'))} != {-c}"
    if len(rhs) != sum(1 for r in rows if r.rhs):
        return "right-hand side written for a zero row"
    if free != {names[v] for v in variables if model.is_free(v)}:
        return "free columns differ"
    return None


# -- workloads -------------------------------------------------------------------


class Workload:
    """Base: ``keys`` lists the pool of units in run order; ``run`` does one
    unit's timed work; ``check`` returns None or the reason the output is
    wrong.  At the seed commit one pass over a pool takes 12-21 s."""

    name = ""

    def __init__(self, seed: int):
        self.keys: list[tuple] = []
        self.bounds: dict[tuple, object] = {}
        self.gaps: dict[tuple, float] = {}

    def warmup_key(self):
        """The first unit of the instance with the fewest terms, so that the
        untimed warm-up in set-up stays small on every seed."""
        return min(self.keys, key=lambda k: self.polys[k[0]].num_terms)

    def run(self, key):
        raise NotImplementedError

    def check(self, key, output) -> str | None:
        raise NotImplementedError

    def _record(self, key, bound, tol) -> str | None:
        """Remember a unit's bound; a repeat of the unit must reproduce it."""
        previous = self.bounds.setdefault(key, bound)
        if abs(previous - bound) > tol:
            return f"bound {bound} differs from an earlier run's {previous}"
        return None


class ExactHierarchy(Workload):
    """Every level of both hierarchies, exact arithmetic, extended mode."""

    name = "exact_hierarchy"
    mode = "extended"

    def __init__(self, seed: int):
        super().__init__(seed)
        from signedbpo import relax

        self.polys = self.instances(seed)
        self.minima: dict[int, Fraction] = {}
        self.keys = [
            (i, method, level)
            for i, f in enumerate(self.polys)
            for method in (STANDARD, LOVASZ)
            for level in range(1, relax.num_levels(f, method) + 1)
        ]

    @staticmethod
    def instances(seed: int):
        return criterion4_polynomials(seed, copies=3)

    def _solve(self, key, mode):
        from signedbpo import relax

        i, method, level = key
        rm = relax.build_level_relaxation(self.polys[i], level, method)
        return relax.solve_relaxation(rm, mode=mode, arithmetic="exact")

    def run(self, key):
        return self._solve(key, self.mode)

    def check(self, key, sol) -> str | None:
        from signedbpo import polynomials, relax

        if sol.status != "optimal":
            return f"status {sol.status}"
        i, method, level = key
        lam = sol.objective
        if i not in self.minima:
            self.minima[i] = polynomials.brute_force_min(self.polys[i])[1]
        v_star = self.minima[i]
        if lam > v_star:
            return f"unsound: bound {lam} > min {v_star}"
        below = self.bounds.get((i, method, level - 1))
        if below is not None and lam < below:
            return f"not monotone: level {level} bound {lam} < level {level - 1} bound {below}"
        if level == relax.num_levels(self.polys[i], method) and lam != v_star:
            return f"last level inexact: {lam} != min {v_star}"
        return self._record(key, lam, 0)


class ExactCutplane(ExactHierarchy):
    """The exact_hierarchy units in cutting-plane mode, also compared with
    the extended-mode bound of the same relaxation."""

    name = "exact_cutplane"
    mode = "cutplane"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.extended: dict[tuple, Fraction] = {}

    @staticmethod
    def instances(seed: int):
        return rotated(criterion4_polynomials(None), seed)

    def check(self, key, sol) -> str | None:
        if sol.status == "optimal":
            if key not in self.extended:
                self.extended[key] = self._solve(key, "extended").objective
            if sol.objective != self.extended[key]:
                return f"cutplane bound {sol.objective} != extended bound {self.extended[key]}"
        return super().check(key, sol)


class MaxcutFloat(Workload):
    """SA-1 and standard levels 1-3, float extended mode, on n = 30 graphs."""

    name = "maxcut_float"
    n, p, count = 30, 0.1, 16
    levels: tuple = (SA1, 1, 2, 3)
    mode = "extended"

    def __init__(self, seed: int):
        super().__init__(seed)
        from signedbpo import maxcut

        self.graphs = self.instances(seed)
        self.polys = [maxcut.maxcut_to_bpo(g) for g in self.graphs]
        self.maxcuts: dict[int, Fraction] = {}
        self.keys = [(i, level) for i in range(self.count) for level in self.levels]

    def instances(self, seed: int):
        return random_graphs(seed, self.n, self.p, self.count)

    def build(self, key):
        from signedbpo import relax

        i, level = key
        f = self.polys[i]
        if level == SA1:
            return relax.sherali_adams_1(f)
        return relax.build_level_relaxation(f, min(level, relax.num_levels(f, STANDARD)), STANDARD)

    def run(self, key):
        from signedbpo import relax

        return relax.solve_relaxation(self.build(key), mode=self.mode, arithmetic="float")

    def check(self, key, sol) -> str | None:
        from signedbpo import experiment

        if sol.status != "optimal":
            return f"status {sol.status}"
        i, level = key
        lam = sol.objective
        if i not in self.maxcuts:
            self.maxcuts[i] = maxcut_milp(self.graphs[i])
        best = self.maxcuts[i]
        if -lam < best - FLOAT_TOL:
            return f"unsound: cut upper bound {-lam} < max cut {best}"
        pos = self.levels.index(level)
        lower = self.levels[pos - 1] if pos > 0 else SA1
        below = None if lower == SA1 else self.bounds.get((i, lower))
        if below is not None and lam < below - FLOAT_TOL:
            return f"not monotone: level {level} bound {lam} < level {lower} bound {below}"
        self.gaps[key] = experiment.relative_gap(lam, -best)
        return self._record(key, lam, FLOAT_TOL)


class MaxcutCutplane(MaxcutFloat):
    """Standard levels 1 and 3, float cutting-plane mode, on n = 10 graphs,
    also compared with the float extended-mode bound."""

    name = "maxcut_cutplane"
    n, p, count = 10, 0.25, 50
    levels = (1, 3)
    mode = "cutplane"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.extended: dict[tuple, float] = {}

    def instances(self, seed: int):
        return rotated(random_graphs(None, self.n, self.p, self.count), seed)

    def check(self, key, sol) -> str | None:
        from signedbpo import relax

        if sol.status == "optimal":
            if key not in self.extended:
                self.extended[key] = relax.solve_relaxation(self.build(key), arithmetic="float").objective
            if abs(sol.objective - self.extended[key]) > FLOAT_TOL:
                return f"cutplane bound {sol.objective} != extended bound {self.extended[key]}"
        return super().check(key, sol)


class MaxcutExport(MaxcutFloat):
    """SA-1 and standard levels 1-3 built and rendered as MPS text, on
    n = 20 graphs; the text is parsed back and compared with the model."""

    name = "maxcut_export"
    n, p, count = 20, 0.1, 30

    def __init__(self, seed: int):
        super().__init__(seed)
        self.verified: dict[tuple, bytes] = {}

    def run(self, key):
        from signedbpo import lpmodel

        rm = self.build(key)
        text, names = lpmodel.mps_string(rm.model)
        return rm.model, text, names

    def check(self, key, output) -> str | None:
        model, text, names = output
        digest = hashlib.sha256(text.encode()).digest()
        if self.verified.get(key) == digest:
            return None  # byte-identical to this unit's verified export
        reason = check_mps(model, text, names)
        if reason is None:
            self.verified[key] = digest
        return reason


WORKLOADS = {
    cls.name: cls for cls in (ExactHierarchy, ExactCutplane, MaxcutFloat, MaxcutCutplane, MaxcutExport)
}
