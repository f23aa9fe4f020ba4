"""Self-contained offline check suites, aggregated by the CLI.

Each suite re-derives a slice of the package's guarantees from
independent directions (embedded reference tables, zeta closed forms,
brute-force spectral counting, exact matrix arithmetic) and reports
pass/fail with human-readable details.

The library is read through its module attributes, looked up when a
suite runs, so ``check SUITE`` runs only the modules its suite calls, and
a wrapped module attribute is the one called.  ``check tables`` runs
``cells``, the cell that ``table`` and ``value`` print.
"""

import itertools
from collections import namedtuple
from fractions import Fraction

from . import (admissibility, cells, constants, exceptional, htype_algebra, monotonicity,
               numerics, oracles, reference, series)

__all__ = ["CheckResult", "SUITES"]


CheckResult = namedtuple("CheckResult", "name passed details")  # details: a tuple of lines


def _result(name: str, failures: list[str], notes: list[str]) -> CheckResult:
    details = tuple(notes) + tuple(failures)
    return CheckResult(name=name, passed=not failures, details=details)


# --------------------------------------------------------------------------

def check_tables() -> CheckResult:
    """Recompute both 10 x 10 reference tables cell-for-cell, each cell by
    ``cells._compute_cell``, the cell ``table`` and ``value`` print.

    Each cell's display (4 decimals, eps 1e-8) must match the printed digits,
    or the corrected digits where the errata list the cell (the printed
    digits are provably wrong there), and the figure's red cells must be the
    admissible cells whose certified value exceeds 1.
    """
    failures: list[str] = []
    notes = ["compared 200 table cells plus red-highlight patterns"]
    figures = (
        ("gamma_tilde", reference.GAMMA_TILDE_PRINTED, reference.GAMMA_TILDE_ERRATA,
         reference.RED_PRINTED_GAMMA_TILDE, "certified evaluation"),
        ("gamma_bar", reference.GAMMA_BAR_PRINTED, reference.GAMMA_BAR_ERRATA,
         reference.RED_PRINTED_GAMMA_BAR, "the exact rational"),
    )
    for quantity, printed, errata, red, source in figures:
        for (n, m), fixed in sorted(errata.items()):
            notes.append(f"erratum: {quantity}({n},{m}) prints {printed[n, m]} "
                         f"in the source table but {source} gives {fixed}")
        for (n, m), want in sorted(reference.corrected(printed, errata).items()):
            cell = cells._compute_cell(quantity, n, m, 4, 1e-8)
            if cell.display != want:
                failures.append(f"{quantity}({n},{m}): computed {cell.display}, reference {want}")
            grey = (n, m) in reference.INADMISSIBLE_PRINTED  # check_admissibility compares it
            if (not grey and cell.exceeds_one) != ((n, m) in red):
                failures.append(f"red-flag mismatch in {quantity} table at ({n},{m})")
    return _result("tables", failures, notes)


def check_consistency() -> CheckResult:
    """Cross-route identities tying the constants together."""
    failures: list[str] = []
    notes: list[str] = []

    # closed form vs defining product (isolates the gamma/power algebra): both
    # enclosures contain gamma_tilde, so they must overlap; and the first-term
    # truncation dominates, strictly
    for n, m in itertools.product(range(1, 11), range(1, 11)):
        g = constants.gamma_tilde_interval((n, m))
        product = oracles.gamma_tilde_product_form((n, m))
        if not (g.lo <= product.hi and product.lo <= g.hi):
            failures.append(f"product-form enclosure disjoint at ({n},{m})")
        if not g.hi < constants.gamma_bar_exact((n, m)):
            failures.append(f"gamma_bar does not dominate gamma_tilde at ({n},{m})")
    notes.append("gamma_tilde closed form vs (sobolev)^-(n+m)/weyl (n, m <= 10): "
                 "enclosures overlap")

    # zeta closed forms for the first two rows of the series: both enclosures
    # contain c(n, m), so they must overlap (compared exactly, as Fractions)
    for m in range(1, 11):
        z = oracles.zeta_interval(m + 1)
        for n, scale in ((1, 1 - Fraction(1, 2 ** (m + 1))), (2, Fraction(1, 2 ** (m + 2)))):
            sv = series.c_series((n, m))
            if not (sv.value <= scale * Fraction(z.hi) and scale * Fraction(z.lo) <= sv.upper):
                failures.append(f"series/zeta oracle enclosures disjoint at ({n},{m})")
    notes.append("series vs zeta closed forms (n in 1..2, m in 1..10): enclosures overlap")

    # gamma_tilde(1, 1) = 32/pi^2: its enclosure must meet the exact ends of 32/pi^2
    g11, (lo, hi) = constants.gamma_tilde_interval((1, 1)), numerics._ends(32, 1, -2)
    if not (Fraction(g11.lo) <= Fraction(*hi) and Fraction(*lo) <= Fraction(g11.hi)):
        failures.append("gamma_tilde(1,1) enclosure misses 32/pi^2")

    # brute-force spectral density at lambda = 1 vs the Weyl constant
    for pair in ((1, 1), (2, 2), (3, 1)):
        w = constants.weyl_interval(pair).mid
        dev = abs(oracles.weyl_density_bruteforce(pair) - w) / w
        if dev > 1e-7:
            failures.append(f"brute-force Weyl mismatch at {pair}: rel dev {dev:.2e}")
    notes.append("brute-force shell-sum density agrees with weyl_interval on (1,1), (2,2), (3,1)")

    # the headline classification: the red cells of the gamma_tilde figure
    exc = exceptional.exceptional_set(10, 10)
    want = sorted(reference.RED_PRINTED_GAMMA_TILDE)
    if exc != want:
        failures.append(f"exceptional set is {exc}, expected {want}")
    notes.append("exceptional pairs over 10 x 10: " + " ".join(map(str, exc)))
    return _result("consistency", failures, notes)


def check_monotonicity() -> CheckResult:
    reports = monotonicity.inequality_suite()
    failures = [str(r) for r in reports if not r.passed]
    notes = [str(r) for r in reports if r.passed]
    return _result("monotonicity", failures, notes)


def check_admissibility() -> CheckResult:
    failures: list[str] = []
    notes: list[str] = []

    # quoted special cases and the figure-level pattern
    for N, want in ((2, 2), (4, 4), (6, 2), (8, 8), (16, 9)):
        got = admissibility.radon_hurwitz(N)
        if got != want:
            failures.append(f"radon_hurwitz({N}) = {got}, expected {want}")
    mask = admissibility.shading_mask(10, 10)
    for n, m in itertools.product(range(1, 11), range(1, 11)):
        want = (n, m) not in reference.INADMISSIBLE_PRINTED
        if mask[n - 1][m - 1] != want:
            failures.append(f"shading_mask({n},{m}) = {mask[n - 1][m - 1]}, figures say {want}")
    notes.append("mask matches the grey pattern of the reference tables cell-for-cell")

    # rho sees only the 2-adic part; odd N gives 1
    for N in range(1, 1025):
        two_part = N & -N
        if admissibility.radon_hurwitz(N) != admissibility.radon_hurwitz(two_part):
            failures.append(f"rho({N}) != rho({two_part})")
        if N % 2 == 1 and admissibility.radon_hurwitz(N) != 1:
            failures.append(f"rho({N}) != 1 for odd N")

    # admissibility is monotone in m
    for n in range(1, 33):
        flags = [admissibility.admissible((n, m)).admissible for m in range(1, 12)]
        if any(a and not b for a, b in zip(flags[1:], flags[:-1])):
            failures.append(f"admissibility not downward closed in m at n={n}")
    notes.append("rho is 2-adic and admissibility downward closed (n <= 32, m <= 11)")
    return _result("admissibility", failures, notes)


def _extensions(family, d: int):
    """Every skew signed permutation M on R^d, (M x)_i = a_i x_mu(i), that
    anticommutes with each U in ``family``, (U x)_i = u_i x_p(i).

    Exhaustive: pick mu(i) and a_i for the first open index i, then apply
    the forced rules until they stop or contradict each other.  M^T = -M
    forces mu(mu(i)) = i and a_mu(i) = -a_i; M U = -U M forces
    mu(p(i)) = p(mu(i)) and a_p(i) = -a_i u_mu(i) u_i.  Every index of a
    complete assignment has had its rules applied, so it is a solution.

    Both conditions are linear in M, so M is a solution exactly when -M
    is, and for d >= 1 the two differ at a_0.  The search therefore fixes
    a_0 = +1 at the root and yields each solution found together with its
    negation: every solution once, from half the tree.  Assignments are
    recorded on one trail and undone from it when a branch is left.
    """
    mu, a = [-1] * d, [0] * d
    trail: list[int] = []  # the indices assigned, in order

    def settle(i: int, j: int, sign: int) -> bool:
        todo = [(i, j, sign)]
        while todo:
            i, j, sign = todo.pop()
            if mu[i] >= 0:
                if mu[i] != j or a[i] != sign:
                    return False
                continue
            mu[i], a[i] = j, sign
            trail.append(i)
            todo.append((j, i, -sign))
            todo += [(p[i], p[j], -sign * u[j] * u[i]) for p, u in family]
        return True

    def search(signs: tuple[int, ...]):
        if -1 not in mu:
            yield htype_algebra.SignedPermutation(tuple(mu), tuple(a))
            yield htype_algebra.SignedPermutation(tuple(mu), tuple([-sign for sign in a]))
            return
        i = mu.index(-1)  # mu(j) = i for a set j would have set mu(i): mu(i) is open
        for j, sign in itertools.product([j for j in range(i + 1, d) if mu[j] < 0], signs):
            mark = len(trail)
            if settle(i, j, sign):
                yield from search((1, -1))
            while len(trail) > mark:  # a[i] is read only where mu[i] is set
                mu[trail.pop()] = -1

    yield from search((1,))


def _unit(i: int, size: int) -> tuple[int, ...]:
    return tuple(int(k == i) for k in range(size))


def check_algebra() -> CheckResult:
    failures: list[str] = []
    notes: list[str] = []

    # every admissible pair with 2n <= 16 carries an exact integer structure
    top = {n: admissibility.radon_hurwitz(2 * n) - 1 for n in range(1, 9)}
    built: dict[tuple[int, int], htype_algebra.HTypeStructure] = {}
    for n, max_m in top.items():
        for m in range(1, max_m + 1):
            try:
                built[n, m] = htype_algebra.construct((n, m))
            except Exception as exc:  # noqa: BLE001 - report, do not abort the suite
                failures.append(f"construct({n},{m}) failed: {exc}")
        try:
            htype_algebra.construct((n, max_m + 1))
            failures.append(f"construct({n},{max_m + 1}) unexpectedly succeeded")
        except ValueError:
            pass
    notes.append(f"built and verified {len(built)} structures with 2n <= 16 "
                 "(skew, orthogonal, anticommuting; exact integer arithmetic)")

    # the group law on a basis, at m = 1 and at the maximal m: u o v = u + v,
    # plus <U^(j) e_i, e_k>/2 = signs[k]/2 (where perm[k] == i) in t_j when
    # u = (e_i, 0) and v = (e_k, 0).  The correction is bilinear in (x, xi),
    # so this fixes the law everywhere; any bilinear correction makes it
    # associative, with negation as the inverse.
    products = 0
    wrong: list[str] = []
    for (n, m), s in built.items():
        if m not in (1, top[n]):
            continue
        d, dt = s.dim_x, s.dim_t
        basis = ([htype_algebra.GroupElement(_unit(i, d), (0,) * dt) for i in range(d)]
                 + [htype_algebra.GroupElement((0,) * d, _unit(j, dt)) for j in range(dt)])
        bad = 0
        for i, u in enumerate(basis):
            for k, v in enumerate(basis):
                x = tuple([a + b for a, b in zip(u.x, v.x)])  # lists: see group_mul
                t = tuple([a + b for a, b in zip(u.t, v.t)])
                if i < d and k < d:
                    t = tuple([Fraction(P.signs[k], 2) if P.perm[k] == i else 0
                               for P in s.family])
                bad += htype_algebra.group_mul(s, u, v) != htype_algebra.GroupElement(x, t)
        products += len(basis) ** 2
        if bad:
            wrong.append(f"{bad} at ({n},{m})")
    # group_mul's t_j reads family[j] only, so a prefix of a checked family is covered
    prefixes = [(n, m) for n, m in built if 1 < m < top[n] and (n, top[n]) in built]
    not_prefix = [f"({n},{m})" for n, m in prefixes
                  if built[n, m].family != built[n, top[n]].family[:m]]
    if wrong:
        failures.append(f"group law wrong on basis products: {', '.join(wrong)}")
    if not_prefix:
        failures.append(f"family not a prefix of the maximal one at {' '.join(not_prefix)}")
    if not (wrong or not_prefix):
        notes.append(f"group law exact on {products} basis products at m = 1 and maximal m; "
                     f"the {len(prefixes)} other families are prefixes")

    # J_z^T J_z = |z|^2 I (anticommutation), exactly: both sides are quadratic
    # in z, so z = e_j and e_j + e_l (j < l) fix the identity for every z
    s47 = built[4, 7]
    d = s47.dim_x
    zs = [tuple(int(k in js) for k in range(s47.dim_t))
          for r in (1, 2) for js in itertools.combinations(range(s47.dim_t), r)]
    off = 0
    for z in zs:
        J = [[0] * d for _ in range(d)]
        for zj, P in zip(z, s47.family):
            for row, p, sign in zip(J, P.perm, P.signs):
                row[p] += zj * sign
        norm_sq = sum(zj * zj for zj in z)
        if any(sum(row[k] * row[l] for row in J) != (norm_sq if k == l else 0)
               for k in range(d) for l in range(d)):
            off += 1
    if off:
        failures.append(f"J_z^T J_z != |z|^2 I on {off} of {len(zs)} z at (4,7)")
    else:
        notes.append(f"J_z^T J_z = |z|^2 I exactly on the {len(zs)} z = e_j, e_j + e_l "
                     "at (4,7), hence on all z")

    # Hurwitz-Radon maximality: no skew signed permutation extends a maximal family
    extended = [2 * n for n, max_m in top.items()
                if next(_extensions(built[n, max_m].family, 2 * n), None)]
    if extended:
        failures.append(f"maximal family extended by a skew signed permutation at 2n = {extended}")
    else:
        notes.append("no skew signed permutation extends a maximal family (exhaustive, 2n <= 16)")

    # sublaplacian on polynomial test functions, exactly
    s = built[2, 3]
    nv = s.dim_x + s.dim_t
    x1 = oracles.Polynomial.variable(0, nv)
    t1 = oracles.Polynomial.variable(s.dim_x, nv)
    norm_sq = oracles.Polynomial(nv)
    for i in range(s.dim_x):
        norm_sq = norm_sq + oracles.Polynomial.variable(i, nv) * oracles.Polynomial.variable(i, nv)
    if not oracles.sublaplacian(s, x1).is_zero() or not oracles.sublaplacian(s, t1).is_zero():
        failures.append("sublaplacian does not annihilate linear coordinates")
    if oracles.sublaplacian(s, norm_sq) != oracles.Polynomial.constant(2 * s.dim_x, nv):
        failures.append("sublaplacian of |x|^2 is not 2 * dim(x)")
    first = s.family[0]
    expected = oracles.Polynomial.variable(first.perm[0], nv).scale(first.signs[0])
    if oracles.sublaplacian(s, x1 * t1) != expected:
        failures.append("sublaplacian of x_1 t_1 is not (U^(1) x)_1")
    else:
        notes.append("sublaplacian exact on test polynomials "
                     "(x_1 -> 0, t_1 -> 0, |x|^2 -> 2 dim x, x_1 t_1 -> (U^(1)x)_1)")
    return _result("algebra", failures, notes)


# name -> suite.  The check_* names are looked up at call time, so a wrapped
# module attribute is the one run.
SUITES = {
    "tables": lambda: check_tables(),
    "consistency": lambda: check_consistency(),
    "monotonicity": lambda: check_monotonicity(),
    "admissibility": lambda: check_admissibility(),
    "algebra": lambda: check_algebra(),
}


def cmd_check(args) -> int:
    """The ``check`` verb: each suite's verdict and details, then a JSON trailer;
    exit 1 when a suite fails."""
    import json

    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    results = [SUITES[name]() for name in names]
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}")
        for line in res.details:
            print(f"    {line}")
    report = {
        "suites": [
            {"name": r.name, "passed": r.passed, "details": list(r.details)} for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    if not args.no_timestamp:
        from datetime import datetime, timezone

        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps(report, sort_keys=True))
    return 0 if report["passed"] else 1
