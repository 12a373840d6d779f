"""The benchmark's workloads: input generators, operations and correctness gates.

Each workload turns the benchmark seed into inputs; projsum receives only
the generated laws, dimensions and seeds.  A pass runs every operation of
the workload once, in order; each operation returns its outcome:

* ``OK``: the result passed the workload's correctness gate;
* ``ERROR``: projsum raised (the runner catches it), or the command exited
  1 (numeric failure) or 2 (usage error), so no result was returned;
* ``WRONG``: projsum returned a result (exit 0, a check violation exit 3, or
  a library return value) that fails the gate.

Both ``ERROR`` and ``WRONG`` count as failed operations; only ``WRONG``
makes a run incorrect.

The generators use only the standard library, so the tests can check them
without projsum; the passes import projsum lazily and look every function
up through its module at call time, which is where the tracer patches it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from itertools import product
from pathlib import Path

OK, ERROR, WRONG = "ok", "error", "wrong"

# the demo laws of the README and the acceptance criteria: a = 5/8, b = 7/8
DEMO_P = (5 / 8, 0.0, 1.0)
DEMO_Q = (7 / 8, 0.0, 0.8)
WINDOW = (-0.3, 1.3, -0.3, 1.3)

CHECK_N = 200
CHECK_Z_GRID = 20
BROWN = {"n": 400, "nx": 200, "ny": 200, "samples": 10}
# criterion 08's input, seed included: its no-inversion trend bound is a statistical
# statement, and the 200 -> 400 step lies within Monte Carlo noise for other seeds
# (1 of 25 random seeds inverted at 5 samples), which would mark a correct run wrong
CONVERGE = {"schedule": (50, 100, 200, 400), "reference_n": 800, "samples": 10, "seed": 4000}


@dataclass(frozen=True)
class CheckCase:
    """Atom laws and projsum seed for one ``projsum check`` operation."""

    a: float
    alpha: float
    alpha_prime: float
    b: float
    beta: float
    beta_prime: float
    seed: int

    def flags(self) -> list[str]:
        return law_flags((self.a, self.alpha, self.alpha_prime), (self.b, self.beta, self.beta_prime))


def law_flags(p: tuple[float, float, float], q: tuple[float, float, float]) -> list[str]:
    """CLI flags for the laws p = (a, alpha, alpha') and q = (b, beta, beta')."""
    names = ("--a", "--alpha", "--alpha-prime", "--b", "--beta", "--beta-prime")
    return [tok for name, value in zip(names, (*p, *q)) for tok in (name, repr(value))]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"projsum-bench/{workload}/{seed}")


def realized_weight(weight: float, n: int) -> float:
    """Weight of ``loc`` that projsum realizes at dimension n (k = round(n(1-w)))."""
    return (n - round(n * (1.0 - weight))) / n


def _weights(rng: random.Random, sum_above_one: bool, a_above_b: bool) -> tuple[float, float]:
    # realized weights sit at least 10 eigenvalues inside the requested regime
    margin = 10 / CHECK_N
    while True:
        a, b = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        an, bn = realized_weight(a, CHECK_N), realized_weight(b, CHECK_N)
        s = an + bn - 1.0 if sum_above_one else 1.0 - an - bn
        d = an - bn if a_above_b else bn - an
        if s >= margin and d >= margin:
            return a, b


def check_inputs(seed: int) -> list[CheckCase]:
    """One generic law pair per corner-weight regime and gap ordering (8 cases).

    Atom locations are full-precision floats; ROADMAP defect 4(a) makes
    some of them exit 2, and those failures are kept and counted.
    """
    rng = _rng("check", seed)
    cases = []
    for sum_above_one, a_above_b, a_gap_wider in product((True, False), repeat=3):
        a, b = _weights(rng, sum_above_one, a_above_b)
        wide, narrow = rng.uniform(1.0, 2.0), rng.uniform(0.25, 0.9)
        gap_a, gap_b = (wide, narrow) if a_gap_wider else (narrow, wide)
        alpha, beta = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        cases.append(CheckCase(
            a=a, alpha=alpha, alpha_prime=alpha + rng.choice((-1.0, 1.0)) * gap_a,
            b=b, beta=beta, beta_prime=beta + rng.choice((-1.0, 1.0)) * gap_b,
            seed=rng.getrandbits(63),
        ))
    return cases


def seed_input(workload: str, seed: int) -> int:
    """The projsum seed of the brown workload."""
    return _rng(workload, seed).getrandbits(63)


def make_inputs(workload: str, seed: int):
    if workload == "check":
        return check_inputs(seed)
    if workload == "converge":
        return CONVERGE["seed"]
    return seed_input(workload, seed)


def _cli(argv: list[str]) -> int:
    from projsum import cli

    # projsum prints verdicts on stdout; the last stdout line belongs to the benchmark
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _check_op(case: CheckCase, prefix: Path) -> str:
    code = _cli(["check", "--n", str(CHECK_N), "--z-grid", str(CHECK_Z_GRID),
                 "--seed", str(case.seed), "--out-prefix", str(prefix), *case.flags()])
    if code != 0:
        return WRONG if code == 3 else ERROR
    payload = json.loads(Path(str(prefix) + ".check.json").read_text(encoding="utf-8"))
    a, b = realized_weight(case.a, CHECK_N), realized_weight(case.b, CHECK_N)
    # parallelogram law: generic Haar position attains the lower bounds exactly
    expected = (max(0.0, a + b - 1.0), max(0.0, a - b), max(0.0, b - a), max(0.0, 1.0 - a - b))
    corners = [[case.alpha, case.beta], [case.alpha, case.beta_prime],
               [case.alpha_prime, case.beta], [case.alpha_prime, case.beta_prime]]
    masses = payload["corner_masses"]
    ok = (
        payload["first_failure"] is None
        and masses["corners"] == corners
        and all(abs(e - x) <= 1e-9 for e, x in zip(masses["esd_mass"], expected))
        and all(abs(e - x) <= 1e-9 for e, x in zip(masses["intersection_mass"], expected))
    )
    return OK if ok else WRONG


def check_ops(cases: list[CheckCase], workdir: Path) -> list:
    return [partial(_check_op, case, workdir / f"check{i}") for i, case in enumerate(cases)]


def _demo_laws():
    from projsum import model

    return model.TwoAtomLaw(*DEMO_P), model.TwoAtomLaw(*DEMO_Q)


def _brown_op(seed: int) -> str:
    from projsum import geometry, hermitization, model

    p_law, q_law = _demo_laws()
    res = hermitization.brown_pipeline(
        model.ModelSpec(p_law, q_law, n=BROWN["n"], seed=seed),
        window=WINDOW, nx=BROWN["nx"], ny=BROWN["ny"], samples=BROWN["samples"],
    )
    # criterion 07: unit total, both corner atoms at their weights, <= 1% off support
    h = res.grid.hx
    if abs(res.raw_total - 1.0) > 0.02 or res.measure is None:
        return WRONG
    if abs(res.measure.mass_within(0j, 2.5 * h) - 0.50) > 0.05:
        return WRONG
    if abs(res.measure.mass_within(1 + 0j, 2.5 * h) - 0.25) > 0.05:
        return WRONG
    dist = geometry.dist_to_hr_many(geometry.make_geometry(p_law, q_law), res.measure.points)
    off_support = float(res.measure.weights[dist > 3 * h].sum())
    return OK if off_support <= 0.01 else WRONG


def brown_ops(seed: int, workdir: Path) -> list:
    return [partial(_brown_op, seed)]


def _converge_op(seed: int) -> str:
    from projsum import convergence

    p_law, q_law = _demo_laws()
    rep = convergence.convergence_run(
        p_law, q_law, CONVERGE["schedule"], samples=CONVERGE["samples"], seed=seed,
        reference_n=CONVERGE["reference_n"],
    )
    d = rep.distances
    # criterion 08: distances to the reference never grow along the schedule
    ok = (
        all(later <= earlier for earlier, later in zip(d, d[1:]))
        and d[-1] < d[0]
        and all(x > 0.0 for x in d)
        and max(rep.support_devs) <= 1e-8
        and max(rep.corner_mass_errors) <= 1e-12
    )
    return OK if ok else WRONG


def converge_ops(seed: int, workdir: Path) -> list:
    return [partial(_converge_op, seed)]


OPS = {
    "check": check_ops,
    "brown": brown_ops,
    "converge": converge_ops,
}
