"""Acceptance gate: one test per headline guarantee, frozen seeds throughout.

Each test is self-contained and produces exactly one pass/fail line under
`pytest -v`.  The finite-n structure guarantees (support, normality, the
minimum-singular-value bound, corner masses, the hermitization identity)
are exact theorems checked at tight tolerances; the recovery and
convergence criteria are trend and oracle checks at the tolerances noted
inline.  Runtime ceilings are asserted where a criterion carries one.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from projsum import (
    ModelSpec,
    TwoAtomLaw,
    assemble_model,
    atom_weights,
    brown_pipeline,
    convergence_run,
    corner_atom_masses,
    dist_to_hr_many,
    esd,
    freeness_diagnostic,
    laplacian_recover,
    log_potential,
    make_geometry,
    nu_n_z,
    structure_report,
    verify_sv_bound,
)
from projsum.cli import E_OK, main
from projsum.hermitization import PotentialGrid

P_LAW = TwoAtomLaw(weight=5 / 8, loc=0.0, loc_alt=1.0)
Q_LAW = TwoAtomLaw(weight=7 / 8, loc=0.0, loc_alt=0.8)
GEOM = make_geometry(P_LAW, Q_LAW)


def _realize(n: int, seed: int):
    return assemble_model(ModelSpec(P_LAW, Q_LAW, n=n, seed=seed))


def test_criterion_01_eigenvalue_support():
    # every eigenvalue of every draw lies on H intersect R; n in {50, 200},
    # 20 seeds each, tolerance 1e-8 * scale, wall clock < 30 s
    t0 = time.perf_counter()
    worst = 0.0
    for n in (50, 200):
        for i in range(20):
            r = _realize(n, 1000 + i)
            geom = make_geometry(r.realized_p_law, r.realized_q_law)
            dev = float(np.max(dist_to_hr_many(geom, esd(r).points)))
            worst = max(worst, dev)
            assert dev <= 1e-8 * geom.scale, (n, i, dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"support sweep took {elapsed:.1f}s"
    assert worst > 0.0  # sanity: the check actually measured something


def test_criterion_02_structure_identities():
    # X~^2 is normal with constant real part and bounded imaginary part at
    # every finite n, not just asymptotically
    for n in (50, 200):
        for i in range(20):
            r = _realize(n, 1000 + i)
            geom = make_geometry(r.realized_p_law, r.realized_q_law)
            rep = structure_report(r)
            assert rep.normality_residual <= 1e-10, (n, i)
            assert rep.re_deviation <= 1e-9 * geom.scale**2, (n, i)
            assert rep.im_norm <= geom.im_halfwidth + 1e-10, (n, i)


def test_criterion_03_min_singular_value_bound():
    # sigma_min(z - X_n) >= dist(z, H n R)^2 / ||z - X_n|| for 100 random z
    # per draw, 10 draws at n=100, allowance -1e-8 * scale, < 2 min
    t0 = time.perf_counter()
    rng = np.random.default_rng(3000)
    for i in range(10):
        r = _realize(100, 3000 + i)
        geom = make_geometry(r.realized_p_law, r.realized_q_law)
        zs = rng.uniform(-1, 2, 100) + 1j * rng.uniform(-1, 2, 100)
        # one array call per draw: elementwise the same margins as 100 scalar calls
        margins = verify_sv_bound(r, zs)
        for z, margin in zip(zs, margins):
            assert margin >= -1e-8 * geom.scale, (i, z, margin)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"bound sweep took {elapsed:.1f}s"


def test_criterion_04_corner_atom_masses():
    # ESD atoms at the corners with exactly the parallelogram-law masses:
    # a_n = 5/8 and b_n = 7/8 realize exactly at n=80, so the corner at 0
    # carries a_n + b_n - 1 = 1/2 and the corner at 1 carries b_n - a_n = 1/4
    predicted = atom_weights(5 / 8, 7 / 8)
    assert predicted == (0.5, 0.0, 0.25, 0.0)
    assert 1.0 - sum(predicted) == 0.25
    for i in range(50):
        r = _realize(80, 4000 + i)
        assert r.realized_p_law.weight == 5 / 8
        assert r.realized_q_law.weight == 7 / 8
        cm = corner_atom_masses(r)
        assert cm.esd_mass == pytest.approx(predicted, abs=1e-12), i
        assert cm.intersection_mass == pytest.approx(predicted, abs=1e-12), i


def test_criterion_05_hermitization_identity():
    # L(esd, z) = (1/2) mean log nu_{n,z} for 1000 (z, seed) pairs at n=60
    rng = np.random.default_rng(5500)
    for i in range(50):
        r = _realize(60, 5000 + i)
        measure = esd(r)
        zs = rng.uniform(-1, 2, 20) + 1j * rng.uniform(-1, 2, 20)
        for z in zs:
            nu = nu_n_z(r, complex(z))
            assert np.all(nu.points > 0.0)
            lhs = log_potential(measure, complex(z))
            rhs = 0.5 * float(np.mean(np.log(nu.points)))
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs)), (i, z)


def test_criterion_06_laplacian_recovery_oracle():
    # analytic potential of the unit point mass at 0: the stencil must give
    # back total mass 1 within 2% with >= 95% of it next to the atom
    nx = ny = 200
    xs = -1.0 + (2.0 / (nx - 1)) * np.arange(nx)
    ys = -1.0 + (2.0 / (ny - 1)) * np.arange(ny)
    values = np.log(np.abs(xs[:, None] + 1j * ys[None, :]))
    grid = PotentialGrid(
        x0=-1.0, y0=-1.0, hx=2.0 / (nx - 1), hy=2.0 / (ny - 1), values=values,
    )
    rec = laplacian_recover(grid)
    assert abs(rec.raw_total - 1.0) <= 0.02
    clamped = np.maximum(rec.mass, 0.0)
    i, j = np.unravel_index(int(np.argmax(clamped)), clamped.shape)
    block = clamped[i - 1 : i + 2, j - 1 : j + 2].sum()
    assert block >= 0.95 * clamped.sum()


def test_criterion_07_brown_pipeline_atoms():
    # measure recovery through averaged log potentials reproduces the two
    # corner atoms at their predicted weights and puts <= 1% of the mass
    # off the support; < 10 min wall clock
    t0 = time.perf_counter()
    res = brown_pipeline(
        ModelSpec(P_LAW, Q_LAW, n=400, seed=7000),
        window=(-0.3, 1.3, -0.3, 1.3),
        nx=200,
        ny=200,
        samples=10,
    )
    h = res.grid.hx
    assert abs(res.raw_total - 1.0) <= 0.02
    assert res.measure is not None
    mass_00 = res.measure.mass_within(0j, 2.5 * h)
    mass_10 = res.measure.mass_within(1 + 0j, 2.5 * h)
    assert abs(mass_00 - 0.50) <= 0.05, mass_00
    assert abs(mass_10 - 0.25) <= 0.05, mass_10
    nodes = res.measure.points
    dist = dist_to_hr_many(GEOM, nodes)
    off_support = float(res.measure.weights[dist > 3 * h].sum())
    assert off_support <= 0.01, off_support
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"pipeline took {elapsed:.1f}s"


def test_criterion_08_convergence_trend():
    # pooled-ESD BL distances to the n=800 reference tighten along
    # {50, 100, 200, 400}, never increasing
    rep = convergence_run(
        P_LAW, Q_LAW, (50, 100, 200, 400), samples=10, seed=4000, reference_n=800
    )
    # a NaN step fails too: every comparison with NaN is False
    assert all(later <= earlier for earlier, later in zip(rep.distances, rep.distances[1:]))
    assert rep.distances[-1] < rep.distances[0]
    assert all(d > 0.0 for d in rep.distances)
    assert max(rep.support_devs) <= 1e-8
    assert max(rep.corner_mass_errors) <= 1e-12


def test_criterion_09_freeness_decay():
    # the order-4 alternating centered trace word shrinks with n: median
    # over 20 seeds strictly decreases along {50, 100, 200, 400}
    medians = []
    for n in (50, 100, 200, 400):
        vals = [freeness_diagnostic(_realize(n, 9000 + i), 4) for i in range(20)]
        medians.append(float(np.median(vals)))
    assert all(a > b for a, b in zip(medians, medians[1:])), medians
    assert medians[-1] < 1e-4


def test_criterion_10_manifest_determinism(tmp_path, monkeypatch):
    # every command replayed from its manifest writes byte-identical
    # artifacts, and the bytes do not depend on the thread count
    flags = [
        "--a", "0.625", "--alpha", "0", "--alpha-prime", "1",
        "--b", "0.875", "--beta", "0", "--beta-prime", "0.8",
    ]
    sample = tmp_path / "s"
    assert main(["sample", "--n", "64", *flags, "--seed", "11",
                 "--out-prefix", str(sample)]) == E_OK
    check = tmp_path / "c"
    assert main(["check", "--n", "48", *flags, "--seed", "12", "--z-grid", "8",
                 "--out-prefix", str(check)]) == E_OK
    pot = tmp_path / "p"
    assert main(["potential", "--n", "48", *flags, "--seed", "13",
                 "--xmin", "-0.3", "--xmax", "1.3", "--ymin", "-0.3", "--ymax", "1.3",
                 "--nx", "41", "--ny", "41", "--samples", "2",
                 "--out-prefix", str(pot)]) == E_OK
    recov = tmp_path / "r"
    assert main(["recover", "--in-prefix", str(pot),
                 "--out-prefix", str(recov)]) == E_OK
    conv = tmp_path / "v"
    assert main(["converge", *flags, "--schedule", "16,32", "--samples", "2",
                 "--seed", "14", "--out-prefix", str(conv)]) == E_OK

    artifacts = [
        str(sample) + ".esd.csv",
        str(check) + ".check.json",
        str(pot) + ".potential.csv",
        str(recov) + ".measure.csv",
        str(conv) + ".converge.json",
    ]
    for prefix in (sample, check, pot, conv):
        assert main(["replay", "--manifest", str(prefix) + ".manifest.json"]) == E_OK
    assert main(["replay", "--manifest", str(recov) + ".manifest.json"]) == E_OK
    for path in artifacts:
        replayed = Path(path.replace(".esd", ".replay.esd")
                        .replace(".check", ".replay.check")
                        .replace(".potential", ".replay.potential")
                        .replace(".measure", ".replay.measure")
                        .replace(".converge", ".replay.converge"))
        assert replayed.read_bytes() == Path(path).read_bytes(), path

    # identical bytes with PROJSUM_THREADS at 1 and 4: projsum reads no such
    # variable, so a stray setting moves no byte
    for threads, name in (("1", "t1"), ("4", "t4")):
        monkeypatch.setenv("PROJSUM_THREADS", threads)
        out = tmp_path / name
        assert main(["potential", "--n", "48", *flags, "--seed", "13",
                     "--xmin", "-0.3", "--xmax", "1.3", "--ymin", "-0.3", "--ymax", "1.3",
                     "--nx", "41", "--ny", "41", "--samples", "2",
                     "--out-prefix", str(out)]) == E_OK
    assert (tmp_path / "t1.potential.csv").read_bytes() == (
        tmp_path / "t4.potential.csv"
    ).read_bytes()
