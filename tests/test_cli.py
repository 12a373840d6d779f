"""Command-line surface: artifacts, exit codes, manifests, replay."""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.optimize._highspy import _core
from scipy.optimize._highspy._core import HighsModelStatus

from projsum import ModelSpec, __version__, assemble_model, atom_weights, make_geometry
from projsum import cli, convergence, hermitization, model, spectra
from projsum.cli import E_CHECK, E_NUMERIC, E_OK, E_USAGE, main
from tests.conftest import P_LAW, Q_LAW, commuting_model
from tests.test_spectra import _box_points

DEMO_FLAGS = [
    "--a", "0.625", "--alpha", "0", "--alpha-prime", "1",
    "--b", "0.875", "--beta", "0", "--beta-prime", "0.8",
]


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _perturb_check_input(monkeypatch, eps: float) -> None:
    """Make `check` read X_n + eps*I, which is no longer P_n + iQ_n: a negative control."""
    def perturbed(spec):
        realization = assemble_model(spec)
        x = realization.x_matrix + eps * np.eye(realization.n)
        x.setflags(write=False)
        return replace(realization, x_matrix=x)

    monkeypatch.setattr(cli, "assemble_model", perturbed)


def _sample(tmp_path: Path, name: str, n: int = 64, seed: int = 5) -> Path:
    prefix = tmp_path / name
    rc = main(["sample", "--n", str(n), *DEMO_FLAGS, "--seed", str(seed),
               "--out-prefix", str(prefix)])
    assert rc == E_OK
    return prefix


class TestSample:
    def test_writes_esd_and_manifest(self, tmp_path):
        prefix = _sample(tmp_path, "run", n=64, seed=5)
        header, rows = _read_csv(Path(str(prefix) + ".esd.csv"))
        assert header == ["re", "im"]
        assert len(rows) == 64
        geom = make_geometry(P_LAW, Q_LAW)
        pts = np.array([complex(re, im) for re, im in rows])
        from projsum import dist_to_hr_many

        assert np.max(dist_to_hr_many(geom, pts)) <= 1e-8
        manifest = json.loads(Path(str(prefix) + ".manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["params"]["n"] == 64
        # 64 divides the atom counts evenly, so the laws realize exactly
        assert manifest["realized_laws"]["p"]["weight"] == 0.625
        assert "timings" in manifest

    def test_scalar_trivial_model(self, tmp_path):
        prefix = tmp_path / "one"
        rc = main(["sample", "--n", "1",
                   "--a", "1", "--alpha", "0.25", "--alpha-prime", "9",
                   "--b", "1", "--beta", "-0.5", "--beta-prime", "9",
                   "--out-prefix", str(prefix)])
        assert rc == E_OK
        _, rows = _read_csv(Path(str(prefix) + ".esd.csv"))
        # the 1x1 Haar rotation is a phase roundtrip, exact only to eps
        assert rows[0] == pytest.approx([0.25, -0.5], abs=1e-14)

    def test_crlf_line_endings(self, tmp_path):
        prefix = _sample(tmp_path, "crlf", n=5, seed=1)
        raw = Path(str(prefix) + ".esd.csv").read_bytes()
        assert raw.count(b"\r\n") == 6  # header + 5 rows
        assert b"\n" not in raw.replace(b"\r\n", b"")

    def test_gaps_near_the_float_limit(self, tmp_path):
        # the Hermitian symmetrization summed entries of 1e308 before halving them:
        # inf entries, overflow warnings and an eigensolver failure (exit 1)
        prefix = tmp_path / "big"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sample", "--n", "16", "--a", "0.625", "--alpha", "0", "--alpha-prime", "1e308",
                       "--b", "0.875", "--beta", "0", "--beta-prime", "8e307",
                       "--out-prefix", str(prefix)])
        assert rc == E_OK
        header, rows = _read_csv(Path(str(prefix) + ".esd.csv"))
        assert len(rows) == 16 and np.all(np.isfinite(rows))

    @pytest.mark.parametrize("command, flag", [
        ("sample", "--commuting"), ("check", "--commuting"), ("check", "--perturb=1e-3"),
    ])
    def test_retired_flags_are_usage_errors(self, tmp_path, command, flag):
        # the commuting variant and the perturbed X_n are library and test tools only
        rc = main([command, "--n", "8", *DEMO_FLAGS, flag, "--out-prefix", str(tmp_path / "gone")])
        assert rc == E_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_same_seed_same_bytes(self, tmp_path):
        a = _sample(tmp_path, "a", seed=99)
        b = _sample(tmp_path, "b", seed=99)
        c = _sample(tmp_path, "c", seed=100)
        esd_a = Path(str(a) + ".esd.csv").read_bytes()
        assert esd_a == Path(str(b) + ".esd.csv").read_bytes()
        assert esd_a != Path(str(c) + ".esd.csv").read_bytes()


class TestCheck:
    def test_clean_realization_passes(self, tmp_path, capsys):
        prefix = tmp_path / "chk"
        rc = main(["check", "--n", "60", *DEMO_FLAGS, "--seed", "3",
                   "--z-grid", "10", "--out-prefix", str(prefix)])
        assert rc == E_OK
        assert "all checks passed" in capsys.readouterr().out
        payload = json.loads(Path(str(prefix) + ".check.json").read_text())
        assert payload["first_failure"] is None
        assert [c["name"] for c in payload["checks"]] == [
            "support", "normality", "re_constant", "im_bound", "sv_bound", "corner_mass",
        ]
        assert all(c["ok"] for c in payload["checks"])
        assert len(payload["sv_margins"]) == 10
        assert min(m["margin"] for m in payload["sv_margins"]) >= -1e-8

    def test_perturbation_trips_support_first(self, tmp_path, monkeypatch, capsys):
        _perturb_check_input(monkeypatch, 1e-3)
        prefix = tmp_path / "bad"
        rc = main(["check", "--n", "60", *DEMO_FLAGS, "--seed", "3",
                   "--z-grid", "5", "--out-prefix", str(prefix)])
        assert rc == E_CHECK
        assert "support" in capsys.readouterr().err
        payload = json.loads(Path(str(prefix) + ".check.json").read_text())
        assert payload["first_failure"] == "support"
        assert payload["structure"]["support_deviation"] > 1e-8
        # the margins of a matrix that is not P_n + iQ_n come from the dense SVD
        margins = [m["margin"] for m in payload["sv_margins"]]
        assert len(margins) == 5 and all(math.isfinite(m) for m in margins)

    def test_tiny_perturbation_is_within_tolerance(self, tmp_path, monkeypatch):
        _perturb_check_input(monkeypatch, 1e-12)
        prefix = tmp_path / "tiny"
        rc = main(["check", "--n", "60", *DEMO_FLAGS, "--seed", "3",
                   "--z-grid", "5", "--out-prefix", str(prefix)])
        assert rc == E_OK

    def test_zero_z_grid_skips_bound(self, tmp_path):
        prefix = tmp_path / "nozs"
        rc = main(["check", "--n", "40", *DEMO_FLAGS, "--z-grid", "0",
                   "--out-prefix", str(prefix)])
        assert rc == E_OK
        payload = json.loads(Path(str(prefix) + ".check.json").read_text())
        assert payload["sv_margins"] == []
        assert all(c["name"] != "sv_bound" for c in payload["checks"])

    def test_negative_z_grid_is_usage_error(self, tmp_path, capsys):
        rc = main(["check", "--n", "10", *DEMO_FLAGS, "--z-grid", "-3",
                   "--out-prefix", str(tmp_path / "neg")])
        assert rc == E_USAGE
        assert "--z-grid must be >= 0, got -3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_projection_spectra_taken_once(self, tmp_path, monkeypatch):
        # the sv bound and the corner masses share one dense angle spectrum
        calls = []
        real = model._projection_spectra

        def counting(realization):
            calls.append(realization.n)
            return real(realization)

        monkeypatch.setattr(model, "_projection_spectra", counting)
        assert main(["check", "--n", "40", *DEMO_FLAGS, "--z-grid", "5",
                     "--out-prefix", str(tmp_path / "once")]) == E_OK
        assert calls == [40]

    def test_dense_solves_per_check(self, tmp_path, dense_solves):
        # one eigvals for the ESD; one eigvalsh for the structure identities, of Im W,
        # and two for the angle spectrum, each taken once per realization
        assert main(["check", "--n", "40", *DEMO_FLAGS, "--z-grid", "5",
                     "--out-prefix", str(tmp_path / "solves")]) == E_OK
        assert dense_solves == {"eigvals": 1, "eigvalsh": 3}

    def test_commuting_variant_also_passes(self):
        # check's verdict rules on the closed-form commuting realization, built in conftest
        realization = commuting_model(ModelSpec(P_LAW, Q_LAW, n=16, seed=0))
        geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
        tol, scale = cli.CHECK_TOLERANCES, geom.scale
        # one tolerance per check, in the order `check` runs them; the sv
        # allowance is the accuracy the block certificate guarantees a margin
        assert list(tol) == ["support", "normality", "re_constant", "im_bound", "sv_bound", "corner_mass"]
        assert tol["sv_bound"] == spectra._MARGIN_ACCURACY
        report = spectra.structure_report(realization)
        assert report.support_deviation <= tol["support"] * scale
        assert report.normality_residual <= tol["normality"]
        assert report.re_deviation <= tol["re_constant"] * scale**2
        assert report.im_norm <= geom.im_halfwidth + tol["im_bound"] * scale**2
        margins = spectra.verify_sv_bound(realization, _box_points(geom, 5, 0))
        assert np.min(margins) >= -tol["sv_bound"] * scale
        masses = convergence.corner_atom_masses(realization)
        lower = atom_weights(realization.realized_p_law.weight, realization.realized_q_law.weight)
        for e_mass, i_mass, w in zip(masses.esd_mass, masses.intersection_mass, lower):
            assert abs(e_mass - i_mass) <= tol["corner_mass"] and e_mass >= w - 1e-12

    def test_tolerances_are_not_flags(self):
        # the verdict's tolerances live in CHECK_TOLERANCES; the manifest records only these
        assert cli._command_params("check").keys() == {
            "n", "a", "alpha", "alpha_prime", "b", "beta", "beta_prime",
            "seed", "z_grid", "out_prefix",
        }

    def test_manifest_realized_laws_match_realization(self, tmp_path):
        # n=50 does not divide the weights: 0.625 * 50 and 0.875 * 50 round
        prefix = tmp_path / "laws"
        assert main(["check", "--n", "50", *DEMO_FLAGS, "--z-grid", "0",
                     "--out-prefix", str(prefix)]) == E_OK
        laws = json.loads(Path(str(prefix) + ".manifest.json").read_text())["realized_laws"]
        r = assemble_model(ModelSpec(P_LAW, Q_LAW, n=50, seed=0))
        assert laws["p"]["weight"] == r.realized_p_law.weight == 0.62
        assert laws["q"]["weight"] == r.realized_q_law.weight

    def test_linalg_error_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError; it used to exit 2 as a usage error
        def failing(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        rc = main(["check", "--n", "16", *DEMO_FLAGS, "--out-prefix", str(tmp_path / "la")])
        assert rc == E_NUMERIC
        assert "numeric failure: Eigenvalues did not converge" in capsys.readouterr().err

    def test_inexact_atom_midpoint_passes(self, tmp_path):
        # 0.5 * (0.1 + 0.7) - 0.3 rounds to 0.09999999999999998, not 0.1;
        # the corner bounds must not depend on re-deriving the atom locations
        prefix = tmp_path / "inexact"
        rc = main(["check", "--n", "40", "--a", "0.625", "--alpha", "0.1", "--alpha-prime", "0.7",
                   "--b", "0.875", "--beta", "0", "--beta-prime", "0.8",
                   "--z-grid", "5", "--out-prefix", str(prefix)])
        assert rc == E_OK

    @pytest.mark.parametrize("gap", ["1e-8", "1e-200"])
    def test_corner_radius_shrinks_with_the_gaps(self, tmp_path, gap):
        # a radius floored at 1e-9 held continuous-part eigenvalues at these
        # gaps: ESD mass (0.1, 0, 0.4, 0.1) at 1e-8, and 1.0 at every corner at 1e-200
        prefix = tmp_path / "tiny"
        rc = main(["check", "--n", "50", "--a", "0.3", "--alpha", "0", "--alpha-prime", gap,
                   "--b", "0.7", "--beta", "0", "--beta-prime", gap,
                   "--z-grid", "5", "--out-prefix", str(prefix)])
        assert rc == E_OK
        masses = json.loads(Path(str(prefix) + ".check.json").read_text())["corner_masses"]
        assert masses["intersection_mass"] == [0.0, 0.0, 0.4, 0.0]
        assert masses["esd_mass"] == pytest.approx(masses["intersection_mass"], abs=1e-12)

    @pytest.mark.parametrize("a, b, gap_b, intersection", [
        # corners 0 and iB lie within two radii: the ESD masses (0.3, 0.3, 0.7, 0.7)
        # count both clusters at each and sum to 2, which no intersection dimensions do
        ("0.3", "0.6", "1e-10", [0.0, 0.0, 0.3, 0.1]),
        # a block with c = 0.0069 has its roots within 5e-10 of A and iB, but it
        # is no intersection of ranges and kernels
        ("0.5", "0.5", "1e-5", [0.0, 0.0, 0.0, 0.0]),
    ], ids=["ratio-1e10", "ratio-1e5"])
    def test_roots_a_small_gap_puts_near_a_corner_fail_the_corner_check(self, tmp_path, a, b, gap_b, intersection):
        prefix = tmp_path / "thin"
        rc = main(["check", "--n", "40", "--a", a, "--alpha", "0", "--alpha-prime", "1",
                   "--b", b, "--beta", "0", "--beta-prime", gap_b, "--seed", "1", "--out-prefix", str(prefix)])
        assert rc == E_CHECK
        payload = json.loads(Path(str(prefix) + ".check.json").read_text())
        assert payload["first_failure"] == "corner_mass"
        assert payload["corner_masses"]["intersection_mass"] == intersection

    @pytest.mark.parametrize("gap_b, rc, first_failure", [
        ("1e-310", E_OK, None),
        # a gap ratio of 1e10, as in ratio-1e10 above
        ("1e-300", E_CHECK, "corner_mass"),
    ], ids=["gap-1e-310", "ratio-1e10"])
    def test_subnormal_gaps_divide_in_the_power_of_two_frame(self, tmp_path, capsys, gap_b, rc, first_failure):
        # NumPy divides a complex array by a real through its reciprocal, which a
        # subnormal gap overflows: the projections and X~ / f read inf and nan,
        # with RuntimeWarnings, and the run ended in "Eigenvalues did not converge"
        prefix = tmp_path / "subnormal"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main(["check", "--n", "40", "--a", "0.3", "--alpha", "0", "--alpha-prime", "1e-310",
                        "--b", "0.6", "--beta", "0", "--beta-prime", gap_b, "--seed", "1", "--out-prefix", str(prefix)])
        assert got == rc
        assert capsys.readouterr().err == ("" if rc == E_OK else "check failed: corner_mass\n")
        payload = json.loads(Path(str(prefix) + ".check.json").read_text())
        assert payload["first_failure"] == first_failure
        assert payload["corner_masses"]["intersection_mass"] == [0.0, 0.0, 0.3, 0.1]

    @pytest.mark.parametrize("gap_b", ["1e-6", "1e-7"])
    def test_multiple_corner_eigenvalues_lie_past_a_radius_in_the_smaller_gap(self, tmp_path, gap_b):
        # the dense eigvals places the 120 eigenvalues at (A, 0) farther from it than
        # 1e-9 * min(|A|, |B|): with that radius the ESD mass there was 0.0025 at 1e-7, not 0.3
        prefix = tmp_path / "ratio"
        rc = main(["check", "--n", "400", "--a", "0.3", "--alpha", "0", "--alpha-prime", "1",
                   "--b", "0.6", "--beta", "0", "--beta-prime", gap_b, "--seed", "2", "--z-grid", "0",
                   "--out-prefix", str(prefix)])
        assert rc == E_OK
        payload = json.loads(Path(str(prefix) + ".check.json").read_text())
        assert payload["first_failure"] is None
        masses = payload["corner_masses"]
        assert masses["esd_mass"] == pytest.approx(masses["intersection_mass"], abs=1e-12)

    @pytest.mark.parametrize("gap", ["1e3", "1e10"])
    def test_im_bound_tolerance_grows_with_the_scale_squared(self, tmp_path, gap):
        # ||Im W|| carries rounding of order u * scale^2; an absolute 1e-10
        # failed these laws on im_bound alone (im_norm 4e5 over a 4e5 bound at 1e3)
        prefix = tmp_path / "wide"
        rc = main(["check", "--n", "64", "--a", "0.625", "--alpha", "0", "--alpha-prime", gap,
                   "--b", "0.875", "--beta", "0", "--beta-prime", repr(0.8 * float(gap)),
                   "--seed", "1", "--out-prefix", str(prefix)])
        assert rc == E_OK
        checks = json.loads(Path(str(prefix) + ".check.json").read_text())["checks"]
        assert {c["name"]: c["ok"] for c in checks}["im_bound"] is True

    @pytest.mark.parametrize("excess, ok", [(1e-10, True), (2e-10, False)])
    def test_im_bound_at_scale_one_is_the_absolute_bound(self, tmp_path, monkeypatch, excess, ok):
        # at the demo laws scale is 1, so the bound is still |A*B|/2 + 1e-10
        real = cli.structure_report
        geom = make_geometry(P_LAW, Q_LAW)
        assert geom.scale == 1.0

        def shifted(realization):
            return replace(real(realization), im_norm=geom.im_halfwidth + excess)

        monkeypatch.setattr(cli, "structure_report", shifted)
        prefix = tmp_path / "edge"
        rc = main(["check", "--n", "40", *DEMO_FLAGS, "--z-grid", "0", "--out-prefix", str(prefix)])
        assert rc == (E_OK if ok else E_CHECK)
        payload = json.loads(Path(str(prefix) + ".check.json").read_text())
        assert payload["first_failure"] == (None if ok else "im_bound")

    def test_gaps_of_1e50_pass_in_the_power_of_two_frame(self, tmp_path, capsys):
        # ||[W, W*]||_F of the unscaled W = X~^2 overflowed here: a normality
        # residual of inf (exit 3) and an overflow RuntimeWarning on stderr
        prefix = tmp_path / "wide"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["check", "--n", "50", "--a", "0.625", "--alpha", "0", "--alpha-prime", "1e50",
                       "--b", "0.875", "--beta", "0", "--beta-prime", "8e49", "--seed", "42",
                       "--out-prefix", str(prefix)])
        assert rc == E_OK
        assert capsys.readouterr().err == ""
        assert main(["replay", "--manifest", str(prefix) + ".manifest.json"]) == E_OK
        written = Path(str(prefix) + ".check.json").read_bytes()
        assert written == Path(str(prefix) + ".replay.check.json").read_bytes()

    def test_eigensolver_failure_is_a_numeric_failure(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        rc = main(["check", "--n", "16", *DEMO_FLAGS, "--out-prefix", str(tmp_path / "fail")])
        assert rc == E_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: eigensolver failed on x_matrix: n=16")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("gap_a, gap_b", [("1e100", "8e99"), ("1e150", "8e149"), ("5e153", "4e153"), ("1e154", "8e153")])
    def test_huge_gaps_certify_every_z_in_the_power_of_two_frame(self, tmp_path, monkeypatch, capsys, gap_a, gap_b):
        # the sv-bound closed forms take fourth powers of the gaps, and the certificate
        # Frobenius norms of X_n; unscaled they overflowed here, with RuntimeWarnings on
        # stderr and a dense SVD at every z
        svds = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or real(*a, **k))
        prefix = tmp_path / "huge"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["check", "--n", "64", "--a", "0.625", "--alpha", "0", "--alpha-prime", gap_a,
                       "--b", "0.875", "--beta", "0", "--beta-prime", gap_b, "--seed", "1",
                       "--out-prefix", str(prefix)])
        assert rc == E_OK
        assert capsys.readouterr().err == ""
        assert svds == []
        assert main(["replay", "--manifest", str(prefix) + ".manifest.json"]) == E_OK
        written = Path(str(prefix) + ".check.json").read_bytes()
        assert written == Path(str(prefix) + ".replay.check.json").read_bytes()

    @pytest.mark.parametrize("n, laws, masses", [
        (60, ["--a", "1", "--alpha", "0", "--alpha-prime", "1", "--b", "0.3", "--beta", "0", "--beta-prime", "0.8"],
         [0.3, 0.7, 0.0, 0.0]),
        # 0.375 and 0.125 of one entry round to none: both realized laws have weight 1
        (1, DEMO_FLAGS, [1.0, 0.0, 0.0, 0.0]),
    ])
    def test_weight_zero_or_one_runs_every_check(self, tmp_path, n, laws, masses):
        # a projection of rank 0 or n puts the spectrum on the corners, where every theorem holds
        prefix = tmp_path / "edge"
        assert main(["check", "--n", str(n), *laws, "--seed", "42", "--out-prefix", str(prefix)]) == E_OK
        payload = json.loads(Path(str(prefix) + ".check.json").read_text())
        assert [c["name"] for c in payload["checks"]] == [
            "support", "normality", "re_constant", "im_bound", "sv_bound", "corner_mass"]
        assert payload["corner_masses"]["intersection_mass"] == masses
        assert payload["corner_masses"]["esd_mass"] == pytest.approx(masses, abs=1e-12)

    def test_gap_whose_square_overflows_is_refused_before_any_draw(self, tmp_path, monkeypatch, capsys):
        # the structure identities square X_n - center; a gap of 1e200 used to
        # end in an OverflowError (exit 1) from the Python-float square of a gap
        draws = []
        monkeypatch.setattr(cli, "assemble_model", lambda *a, **k: draws.append(a))
        rc = main(["check", "--n", "16", "--a", "0.625", "--alpha", "0", "--alpha-prime", "1e200",
                   "--b", "0.875", "--beta", "0", "--beta-prime", "0.8e200", "--out-prefix", str(tmp_path / "big")])
        assert rc == E_USAGE
        assert draws == []
        assert "gaps whose square is finite, got a gap of 1e+200" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestPotentialRecover:
    def _potential(self, tmp_path, name="pot", nx=41, ny=41,
                   window=("-0.5", "1.5", "-0.6", "1.4")) -> Path:
        prefix = tmp_path / name
        rc = main(["potential", "--n", "40", *DEMO_FLAGS, "--seed", "21",
                   "--xmin", window[0], "--xmax", window[1],
                   "--ymin", window[2], "--ymax", window[3],
                   "--nx", str(nx), "--ny", str(ny), "--samples", "2",
                   "--out-prefix", str(prefix)])
        assert rc == E_OK
        return prefix

    def test_potential_grid_csv(self, tmp_path):
        prefix = self._potential(tmp_path)
        header, rows = _read_csv(Path(str(prefix) + ".potential.csv"))
        assert header == ["re", "im", "L"]
        assert len(rows) == 41 * 41
        # first row is the (0, 0) node, last is (nx-1, ny-1)
        assert rows[0][:2] == [-0.5, -0.6]
        assert rows[-1][:2] == [1.5, 1.4]
        assert all(math.isfinite(r[2]) for r in rows)
        # the corner eigenvalues at 0 and 1 land on grid nodes here, so the
        # collision shift fires for both corners, once per node for the pooled samples
        manifest = json.loads(Path(str(prefix) + ".manifest.json").read_text())
        perturbed = manifest["perturbed_nodes"]
        assert len(perturbed) == 2
        originals = {complex(*p["original"]) for p in perturbed}
        assert all(min(abs(o), abs(o - 1)) < 1e-13 for o in originals)
        for p in perturbed:
            assert complex(*p["used"]) != complex(*p["original"])

    def test_recover_roundtrip(self, tmp_path):
        prefix = self._potential(tmp_path)
        out = tmp_path / "meas"
        rc = main(["recover", "--in-prefix", str(prefix), "--out-prefix", str(out)])
        assert rc == E_OK
        path = Path(str(out) + ".measure.csv")
        header, rows = _read_csv(path)
        assert header == ["re", "im", "mass"]
        assert len(rows) == 39 * 39
        footer = path.read_text().splitlines()[-1]
        assert footer.startswith("# raw_total=")
        raw_total = float(footer.split("raw_total=")[1].split()[0])
        # n=40 eigenvalues inside a window this coarse still integrate to ~1
        assert raw_total == pytest.approx(1.0, abs=0.1)

    def test_recover_requires_square_cells(self, tmp_path):
        prefix = self._potential(tmp_path, name="rect", nx=41, ny=21)
        rc = main(["recover", "--in-prefix", str(prefix), "--out-prefix",
                   str(tmp_path / "m2")])
        assert rc == E_USAGE

    def test_recover_rejects_wrong_manifest(self, tmp_path):
        prefix = _sample(tmp_path, "esdrun")
        rc = main(["recover", "--in-prefix", str(prefix), "--out-prefix",
                   str(tmp_path / "m3")])
        assert rc == E_USAGE

    def test_recover_rejects_malformed_potential(self, tmp_path, capsys):
        # (params edit, potential file header, first L value, message); every
        # case keeps the 5 x 5 grid's 25-row file, a None param value deletes
        # the param, and a None L value keeps the computed one
        cases = [
            ({"ny": None}, "re,im,L", None, "lacks params"),
            ({}, "re,im,V", None, "no L column"),
            ({"nx": 1, "ny": 25}, "re,im,L", None, "at least 3 nodes per axis"),
            ({"xmax": -0.5}, "re,im,L", None, "nondegenerate"),
            ({"nx": 5.0}, "re,im,L", None, "node counts must be integers"),
            ({"nx": "5"}, "re,im,L", None, "node counts must be integers"),
            ({"xmin": "-0.3"}, "re,im,L", None, "window bounds must be finite numbers"),
            ({"xmin": True}, "re,im,L", None, "window bounds must be finite numbers"),
            ({}, "re,im,L", "nan", "non-finite L value"),
            ({}, "re,im,L", "inf", "non-finite L value"),
            ({}, "re,im,L", "abc", "'abc'"),
        ]
        for k, (edit, header, first_l, message) in enumerate(cases):
            prefix = self._potential(tmp_path, name=f"bad{k}", nx=5, ny=5)
            manifest = Path(str(prefix) + ".manifest.json")
            data = json.loads(manifest.read_text(encoding="utf-8"))
            for key, value in edit.items():
                if value is None:
                    del data["params"][key]
                else:
                    data["params"][key] = value
            manifest.write_text(json.dumps(data), encoding="utf-8")
            grid = Path(str(prefix) + ".potential.csv")
            lines = grid.read_bytes().decode("utf-8").split("\r\n")
            lines[0] = lines[0].replace("re,im,L", header)
            if first_l is not None:
                lines[1] = lines[1].rsplit(",", 1)[0] + "," + first_l
            grid.write_bytes("\r\n".join(lines).encode("utf-8"))
            capsys.readouterr()
            out = tmp_path / f"m{k}"
            assert main(["recover", "--in-prefix", str(prefix), "--out-prefix", str(out)]) == E_USAGE
            assert message in capsys.readouterr().err
            assert not Path(str(out) + ".measure.csv").exists()

    @pytest.mark.parametrize("suffix", [".manifest.json", ".potential.csv"])
    def test_recover_refuses_an_unreadable_input(self, tmp_path, capsys, suffix):
        prefix = self._potential(tmp_path, nx=5, ny=5)
        path = Path(str(prefix) + suffix)
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        out = tmp_path / "meas"
        assert main(["recover", "--in-prefix", str(prefix), "--out-prefix", str(out)]) == E_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and str(path) in err[0]
        assert not Path(str(out) + ".manifest.json").exists()
        assert not Path(str(out) + ".measure.csv").exists()

    def test_recover_rejects_a_short_row(self, tmp_path, capsys):
        prefix = self._potential(tmp_path, name="short", nx=5, ny=5)
        grid = Path(str(prefix) + ".potential.csv")
        lines = grid.read_bytes().split(b"\r\n")
        lines[1] = lines[1].rsplit(b",", 1)[0]
        grid.write_bytes(b"\r\n".join(lines))
        out = tmp_path / "m"
        assert main(["recover", "--in-prefix", str(prefix), "--out-prefix", str(out)]) == E_USAGE
        assert "unreadable L value" in capsys.readouterr().err
        assert not Path(str(out) + ".measure.csv").exists()

    def test_recover_refuses_a_missing_row(self, tmp_path, capsys):
        prefix = self._potential(tmp_path, name="rows", nx=3, ny=3)
        grid = Path(str(prefix) + ".potential.csv")
        lines = grid.read_bytes().split(b"\r\n")
        # the header, 9 rows and the empty tail after the last line ending; drop row 9
        grid.write_bytes(b"\r\n".join(lines[:-2] + lines[-1:]))
        out = tmp_path / "m"
        assert main(["recover", "--in-prefix", str(prefix), "--out-prefix", str(out)]) == E_USAGE
        assert "potential file has 8 rows, expected 9" in capsys.readouterr().err
        assert not Path(str(out) + ".measure.csv").exists()
        assert not Path(str(out) + ".manifest.json").exists()

    def test_potential_rejects_infinite_bound(self, tmp_path, capsys):
        prefix = tmp_path / "inf"
        rc = main(["potential", "--n", "8", *DEMO_FLAGS, "--xmin=-inf", "--xmax", "1.3",
                   "--ymin", "-0.3", "--ymax", "1.3", "--nx", "5", "--ny", "5",
                   "--out-prefix", str(prefix)])
        assert rc == E_USAGE
        assert "window bounds must be finite numbers" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_potential_rejects_overflowing_window(self, tmp_path, capsys):
        # the width 2e308 is past the float range: the step would be inf and the grid nan
        prefix = tmp_path / "huge"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["potential", "--n", "8", *DEMO_FLAGS, "--xmin=-1e308", "--xmax", "1e308",
                       "--ymin=-1", "--ymax", "1", "--nx", "5", "--ny", "5",
                       "--out-prefix", str(prefix)])
        assert rc == E_USAGE
        assert "outside the float range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_potential_takes_no_commuting_flag(self, tmp_path):
        # the grid always pools Haar-rotated draws, so the flag would be recorded and ignored
        prefix = tmp_path / "comm"
        rc = main(["potential", "--n", "16", *DEMO_FLAGS, "--commuting", "--seed", "3",
                   "--xmin", "-0.3", "--xmax", "1.3", "--ymin", "-0.3", "--ymax", "1.3",
                   "--nx", "5", "--ny", "5", "--out-prefix", str(prefix)])
        assert rc == E_USAGE
        assert not Path(str(prefix) + ".potential.csv").exists()
        assert "commuting" not in cli._command_params("potential")

    def test_recover_missing_input(self, tmp_path):
        rc = main(["recover", "--in-prefix", str(tmp_path / "nope"),
                   "--out-prefix", str(tmp_path / "m4")])
        assert rc == E_USAGE


class TestConverge:
    def test_small_schedule(self, tmp_path):
        prefix = tmp_path / "conv"
        rc = main(["converge", *DEMO_FLAGS, "--schedule", "24,48",
                   "--samples", "2", "--seed", "17", "--out-prefix", str(prefix)])
        assert rc == E_OK
        report = json.loads(Path(str(prefix) + ".converge.json").read_text())
        assert report["n_schedule"] == [24, 48]
        assert report["reference_n"] == 48
        assert report["distances"][1] == 0.0
        assert report["distances"][0] > 0.0
        assert max(report["support_devs"]) <= 1e-8
        assert max(report["corner_mass_errors"]) <= 1e-9

    @pytest.mark.parametrize("weights", [["--a", "1", "--b", "0.875"], ["--a", "0.625", "--b", "0"]])
    def test_weight_zero_or_one(self, tmp_path, weights):
        prefix = tmp_path / "edge"
        rc = main(["converge", *weights, "--alpha", "0", "--alpha-prime", "1", "--beta", "0", "--beta-prime", "0.8",
                   "--schedule", "16,32", "--samples", "2", "--seed", "42", "--out-prefix", str(prefix)])
        assert rc == E_OK
        report = json.loads(Path(str(prefix) + ".converge.json").read_text())
        assert max(report["support_devs"]) <= 1e-8
        assert max(report["corner_mass_errors"]) <= 1e-9

    def test_gaps_near_the_float_limit(self, tmp_path, capfd):
        # the support distance squares the gaps in the frame of the larger one;
        # as Python floats the squares of 1e200 raised OverflowError (exit 1)
        prefix = tmp_path / "big"
        rc = main(["converge", "--a", "0.625", "--alpha", "0", "--alpha-prime", "1e200",
                   "--b", "0.875", "--beta", "0", "--beta-prime", "0.8e200",
                   "--schedule", "8,16", "--samples", "1", "--out-prefix", str(prefix)])
        assert rc == E_OK
        assert capfd.readouterr() == ("", "")
        report = json.loads(Path(str(prefix) + ".converge.json").read_text())
        assert 0.0 <= max(report["support_devs"]) <= 1e-8 * 1e200

    def test_manifest_names_the_scipy_and_highs_versions(self, tmp_path):
        # the last bits of the distances follow HiGHS's warm-start path
        prefix = tmp_path / "ver"
        assert main(["converge", *DEMO_FLAGS, "--schedule", "8,16", "--samples", "1",
                     "--out-prefix", str(prefix)]) == E_OK
        manifest = json.loads(Path(str(prefix) + ".manifest.json").read_text())
        highs = f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}.{_core.HIGHS_VERSION_PATCH}"
        assert manifest["versions"] == {"scipy": scipy.__version__, "highs": highs}

    def test_json_holds_exactly_the_report_fields(self, tmp_path):
        prefix = tmp_path / "fields"
        assert main(["converge", *DEMO_FLAGS, "--schedule", "16,32", "--samples", "1", "--seed", "8",
                     "--out-prefix", str(prefix)]) == E_OK
        report = json.loads(Path(str(prefix) + ".converge.json").read_text())
        assert report.keys() == {f.name for f in fields(convergence.ConvergenceReport)}
        assert report["n_schedule"] == [16, 32]
        assert report["reference_n"] == 32
        assert isinstance(report["distances"], list) and len(report["distances"]) == 2

    def test_lp_failure_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(convergence._TransportLP, "_run", lambda lp: HighsModelStatus.kModelError)
        rc = main(["converge", *DEMO_FLAGS, "--schedule", "16,32",
                   "--samples", "2", "--seed", "42", "--out-prefix", str(tmp_path / "conv")])
        assert rc == E_NUMERIC
        assert "numeric failure: transport LP failed (status 2)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_resolution_is_usage_error(self, tmp_path, capsys):
        rc = main(["converge", *DEMO_FLAGS, "--schedule", "16,32", "--samples", "1",
                   "--resolution", "nan", "--out-prefix", str(tmp_path / "conv")])
        assert rc == E_USAGE
        assert "grid_resolution must be finite and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("resolution", ["1e-19", "1e-300"])
    def test_resolution_overflowing_bin_indices_is_usage_error(self, tmp_path, capsys, resolution):
        # eigenvalues near 1 over 1e-19 exceed 2**63; the bins used to wrap
        # and the run reported a distance with exit 0
        rc = main(["converge", *DEMO_FLAGS, "--schedule", "4,8", "--samples", "1",
                   "--resolution", resolution, "--out-prefix", str(tmp_path / "conv")])
        assert rc == E_USAGE
        assert "bin indices overflow int64" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_samples_below_one_is_usage_error(self, tmp_path, capsys, samples):
        rc = main(["converge", *DEMO_FLAGS, "--schedule", "16,32", "--samples", samples,
                   "--out-prefix", str(tmp_path / "conv")])
        assert rc == E_USAGE
        assert f"samples must be >= 1, got {samples}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_schedule_is_usage_error(self, tmp_path):
        rc = main(["converge", *DEMO_FLAGS, "--schedule", "48,24",
                   "--out-prefix", str(tmp_path / "x")])
        assert rc == E_USAGE

    def test_non_integer_schedule_token_is_usage_error(self, tmp_path, capsys):
        rc = main(["converge", *DEMO_FLAGS, "--schedule", "16,x", "--out-prefix", str(tmp_path / "x")])
        assert rc == E_USAGE
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_nonpositive_dimension_is_refused_before_any_draw(self, tmp_path, monkeypatch, capsys):
        draws = []
        kernel = model.two_projection_eigenvalues
        monkeypatch.setattr(model, "two_projection_eigenvalues", lambda spec: draws.append(spec.n) or kernel(spec))
        rc = main(["converge", *DEMO_FLAGS, "--schedule=0,400", "--reference-n", "800",
                   "--samples", "10", "--out-prefix", str(tmp_path / "conv")])
        assert rc == E_USAGE
        assert draws == []
        assert "dimension must be a positive integer, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestReplay:
    def test_replay_sample_bytes(self, tmp_path):
        prefix = _sample(tmp_path, "orig", seed=42)
        rc = main(["replay", "--manifest", str(prefix) + ".manifest.json"])
        assert rc == E_OK
        replay = Path(str(prefix) + ".replay.esd.csv")
        assert replay.read_bytes() == Path(str(prefix) + ".esd.csv").read_bytes()

    def test_replay_to_explicit_prefix(self, tmp_path):
        prefix = _sample(tmp_path, "orig2", seed=7)
        out = tmp_path / "copy"
        rc = main(["replay", "--manifest", str(prefix) + ".manifest.json",
                   "--out-prefix", str(out)])
        assert rc == E_OK
        assert Path(str(out) + ".esd.csv").read_bytes() == Path(
            str(prefix) + ".esd.csv"
        ).read_bytes()

    def test_replay_check_and_converge(self, tmp_path, capsys):
        chk = tmp_path / "chk"
        assert main(["check", "--n", "40", *DEMO_FLAGS, "--z-grid", "5",
                     "--out-prefix", str(chk)]) == E_OK
        assert main(["replay", "--manifest", str(chk) + ".manifest.json"]) == E_OK
        a = json.loads(Path(str(chk) + ".check.json").read_text())
        b = json.loads(Path(str(chk) + ".replay.check.json").read_text())
        assert a == b

        conv = tmp_path / "conv"
        assert main(["converge", *DEMO_FLAGS, "--schedule", "16,32",
                     "--samples", "1", "--out-prefix", str(conv)]) == E_OK
        assert main(["replay", "--manifest", str(conv) + ".manifest.json"]) == E_OK
        assert Path(str(conv) + ".converge.json").read_bytes() == Path(
            str(conv) + ".replay.converge.json"
        ).read_bytes()

    def test_replay_unknown_manifest(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "explode", "params": {}, "tool_version": __version__}))
        assert main(["replay", "--manifest", str(bad)]) == E_USAGE
        assert main(["replay", "--manifest", str(tmp_path / "missing.json")]) == E_USAGE

    def test_replay_refuses_non_json_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.manifest.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["replay", "--manifest", str(bad)]) == E_USAGE
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    def test_replay_refuses_an_unreadable_manifest(self, tmp_path, capsys):
        # a directory: root reads any file, so permissions cannot make one unreadable
        folder = tmp_path / "dir.manifest.json"
        folder.mkdir()
        assert main(["replay", "--manifest", str(folder)]) == E_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: manifest ") and str(folder) in err[0]
        assert list(tmp_path.rglob("*")) == [folder]

    def test_replay_refuses_a_replay_manifest(self, tmp_path, capsys):
        # the parser knows `replay`, so a manifest naming it would replay itself forever
        loop = tmp_path / "loop.manifest.json"
        loop.write_text(json.dumps({
            "command": "replay", "params": {"manifest": str(loop), "out_prefix": None},
            "tool_version": __version__,
        }), encoding="utf-8")
        assert main(["replay", "--manifest", str(loop)]) == E_USAGE
        assert "unknown command 'replay'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [loop]

    def test_replay_manifest_without_command(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"params": {}, "tool_version": __version__}))
        assert main(["replay", "--manifest", str(bad)]) == E_USAGE
        assert "unknown command None" in capsys.readouterr().err

    def test_replay_rejects_params_the_command_does_not_take(self, tmp_path, capsys):
        short = tmp_path / "short.json"
        short.write_text(json.dumps({
            "command": "sample", "params": {"n": 4, "out_prefix": str(tmp_path / "x")},
            "tool_version": __version__,
        }))
        assert main(["replay", "--manifest", str(short)]) == E_USAGE
        assert "missing ['a', 'alpha'" in capsys.readouterr().err
        prefix = _sample(tmp_path, "extra", n=8)
        manifest = Path(str(prefix) + ".manifest.json")
        data = json.loads(manifest.read_text(encoding="utf-8"))
        data["params"]["command"] = "sample"
        manifest.write_text(json.dumps(data), encoding="utf-8")
        assert main(["replay", "--manifest", str(manifest)]) == E_USAGE
        assert "unexpected ['command']" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "extra.esd.csv", "extra.manifest.json", "short.json",
        ]

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda m: {**m, "params": {**m["params"], "z_grid": "4"}}, "z_grid='4'", id="z_grid-str"),
        pytest.param(lambda m: {**m, "params": {**m["params"], "a": "0.625"}}, "a='0.625'", id="a-str"),
        # a flag that `check` no longer takes
        pytest.param(lambda m: {**m, "params": {**m["params"], "perturb": 0.0}}, "unexpected ['perturb']",
                     id="perturb-retired"),
        pytest.param(lambda m: {**m, "params": {**m["params"], "alpha": None}}, "alpha=None", id="required-null"),
        pytest.param(lambda m: {**m, "command": ["check"]}, "unknown command ['check']", id="command-list"),
        pytest.param(lambda m: [], "holds a JSON list", id="list-manifest"),
        pytest.param(lambda m: {k: v for k, v in m.items() if k != "params"}, "manifest has no params",
                     id="params-missing"),
    ])
    def test_replay_refuses_edited_manifest(self, tmp_path, capsys, edit, message):
        chk = tmp_path / "chk"
        assert main(["check", "--n", "24", *DEMO_FLAGS, "--z-grid", "4",
                     "--out-prefix", str(chk)]) == E_OK
        manifest = Path(str(chk) + ".manifest.json")
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))), encoding="utf-8")
        assert main(["replay", "--manifest", str(manifest)]) == E_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and message in err
        assert not list(tmp_path.glob("*.replay.*"))

    @pytest.mark.parametrize("manifest", [
        [],
        {"command": "potential", "params": ["nx", "ny", "xmin", "xmax", "ymin", "ymax"]},
    ])
    def test_recover_refuses_non_object_manifest(self, tmp_path, capsys, manifest):
        (tmp_path / "pot.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        rc = main(["recover", "--in-prefix", str(tmp_path / "pot"), "--out-prefix", str(tmp_path / "meas")])
        assert rc == E_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.measure.csv"))

    def test_handler_key_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        def broken(args):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "cmd_sample", broken)
        with pytest.raises(KeyError):
            main(["sample", "--n", "4", *DEMO_FLAGS, "--out-prefix", str(tmp_path / "k")])

    def test_handler_value_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        # only UsageError means bad input; a bare ValueError is a bug and must surface
        def broken(args):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "cmd_sample", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["sample", "--n", "4", *DEMO_FLAGS, "--out-prefix", str(tmp_path / "v")])
        assert list(tmp_path.iterdir()) == []

    def test_manifest_records_blas_threads_and_replay_ignores_them(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        prefix = _sample(tmp_path, "blas", seed=3)
        manifest = Path(str(prefix) + ".manifest.json")
        data = json.loads(manifest.read_text(encoding="utf-8"))
        assert data["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
        data["blas_threads"] = {"OPENBLAS_NUM_THREADS": "7", "OMP_NUM_THREADS": "7"}
        manifest.write_text(json.dumps(data), encoding="utf-8")
        assert main(["replay", "--manifest", str(manifest)]) == E_OK
        assert Path(str(prefix) + ".replay.esd.csv").read_bytes() == Path(
            str(prefix) + ".esd.csv"
        ).read_bytes()

    def test_replay_refuses_other_tool_version(self, tmp_path, capsys):
        prefix = _sample(tmp_path, "old", seed=9)
        manifest = Path(str(prefix) + ".manifest.json")
        data = json.loads(manifest.read_text(encoding="utf-8"))
        data["tool_version"] = "0.0.0"
        manifest.write_text(json.dumps(data), encoding="utf-8")
        assert main(["replay", "--manifest", str(manifest)]) == E_USAGE
        assert "0.0.0" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.replay.*"))


class TestManifests:
    KEYS = {"command", "params", "realized_laws", "tool_version", "timings", "blas_threads"}

    def test_manifests_share_their_keys_and_results_keep_every_field(self, tmp_path):
        # the window of TestPotentialRecover puts two corner eigenvalues on grid nodes
        window = ["--xmin", "-0.5", "--xmax", "1.5", "--ymin", "-0.6", "--ymax", "1.4", "--nx", "41", "--ny", "41"]
        runs = {
            "sample": ["sample", "--n", "8", *DEMO_FLAGS],
            "check": ["check", "--n", "8", *DEMO_FLAGS, "--z-grid", "2"],
            "potential": ["potential", "--n", "40", *DEMO_FLAGS, "--seed", "21", "--samples", "2", *window],
            "recover": ["recover", "--in-prefix", str(tmp_path / "potential")],
            "converge": ["converge", *DEMO_FLAGS, "--schedule", "8,16", "--samples", "1"],
        }
        stage_timings = {"sample": {"sample_s"}, "potential": {"grid_s"}}
        law_fields = {f.name for f in fields(model.TwoAtomLaw)}
        for command, argv in runs.items():
            assert main([*argv, "--out-prefix", str(tmp_path / command)]) == E_OK
            manifest = json.loads(Path(str(tmp_path / command) + ".manifest.json").read_text())
            extra = {"potential": {"perturbed_nodes"}, "converge": {"versions"}}.get(command, set())
            assert manifest.keys() == self.KEYS | extra
            assert manifest["command"] == command
            assert manifest["timings"].keys() == {"total_s"} | stage_timings.get(command, set())
            laws = manifest["realized_laws"]
            assert laws is None if command == "recover" else laws["p"].keys() == laws["q"].keys() == law_fields

        payload = json.loads(Path(str(tmp_path / "check") + ".check.json").read_text())
        assert payload["structure"].keys() == {f.name for f in fields(spectra.StructureReport)}
        assert payload["corner_masses"].keys() == {f.name for f in fields(convergence.CornerAtomMasses)}
        assert all(len(c) == 2 for c in payload["corner_masses"]["corners"])
        nodes = json.loads(Path(str(tmp_path / "potential") + ".manifest.json").read_text())["perturbed_nodes"]
        assert nodes and all(node.keys() == {f.name for f in fields(hermitization.PerturbedNode)} for node in nodes)


    def test_a_result_of_unknown_type_is_refused_before_writing(self, tmp_path):
        # the encoder knows dataclasses and complex numbers; anything else is a programming error
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            cli._write_json(tmp_path / "x.json", {"x": {1}})
        assert list(tmp_path.iterdir()) == []


class TestThreadsEnv:
    def test_potential_bytes_independent_of_threads(self, tmp_path, monkeypatch):
        # projsum reads no thread-count variable of its own: a stray one moves no byte
        def run(name: str) -> bytes:
            prefix = tmp_path / name
            rc = main(["potential", "--n", "30", *DEMO_FLAGS, "--seed", "8",
                       "--xmin", "-0.5", "--xmax", "1.5",
                       "--ymin", "-0.5", "--ymax", "1.5",
                       "--nx", "33", "--ny", "33", "--samples", "1",
                       "--out-prefix", str(prefix)])
            assert rc == E_OK
            return Path(str(prefix) + ".potential.csv").read_bytes()

        monkeypatch.delenv("PROJSUM_THREADS", raising=False)
        plain = run("plain")
        for stray in ("0", "soon"):
            monkeypatch.setenv("PROJSUM_THREADS", stray)
            assert run(stray) == plain, stray


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == E_USAGE

    def test_missing_required_flag(self):
        assert main(["sample", "--n", "10"]) == E_USAGE

    def test_invalid_dimension(self, tmp_path):
        assert main(["sample", "--n", "0", *DEMO_FLAGS,
                     "--out-prefix", str(tmp_path / "z")]) == E_USAGE

    def test_degenerate_law(self, tmp_path, capsys):
        # coincident atom locations are the one law the geometry refuses
        for command, size in (("check", ["--n", "10"]), ("converge", ["--schedule", "8,16"])):
            rc = main([command, *size,
                       "--a", "0.5", "--alpha", "0.3", "--alpha-prime", "0.3",
                       "--b", "0.875", "--beta", "0", "--beta-prime", "0.8",
                       "--out-prefix", str(tmp_path / "z")])
            assert rc == E_USAGE
            assert "each law needs two distinct atom locations" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    def test_overflowing_atom_gap(self, tmp_path, capsys):
        # finite locations whose gap is inf would reach the library as non-finite eigenvalues
        rc = main(["potential", "--n", "8", "--a", "0.625", "--alpha=-1e308", "--alpha-prime", "1e308",
                   "--b", "0.875", "--beta", "0", "--beta-prime", "0.8", "--xmin=-1", "--xmax", "1",
                   "--ymin=-1", "--ymax", "1", "--nx", "5", "--ny", "5", "--out-prefix", str(tmp_path / "z")])
        assert rc == E_USAGE
        assert "atom gap must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == E_OK
        assert "projsum" in capsys.readouterr().out
