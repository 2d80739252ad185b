import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from calibench import catalog as cat
from calibench import cli, clifford, forms, grassmann, octonion
from calibench.catalog import catalog
from calibench.cli import (
    SCHEMA_VERSION,
    _default_seed,
    _fmt,
    export_form,
    main,
    run_suite,
)


@pytest.fixture(scope="module")
def exact_report():
    return run_suite("exact", seed=0)


FAKE_PASS = ("toy_pass", "a toy check that always passes", lambda seed: ("1", "1", 0.0, True))
FAKE_FAIL = ("toy_fail", "a toy check that always fails", lambda seed: ("2", "1", 0.0, False))


def _boom(seed):
    raise RuntimeError("deliberate breakage")


FAKE_BOOM = ("toy_boom", "a toy check that raises", _boom)

# what `calibench verify --suite all` prints, in order: check id and claim
SUITE_ALL = (
    ("octonion_table", "multiplication table equals the recursive pair-doubling oracle"),
    ("octonion_basis_identities", "conjugation, norm and pairing-adjoint identities hold on the basis"),
    ("octonion_orthogonal_swap", "orthogonal swap identities hold on all orthogonal basis triples"),
    ("octonion_doubling_rules", "quaternion-pair product rules hold for distinct imaginary units"),
    ("octonion_chain", "right-folded basis chain gives 1 and the two-step conjugation chain gives -i"),
    ("octonion_norm_composition", "product norm factors exactly over 1000 seeded rational pairs"),
    ("clifford_generators", "all sixteen generators square to -id and pairwise anticommute"),
    ("clifford_volume8", "the ordered 8-dim generator product is +id on one summand, -id on the other"),
    ("clifford_roundtrip", "form extraction inverts the blade action on 50 seeded blades"),
    ("spinor_split", "the chirality index sets split 256 as 128 + 128"),
    ("phi_routes", "the two assembly routes of the grade-8 calibration agree"),
    ("phi_squared", "the calibration wedge-squares to 294 times the volume form"),
    ("phi_norm", "the calibration has squared norm 294"),
    ("phi_counts", "term counts by component are 128/70/48/48 with unit coefficients"),
    ("phi_self_dual", "the calibration equals its Hodge dual"),
    ("phi_phase_family", "two exact phase rotations keep the wedge square at 294 vol"),
    ("cayley_routes", "the three constructions of the 4-fold cross form agree"),
    ("cayley_square", "the 4-fold cross form has 14 unit terms and wedge square 14 vol"),
    ("standard_norms", "Kaehler powers and holomorphic volume parts have the expected norms and duals"),
    ("spinor_norm_tables", "the three spinor-product grade-norm tables match"),
    ("spinor_closed_forms", "grade-4 and grade-8 spinor parts equal their closed forms"),
    ("spinor_pullback", "an axis-flip pullback carries the grade-8 spinor part onto the calibration"),
    ("spinor_duality", "spinor grade parts pair under the Hodge star with signs by grade mod 4"),
    ("federer_routes", "both exact diagonal-product routes give 147/128; planar sanity 1/2"),
    ("planes_case1", "100 family-1 samples calibrate to 1 within 1e-9"),
    ("planes_case2", "100 family-2 samples calibrate to 1 within 1e-9"),
    ("planes_case3", "100 family-3 samples calibrate to 1 within 1e-9"),
    ("planes_case4", "100 family-4 samples calibrate to 1 within 1e-9"),
    ("case4_rows", "family-4 bases satisfy the symplectic row condition within 1e-9"),
    ("case4_perturb", "perturbing the family-4 common angle drops the value below 1 - 1e-6"),
    ("minor_identities", "split-row minor identities hold over 100 seeded unitaries"),
    ("closed_form", "evaluation matches the trigonometric closed form on 50 seeded normal forms"),
    ("kaehler_roundtrip", "angle recovery returns the sine multiset on 25 seeded normal forms"),
    ("gradient_check", "analytic frame gradient matches central differences on 20 seeded pairs"),
    ("spinor_kernel", "the spinor kernel of the search matches evaluation and projected gradient on 20 seeded frames"),
    ("spinor_value_bound", "the full spinor product stays below sqrt(2) on random even-grade frames"),
    ("comass_blade", "search on a unit coordinate blade returns 1"),
    ("comass_phi", "reduced search on the calibration attains 1 with ratio at least 294"),
    ("comass_never_exceed", "reduced searches on declared calibrations never exceed 1 + 1e-9"),
    ("federer_float", "float shuffle re-evaluation of the diagonal product matches 147/128"),
)


def test_exact_suite_passes(exact_report):
    assert exact_report.passed
    assert len(exact_report.checks) == 24
    ids = [c.check_id for c in exact_report.checks]
    assert len(set(ids)) == len(ids)
    for c in exact_report.checks:
        assert c.status == "pass"
        assert c.claim and c.measured and c.expected


def test_report_json_shape(exact_report):
    doc = json.loads(exact_report.to_json())
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["suite"] == "exact"
    assert doc["seed"] == 0
    assert doc["overall"] == "pass"
    assert len(doc["checks"]) == 24
    assert set(doc["checks"][0]) == {"check_id", "claim", "status", "measured", "expected", "tolerance"}
    # serialization is a pure function of the report
    assert exact_report.to_json() == exact_report.to_json()


def test_suite_ids_and_claims_are_pinned(monkeypatch):
    for table in ("_EXACT_CHECKS", "_NUMERIC_CHECKS"):
        stubbed = tuple((cid, claim, FAKE_PASS[2]) for cid, claim, _ in getattr(cli, table))
        monkeypatch.setattr(cli, table, stubbed)
    rep = run_suite("all", seed=0)
    assert [(c.check_id, c.claim) for c in rep.checks] == list(SUITE_ALL)


def test_check_bodies_take_only_the_seed():
    # verify and the acceptance gate share these bodies; only the two search
    # bodies take sizes, which the gate sets to its acceptance spec
    sizes = {"comass_phi": ("restarts", "iters"),
             "comass_never_exceed": ("names", "restarts", "iters")}
    params = {cid: tuple(inspect.signature(fn).parameters)
              for cid, _claim, fn in cli._EXACT_CHECKS + cli._NUMERIC_CHECKS}
    assert params == {cid: ("seed", *sizes.get(cid, ())) for cid in params}


def test_selection_is_validated():
    with pytest.raises(ValueError):
        run_suite("fast", 0)


def test_failing_check_flips_overall(monkeypatch):
    monkeypatch.setattr(cli, "_EXACT_CHECKS", (FAKE_PASS, FAKE_FAIL))
    rep = run_suite("exact", seed=0)
    assert not rep.passed
    assert [c.status for c in rep.checks] == ["pass", "fail"]


def test_exception_inside_check_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(cli, "_EXACT_CHECKS", (FAKE_BOOM,))
    rep = run_suite("exact", seed=0)
    assert not rep.passed
    row = rep.checks[0]
    assert row.status == "fail"
    assert row.measured.startswith("error:")
    assert "deliberate breakage" in row.measured


def test_verify_verb_prints_and_writes(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_EXACT_CHECKS", (FAKE_PASS,))
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "exact", "--seed", "3", "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "[PASS] toy_pass:" in text
    assert re.search(r"^\[PASS\] toy_pass: .*\(measured 1; expected 1\) \d+\.\d\ds$", text, re.M)
    assert "OVERALL PASS (1 checks" in text
    assert "seed 3" in text
    doc = json.loads(out.read_text())
    assert doc["overall"] == "pass" and doc["seed"] == 3
    assert "seconds" not in doc["checks"][0]


def test_verify_verb_unwritable_json_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_EXACT_CHECKS", (FAKE_PASS,))
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", "--suite", "exact", "--json", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err


def test_verify_verb_fail_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_EXACT_CHECKS", (FAKE_FAIL,))
    assert main(["verify", "--suite", "exact"]) == 1
    assert "OVERALL FAIL" in capsys.readouterr().out


def test_default_seed_reads_environment(monkeypatch, capsys):
    monkeypatch.delenv("CALIBENCH_SEED", raising=False)
    assert _default_seed() == 0
    monkeypatch.setenv("CALIBENCH_SEED", "17")
    assert _default_seed() == 17
    for bad in ("seven", "-1"):
        monkeypatch.setenv("CALIBENCH_SEED", bad)
        with pytest.raises(SystemExit) as exc:
            _default_seed()
        assert exc.value.code == 2
        assert "CALIBENCH_SEED" in capsys.readouterr().err


def test_environment_seed_flows_into_report(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_EXACT_CHECKS", (FAKE_PASS,))
    monkeypatch.setenv("CALIBENCH_SEED", "9")
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "exact", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 9


@pytest.mark.parametrize("case", ["2", "3"])
def test_planes_verb_output(case, capsys):
    assert main(["planes", "--case", case, "--count", "2", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["case"] == int(case) and doc["seed"] == 1
    assert len(doc["planes"]) == 2
    for p in doc["planes"]:
        assert abs(p["value"] - 1.0) <= doc["plane_tol"]
        assert len(p["frame"]) == 16
    assert main(["planes", "--case", case, "--count", "2", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first


def test_planes_verb_accepts_a_zero_count(capsys):
    assert main(["planes", "--case", "1", "--count", "0", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["planes"] == []


# SHA-256 of `planes --case c --count 10 --seed 3` stdout: pins the family-1
# and family-4 spec matrices and the family-3 basis metadata, which no verify
# report prints
PLANES_DIGESTS = {
    1: "15801da9d9d98ea56d997e0f323dc7a57281d22df569493d27da5cd789f7cf6b",
    2: "bc0efae3af148d026648bb5e7362912daf9c3b6f0a0093ebf9dabda218eccbec",
    3: "d58e30126db8e3fe31f9f841c07857ca5c3b61ea8e704cf9a332f7711d585368",
    4: "2d5165761cd221dc96aee1fb19b3539af767bcc934d9b8e05d80e42cad090c82",
}


@pytest.mark.parametrize("case", sorted(PLANES_DIGESTS))
def test_planes_verb_output_is_pinned(case, capsys):
    assert main(["planes", "--case", str(case), "--count", "10", "--seed", "3"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PLANES_DIGESTS[case]


def test_comass_verb(capsys):
    code = main(["comass", "--form", "omega1", "--restarts", "4", "--iters", "100", "--seed", "0"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["form_name"] == "omega1"
    assert abs(doc["best_value"] - 1.0) < 1e-6
    assert len(doc["restart_records"]) == 4
    stops = re.search(r"stops: tol (\d+), line_search (\d+), cap (\d+)", captured.err)
    assert sum(map(int, stops.groups())) == 4
    assert doc["kernel"] == "det" and " on the det kernel; " in captured.err
    assert main(["comass", "--form", "phi", "--restarts", "1", "--iters", "0"]) == 0
    assert " on the clifford kernel; " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["comass", "--form", "omega1", "--restarts", "0"],
    ["comass", "--form", "omega1", "--restarts", "1", "--iters", "-5"],
    ["comass", "--form", "omega1", "--restarts", "1", "--iters", "1", "--tol", "nan"],
    ["comass", "--form", "omega1", "--restarts", "1", "--iters", "1", "--seed", "-1"],
    ["planes", "--case", "1", "--count", "-3"],
    ["comass", "--form", "omega1", "--restarts", "1", "--iters", "1", "--tol", "-1"],
])
def test_bad_numbers_exit_2_with_a_message(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_comass_phi_needs_a_random_restart_at_1():
    # every restart starts on a random frame; without steps none reaches 1,
    # so the check must fail
    measured, _expected, _tol, ok = cli._chk_comass_phi(0, restarts=4, iters=0)
    assert not ok
    assert measured.startswith("best 0.")


def test_comass_blade_needs_a_random_restart_at_1(monkeypatch):
    # every restart starts on a random frame; with no steps taken none
    # reaches 1, so the check must fail
    search = grassmann.comass_search
    monkeypatch.setattr(grassmann, "comass_search", lambda form, **kw: search(form, **{**kw, "iters": 0}))
    measured, _expected, _tol, ok = cli._chk_comass_blade(0)
    assert measured.startswith("0.") and not ok


@pytest.mark.parametrize("breakage", ["pair_with_s_alone", "drop_volume", "select_det"])
def test_spinor_kernel_check_fails_on_a_broken_kernel(monkeypatch, breakage):
    kernel = grassmann.search_kernel(cat.build_phi())
    if breakage == "pair_with_s_alone":
        monkeypatch.setattr(kernel, "w", kernel.s)
    elif breakage == "drop_volume":
        monkeypatch.setattr(clifford, "_VOL8", 1.0)
    else:
        monkeypatch.setattr(grassmann, "search_kernel", forms.DetKernel.of)
    measured, _expected, _tol, ok = cli._chk_spinor_kernel(0)
    assert not ok, measured


def test_broken_route_fails_its_check(monkeypatch):
    # one flipped sign in the frozen Cayley expansion must surface as a
    # failed row in both checks that compare against it
    monkeypatch.setitem(cat.CAYLEY_TERMS, (1, 2, 3, 4), -1)
    cat.build_spinor_family.cache_clear()
    cat.catalog.cache_clear()
    bodies = {cid: fn for cid, _claim, fn in cli._EXACT_CHECKS}
    try:
        for check_id, message in (("cayley_routes", "cayley route chain_alt disagrees"),
                                  ("spinor_closed_forms", "spinor family check psi_4 failed")):
            measured, _expected, _tol, ok = bodies[check_id](0)
            assert not ok
            assert message in measured
    finally:
        cat.build_spinor_family.cache_clear()
        cat.catalog.cache_clear()


def test_cached_phi_still_fails_its_route_check(monkeypatch):
    # build_phi is cached per process, but a disagreement raises, so it is
    # never cached: the check fails on every run while the input is broken
    assert cat.build_phi() is cat.build_phi()
    comps, parts = cat.phi_components()
    monkeypatch.setattr(cat, "phi_components", lambda pairing, phase: ((*comps[:3], -comps[3]), parts))
    cat.build_phi.cache_clear()
    bodies = {cid: fn for cid, _claim, fn in cli._EXACT_CHECKS}
    try:
        for _ in range(2):
            measured, _expected, _tol, ok = bodies["phi_routes"](0)
            assert not ok
            assert "the two expressions for the grade-8 form disagree" in measured
    finally:
        cat.build_phi.cache_clear()


def test_federer_verb(capsys):
    # the residual is stable: federer_eval's float total is hex-pinned
    assert main(["federer"]) == 0
    assert capsys.readouterr().out == (
        "wedge route      147/128\n"
        "shuffle route    147/128\n"
        "float residual   2.220e-16\n"
        "planar sanity    1/2\n"
    )


def test_federer_verb_reports_route_disagreement(monkeypatch, capsys):
    # a shuffle sum of 2^(n/2) makes the shuffle route read 1
    monkeypatch.setattr(grassmann, "_shuffle_sum", lambda n, coeff, blades: 2 ** (n // 2))
    assert main(["federer"]) == 1
    err = capsys.readouterr().err
    assert "wedge route 147/128 != shuffle route 1" in err
    assert "Traceback" not in err


def test_federer_verb_fails_on_a_float_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(grassmann, "federer_eval", lambda form: 0.0)
    assert main(["federer"]) == 1


def test_federer_float_check_fails_on_a_float_mismatch(monkeypatch):
    monkeypatch.setattr(grassmann, "federer_eval", lambda form: 0.0)
    measured, _expected, _tol, ok = cli._chk_federer_float(0)
    assert not ok, measured


def test_norm_composition_check_fails_on_a_flipped_table_sign(monkeypatch):
    table = [list(row) for row in octonion.MULT_TABLE]
    s, c = table[1][2]
    table[1][2] = (-s, c)
    monkeypatch.setattr(octonion, "MULT_TABLE", tuple(tuple(row) for row in table))
    measured, _expected, _tol, ok = cli._chk_octonion_norm_composition(0)
    assert not ok and int(measured) > 0, measured


def test_roundtrip_check_fails_on_a_perturbed_extraction(monkeypatch):
    extract = clifford.endo_to_form

    def without_reversion_sign(M):
        # blades of size 2 or 3 mod 4 come back negated
        f = extract(M)
        return -f if f.grade() % 4 in (2, 3) else f

    monkeypatch.setattr(clifford, "endo_to_form", without_reversion_sign)
    measured, _expected, _tol, ok = cli._chk_clifford_roundtrip(0)
    assert not ok and int(measured) > 0, measured


@pytest.mark.parametrize("seed", range(3))
def test_exact_draws_cover_every_denominator_and_blade_size(seed):
    pairs = list(cli._rational_pairs(seed))
    assert len(pairs) == 1000 and all(len(cx) == len(cy) == 8 for cx, cy in pairs)
    assert {c.denominator for cx, cy in pairs for c in cx + cy} == set(range(1, 10))
    blades = list(cli._roundtrip_blades(seed))
    assert len(blades) == 50 and {len(b) for b in blades} == set(range(17))
    assert all(list(b) == sorted(set(b)) and set(b) <= set(range(1, 17)) for b in blades)


def _python(*args, timeout):
    """Run a fresh interpreter that imports this checkout's calibench."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=timeout,
    )


def test_cli_import_leaves_scipy_out():
    proc = _python("-c", "import sys, calibench.cli; print('scipy' in sys.modules)", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_all_reports_are_byte_identical_across_processes(tmp_path):
    # the whole suite at its own sizes, twice, each in a fresh interpreter;
    # the SHA-256 pins the seed-0 report, so a change that moves any reported
    # number or byte fails here
    paths = [tmp_path / f"report{i}.json" for i in range(2)]
    for path in paths:
        proc = _python("-m", "calibench.cli", "verify", "--suite", "all", "--seed", "0", "--json", str(path),
                       timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(paths[0].read_text())
    assert len(doc["checks"]) == 40
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    digest = hashlib.sha256(paths[0].read_bytes()).hexdigest()
    assert digest == "48987cbb88a6b8f61cec0f083105117a08069b3dbb91afc44f526b073e2f7059"


# SHA-256 of run_suite("numeric", seed).to_json(): the plane sampler feeds
# eight numeric checks, and other seeds reach other draws
NUMERIC_REPORT_DIGESTS = {
    1: "135deafdad8fc0fddeca8d898f2d2114e3af04d7da38fff88b2de2fbab49718e",
    2: "20cbcd1012a1e35cf1e61a8292629e9d98b00391c94ed38acd9e8f21f453628d",
}


@pytest.mark.parametrize("seed", sorted(NUMERIC_REPORT_DIGESTS))
def test_numeric_reports_are_pinned_beyond_seed_0(seed):
    report = run_suite("numeric", seed).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == NUMERIC_REPORT_DIGESTS[seed]


# SHA-256 of run_suite("exact", seed).to_json(): the seeded exact checks
# (octonion norms, Clifford round trip) draw other inputs at other seeds
EXACT_REPORT_DIGESTS = {
    1: "d10b3c22bc591fa54d6271b6ea43462517316ad72d444785e3dd471edf2391df",
    2: "49493b88657ca796b51ffbe76350af9fbe0dd9ed6885709d3cf81bcc3092e99d",
}


@pytest.mark.parametrize("seed", sorted(EXACT_REPORT_DIGESTS))
def test_exact_reports_are_pinned_beyond_seed_0(seed):
    report = run_suite("exact", seed).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == EXACT_REPORT_DIGESTS[seed]


def test_comass_unknown_form(capsys):
    assert main(["comass", "--form", "nope"]) == 2
    assert "unknown form" in capsys.readouterr().err


def test_comass_verb_reports_line_search_stops(capsys):
    argv = ["comass", "--form", "omega2", "--restarts", "4", "--iters", "500", "--tol", "0", "--seed", "0"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert int(re.search(r"line_search (\d+)", captured.err).group(1)) >= 1
    assert json.loads(captured.out)["best_value"] <= 1 + cli.PLANE_TOL


def test_comass_verb_fails_above_the_declared_comass(monkeypatch, capsys):
    entries = dict(catalog())
    entries["omega1"] = cat.CatalogEntry("omega1", entries["omega1"].form, Fraction(1, 2))
    monkeypatch.setattr(cat, "catalog", lambda: entries)
    assert main(["comass", "--form", "omega1", "--restarts", "2", "--iters", "50", "--seed", "0"]) == 1
    assert "exceeds declared comass 1/2" in capsys.readouterr().err


def test_export_import_roundtrip(tmp_path):
    path = tmp_path / "cayley.json"
    export_form("cayley", str(path))
    assert forms.load_form(path.read_text()) == catalog()["cayley"].form
    # exporting again writes identical bytes
    again = tmp_path / "again.json"
    export_form("cayley", str(again))
    assert again.read_bytes() == path.read_bytes()


def test_export_verb_error_paths(tmp_path, capsys):
    assert main(["export", "--form", "nope", "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("unknown form")
    assert main(["export", "--form", "cayley", "--out", str(tmp_path / "no_dir" / "x.json")]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_export_verb_happy_path(tmp_path, capsys):
    out = tmp_path / "omega1.json"
    assert main(["export", "--form", "omega1", "--out", str(out)]) == 0
    assert forms.load_form(out.read_text()) == catalog()["omega1"].form


def test_tables_verb(capsys):
    assert main(["tables"]) == 0
    text = capsys.readouterr().out
    assert "grade" in text and "psi_prime" in text
    assert " 294" in text
    assert "12870" in text
    assert "[classical]" in text
    assert "[computed_exact]" in text
    assert "[computed_search]" in text
    # one row per even grade
    assert len([l for l in text.splitlines() if l.strip() and l.split()[0].isdigit()]) == 9


def test_tables_ratio_is_computed(monkeypatch, capsys):
    # the exact ratio line reads the wedge square of whatever build_phi
    # gives; the spinor family is built first, so it still compares with the
    # real build_phi
    phi = cat.build_phi()
    cat.build_spinor_family()
    monkeypatch.setattr(cat, "build_phi", lambda: phi * 2)
    assert main(["tables"]) == 0
    assert "  ratio_8 >= 1176, from the grade-8 calibration on R^16  [computed_exact]\n" in capsys.readouterr().out


def test_tables_search_ratio_is_the_search_result(capsys):
    # the computed_search line is fixed text; the seed-0 comass_phi search
    # must attain the ratio it prints
    assert main(["tables"]) == 0
    printed = re.search(r"search-attained ratio for the calibration: (\d+)  \[computed_search\]",
                        capsys.readouterr().out)
    rep = grassmann.comass_search(cat.build_phi(), restarts=20, iters=300, seed=0)
    assert round(rep.wirt_ratio) == int(printed.group(1))


def test_fmt_is_repr_faithful():
    assert float(_fmt(0.1)) == 0.1
    assert float(_fmt(1.0 - 1e-9)) == 1.0 - 1e-9
    assert _fmt(Fraction(147, 128)) == "147/128"
    assert _fmt("already text") == "already text"


def test_parser_usage_errors():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["no_such_verb"])
    with pytest.raises(SystemExit):
        main(["planes", "--case", "7"])
