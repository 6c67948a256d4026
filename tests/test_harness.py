"""The harness's corner analysis: which corners it measures, the adjoint
each measure reads, and each singular part subtracted once per corner and
level."""

from dclab import harness, singular
from dclab.geometry import build_domain

#: the polygon of the two-corner CI run: re-entrant corners 4 and 5
TWO_CORNERS = [[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1.5], [1, 2],
               [0, 2]]


def test_analysed_corners_are_the_reentrant_ones():
    for spec, corners in (("l-shape", [2]), ("sector(3pi/2, 64)", [0]),
                          ("unit-square", []), (TWO_CORNERS, [4, 5])):
        assert harness._analysed_corners(build_domain(spec)) == corners, spec


def test_twin_flatness_scan_reads_its_own_adjoint(monkeypatch, tmp_path):
    # with solve "both" the primary control is the unconstrained one, but
    # the flatness scan runs on the constrained twin: its sign rule must
    # read c_{j,1} of the twin's adjoint, not that of the primary solve
    scans, twins = [], []
    scan, solve = harness.flatness_diagnostic, harness.solve_constrained

    def recorded_scan(domain, mesh, u, lower, upper, j, c1=None):
        scans.append((domain, mesh, j, c1))
        return scan(domain, mesh, u, lower, upper, j, c1=c1)

    def recorded_solve(*args, **kwargs):
        twins.append(solve(*args, **kwargs))
        return twins[-1]

    monkeypatch.setattr(harness, "flatness_diagnostic", recorded_scan)
    monkeypatch.setattr(harness, "solve_constrained", recorded_solve)
    (unc,) = harness.run_preset("lshape-unconstrained", str(tmp_path))
    assert unc.exit_code == 0
    assert len(scans) == len(twins) == len(unc.levels) == 2
    for (domain, mesh, j, c1), twin, rec in zip(scans, twins, unc.levels):
        own = singular.extract_coefficients(domain, mesh, twin.phi.values, j)
        assert c1 == own.coefficients[1]
        # about -0.102 against the primary adjoint's -0.087
        assert abs(c1 - rec.fits[j].coefficients[1]) > 0.01


def test_resonant_corner_leaves_h_sets_unclassified(tmp_path):
    # lam = 3/2 at the 120 degree corner 0 makes 2(s*-1)/(s* lam) = 1: the
    # singular sets behind the H-sets are undefined, which the summary and
    # the h2 verdict say instead of the run ending in a traceback
    cfg = {"domain": {"vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2],
                                   [-2.0 / 3.0 ** 0.5, 2.0]]},
           "mesh": {"h0": 1.0 / 32, "grading": {3: 0.5}},
           "problem": {"nu": 0.2, "lower": -1.0, "upper": 1.0,
                       "target": {"kind": "constant", "value": 1.0}},
           "expectations": {"h2": []}}
    res = harness.run_config(cfg, str(tmp_path))
    assert res.exit_code == 1 and 3 in res.levels[0].fits
    ((key, ok, detail),) = res.verdicts
    assert (key, ok) == ("h2", False)
    # s* is a constant, so the message advises nothing a config could do,
    # and prints the quotient as a number, not as its repr
    assert detail == ("H-sets not classified: resonant exponent at corner 0: "
                      "2(p-1)/(p*lambda) = 1 is an integer")
    with open(tmp_path / "summary.txt") as fh:
        assert f"note: {detail}\n" in fh.read()


def _count_calls(monkeypatch, name):
    """Count the calls of singular.<name>, made by the harness or from
    inside dclab.singular."""
    calls = []
    for owner in (harness, singular):
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_each_singular_part_is_formed_once(monkeypatch, tmp_path):
    profiles = _count_calls(monkeypatch, "control_singular_profile")
    (unc,) = harness.run_preset("lshape-unconstrained", str(tmp_path / "unc"))
    assert unc.exit_code == 0
    # corner 2 is analysed, with its structure shells, on both levels
    assert [sorted(rec.structure) for rec in unc.levels] == [[2], [2]]
    assert len(profiles) == sum(len(rec.fits) for rec in unc.levels) == 2

    lifts = _count_calls(monkeypatch, "wedge_lift")
    results = harness.run_preset("lemma25-check", str(tmp_path / "lemma25"))
    assert [r.exit_code for r in results] == [0, 0]
    assert len(lifts) == sum(len(r.levels) for r in results) == 6
