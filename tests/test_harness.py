"""The harness subtracts each singular part once per corner and level."""

from dclab import harness, singular


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
