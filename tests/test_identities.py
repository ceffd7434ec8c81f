from pdmradial.identities import DEFAULT_SEED, run_identity_suite


def test_default_seed_all_pass():
    results = run_identity_suite(DEFAULT_SEED)
    assert len(results) == 5
    for r in results:
        assert r.passed, f"{r.name}: {r.max_deviation} >= {r.tolerance}"


def test_verdicts_do_not_depend_on_seed():
    # the identities hold for all admissible parameters, not just one draw
    verdicts = {}
    for seed in (DEFAULT_SEED, 1234):
        for r in run_identity_suite(seed):
            verdicts.setdefault(r.name, set()).add(r.passed)
    for name, vs in verdicts.items():
        assert vs == {True}, name


def test_dual_derivation_check_is_included():
    names = [r.name for r in run_identity_suite()]
    assert "expmass-recursion-vs-general" in names


def test_each_check_draws_the_same_alone_and_in_the_suite(monkeypatch):
    # a check's generator depends on the seed and the check, not on its
    # place in the list: alone, or with the list reversed, it reports the
    # same deviation as in the suite
    import pdmradial.identities as ids

    for seed in (DEFAULT_SEED, 1234):
        in_suite = {r.name: r.max_deviation for r in run_identity_suite(seed)}
        for check in ids._CHECKS:
            alone = check(ids._check_rng(check, seed))
            assert alone.max_deviation == in_suite[alone.name]
        monkeypatch.setattr(ids, "_CHECKS", ids._CHECKS[::-1])
        reversed_order = {r.name: r.max_deviation for r in run_identity_suite(seed)}
        monkeypatch.undo()
        assert reversed_order == in_suite
