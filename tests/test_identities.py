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
