"""The output writers against frozen copies of the writers they replaced.

``cli.write_energies``, ``write_coefficients`` and ``write_wavefunctions``
format their CSV rows with one f-string per line and their JSON through
``cli._json``.  The functions below are the writers as they were before,
one ``_fmt_csv`` call per cell and ``json.dumps(payload, indent=2)``,
frozen here as the reference every artifact must match byte for byte.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdmradial.oracle as oracle_mod
from pdmradial import cli
from pdmradial.recurrence import generate_coefficients
from pdmradial.tail import leg_values
from pdmradial.wavefunction import evaluate

from test_cli import DECAYING_MASS, demo_config_dict


def _frozen_fmt_csv(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _frozen_write(outdir, stem, formats, columns, lines, payload) -> None:
    if "csv" in formats:
        text = [",".join(columns)]
        text.extend(",".join(_frozen_fmt_csv(v) for v in line) for line in lines)
        (outdir / f"{stem}.csv").write_text("\n".join(text) + "\n")
    if "json" in formats:
        (outdir / f"{stem}.json").write_text(json.dumps(payload, indent=2) + "\n")


def frozen_write_energies(rows, outdir, formats) -> None:
    records = [r.record() for r in rows]
    lines = ([rec[c] for c in cli._ENERGY_COLUMNS] for rec in records)
    _frozen_write(outdir, "energies", formats, cli._ENERGY_COLUMNS, lines, records)


def frozen_write_coefficients(rows, cfg, outdir, formats) -> None:
    # the coefficients a_0 .. a_order in r, generated in r at each state's
    # energy (the solver's series in x = r/2^x_exp stops at r_match)
    order = cfg.solver.truncation_order
    ok = [(r.state(), generate_coefficients(cfg.potential, cfg.mass, r.q,
                                            r.result.energy, order).coeffs)
          for r in rows if r.ok]
    lines = ((*state.values(), i, a) for state, coeffs in ok
             for i, a in enumerate(coeffs))
    payload = [{**state, "coefficients": list(coeffs)} for state, coeffs in ok]
    _frozen_write(outdir, "coefficients", formats, ("dim", "ell", "radial_n", "i", "a_i"),
                  lines, payload)


def frozen_write_wavefunctions(rows, grid, outdir, formats) -> None:
    # the values: the series on r <= r_match, the inward leg beyond
    radii = np.linspace(0.0, float(grid["r_max"]), int(grid["points"]))
    samples = []
    for res, state in ((r.result, r.state()) for r in rows if r.ok):
        near = radii <= res.inward.edges[0]
        (beyond,) = leg_values([(res.inward, radii[~near])])
        vals = np.concatenate((
            evaluate(res.solution.scaled(res.norm_const), radii[near]),
            res.norm_const * res.p_sigma * beyond,
        ))
        samples.append((state, vals.tolist()))
    lines = ((*state.values(), x, v) for state, vals in samples
             for x, v in zip(radii, vals))
    r = [float(x) for x in radii]
    payload = [{**state, "r": r, "R": vals} for state, vals in samples]
    _frozen_write(outdir, "wavefunctions", formats, ("dim", "ell", "radial_n", "r", "R"),
                  lines, payload)


def _solve(data, **solver):
    """The parsed config and its rows."""
    data["solver"].update(solver)
    cfg = cli.parse_config(data)
    return cfg, cli.solve_states(cfg)


@pytest.fixture(scope="module")
def groups():
    """(config, rows) of every kind of row a writer meets: solved, failed,
    solved with an oracle error, and solved with a sample grid that reaches
    past r_far."""
    # level 9 lies above the window: an error row with empty result cells
    failed = demo_config_dict()
    failed["quantum"]["n"] = [0, 9]
    out = [_solve(failed, oracle=False)]
    # an oracle that fails its own check reports its error on a solved row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_mod, "_RESOLUTIONS", ((12, 1.0), (16, 1.25)))
        two_d = demo_config_dict()
        two_d["quantum"] = {"dim": 2, "ell": [1], "n": [0, 1]}
        out.append(_solve(two_d, e_lo=-2.4, e_hi=-0.06))
    # a decaying mass keeps the series infinite; on a long grid its samples
    # run along the inward leg and past its far end
    decaying = demo_config_dict()
    decaying["mass"] = DECAYING_MASS
    decaying["quantum"]["n"] = [0, 1]
    out.append(_solve(decaying, truncation_order=24))
    oscillator = {
        "potential": {"kind": "oscillator", "omega": 1.0, "v3_offset": -20.0},
        "mass": {"kind": "constant", "m0": 1.0},
        "quantum": {"dim": 3, "ell": [2], "n": [0, 1]},
        "solver": {"e_lo": -19.5, "e_hi": -8.7, "truncation_order": 128,
                   "oracle": False},
    }
    out.append(_solve(oscillator))
    return out


GRID = {"r_max": 40.0, "points": 41}


def test_rows_cover_every_kind(groups):
    rows = [r for _, group in groups for r in group]
    assert any(not r.ok for r in rows)
    assert any(r.ok and r.message.startswith("ResolutionError: ") for r in rows)
    assert any(r.ok and r.result.inward.edges[-1] < GRID["r_max"] for r in rows)


# stem -> (writer, frozen writer), each called with (rows, config, outdir,
# formats); the coefficient dump reads the config's model and order
WRITERS = {
    "energies": (
        lambda rows, cfg, outdir, formats: cli.write_energies(rows, outdir, formats),
        lambda rows, cfg, outdir, formats: frozen_write_energies(rows, outdir, formats),
    ),
    "coefficients": (
        lambda rows, cfg, outdir, formats: cli.write_coefficients(
            rows, replace(cfg, output=replace(cfg.output, formats=formats)), outdir),
        frozen_write_coefficients,
    ),
    "wavefunctions": (
        lambda rows, cfg, outdir, formats: cli.write_wavefunctions(
            rows, GRID, outdir, formats),
        lambda rows, cfg, outdir, formats: frozen_write_wavefunctions(
            rows, GRID, outdir, formats),
    ),
}


@pytest.mark.parametrize("formats", [("csv", "json"), ("csv",), ("json",)])
@pytest.mark.parametrize("stem", sorted(WRITERS))
def test_artifacts_match_the_frozen_writers(groups, tmp_path, stem, formats):
    # each config's rows written into a directory of their own
    write, frozen = WRITERS[stem]
    waves = []
    for i, (cfg, rows) in enumerate(groups):
        new, old = tmp_path / f"new{i}", tmp_path / f"frozen{i}"
        new.mkdir()
        old.mkdir()
        write(rows, cfg, new, formats)
        frozen(rows, cfg, old, formats)
        names = sorted(p.name for p in old.iterdir())
        assert names == sorted(f"{stem}.{fmt}" for fmt in formats)
        assert sorted(p.name for p in new.iterdir()) == names
        for name in names:
            assert (new / name).read_bytes() == (old / name).read_bytes(), (i, name)
        if stem == "wavefunctions" and "json" in formats:
            waves += json.loads((new / "wavefunctions.json").read_text())
    if waves:
        # no sample reads null; those past r_far read 0
        assert not any(None in w["R"] for w in waves)
        assert any(w["R"][-1] == 0.0 for w in waves)


def test_empty_rows_match_the_frozen_writers(tmp_path):
    cfg = cli.parse_config(demo_config_dict())
    for stem, (write, frozen) in WRITERS.items():
        for d, writer in (("new", write), ("frozen", frozen)):
            (tmp_path / d).mkdir(exist_ok=True)
            writer([], cfg, tmp_path / d, ("csv", "json"))
        for fmt in ("csv", "json"):
            name = f"{stem}.{fmt}"
            assert ((tmp_path / "new" / name).read_bytes()
                    == (tmp_path / "frozen" / name).read_bytes()), name


_EDGE_FLOATS = [-0.0, 0.0, 1e-300, 5e-324, 1e308, math.nan, math.inf, -math.inf]
_LEAVES = st.one_of(
    st.integers(), st.booleans(), st.none(), st.text(),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_EDGE_FLOATS),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=6),
                               st.dictionaries(st.text(max_size=8), children, max_size=6)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_json_is_json_dumps_with_indent_two(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2)


@settings(max_examples=100, deadline=None)
@given(st.lists(_LEAVES, max_size=6), _TREES)
def test_json_with_a_list_object_met_twice(shared, other):
    # the same list object at one depth and at others: the reused text must
    # carry the indent of the depth it is written at
    for obj in ([shared, shared, other], {"a": shared, "b": [shared], "c": other},
                [{"r": shared, "R": other}, {"r": shared, "R": shared}]):
        assert cli._json(obj) == json.dumps(obj, indent=2)


def test_json_edge_values():
    obj = {"": [], "e": {}, "é ☃": ["☃", "\n\"\\", None, True, False],
           "f": _EDGE_FLOATS, "nested": [[[]], [{}], [[1, 2.5], {"x": [None]}]]}
    assert cli._json(obj) == json.dumps(obj, indent=2)
    for leaf in [None, True, 0, -1, 2.5, math.nan, "s", [], {}]:
        assert cli._json(leaf) == json.dumps(leaf, indent=2)
