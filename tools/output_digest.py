"""One sha256 per output file of the command line, to compare two builds or
two BLAS thread counts byte for byte.

Every file that ``solve``, ``coefficients`` and ``sample`` write is made for
the four demo configs and for each benchmark workload's configs at seeds 1
to 3 (``bench/workloads.py``, imported, not changed), with the coefficient
dump and a 41-point wavefunction grid forced on; each command writes into
its own directory.  The exit codes and the messages the commands print
go to ``status.txt``.  The report and the exit code of ``verify``, at the
suite's default seed and at seeds 1 to 3, go to ``verify.txt``.  Then every
row of the sweep's two draws (``tests/test_sweep.py``: 150 problems at
orders 64 and 96, 60 at orders 4 to 16, 630 rows) goes to ``sweep.jsonl``,
one ``StateRow.record()`` a line, whose JSON floats carry every bit.

Run from the repository root, against the package on PYTHONPATH:

    PYTHONPATH=src python tools/output_digest.py > digest.txt

and compare the printed lines of two runs with ``diff``.  The files are
written into a temporary directory, which is removed afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from pdmradial import cli  # noqa: E402
from test_sweep import _problems  # noqa: E402

SEEDS = (1, 2, 3)
GRID_POINTS = 41
SWEEP_DRAWS = ((150, (64, 96)), (60, (4, 6, 8, 12, 16)))


class _NoReference:
    """Stands in for the benchmark's shooting solve: the configs are drawn
    before their reference energies, which the digest does not need."""

    def __init__(self, *args):
        pass

    def levels(self, e_lo, e_hi, count):
        return [float("nan")] * count


def _configs() -> dict[str, dict]:
    """{name: config dict} of the demos and of every workload's seeds."""
    out = {p.stem: json.loads(p.read_text())
           for p in sorted((ROOT / "configs").glob("*.json"))}
    workloads.ShootingChannel = _NoReference
    for seed in SEEDS:
        for name in sorted(workloads.WORKLOADS):
            for i, data in enumerate(workloads.make_workload(name, seed).configs):
                out[f"{name}_seed{seed}_{i}"] = data
    return out


def _forced(data: dict, directory: Path) -> dict:
    """``data`` writing into ``directory`` with the coefficient dump and a
    41-point grid on, out to the config's own r_max or the CLI's default."""
    output = data["output"]
    r_max = (output.get("wavefunction_grid") or {}).get("r_max", 10.0)
    return {**data, "output": {**output, "directory": str(directory),
                               "coefficients": True,
                               "wavefunction_grid": {"r_max": r_max,
                                                     "points": GRID_POINTS}}}


def write_outputs(out: Path) -> None:
    """Every file into ``out``, the configs' paths relative to it, so the
    configs written there are the same bytes wherever it is."""
    status = []
    configs = out / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, data in _configs().items():
            for command in cli._ARTIFACTS:
                config = configs / f"{name}_{command}.json"
                config.write_text(json.dumps(_forced(data, Path(name, command))))
                printed = io.StringIO()
                with contextlib.redirect_stderr(printed):
                    code = cli.main([command, str(config)])
                status.append(f"{name} {command} exit {code}\n{printed.getvalue()}")
    finally:
        os.chdir(cwd)
    (out / "status.txt").write_text("".join(status))
    reports = []
    for argv in [["verify"]] + [["verify", "--seed", str(seed)] for seed in SEEDS]:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        reports.append(f"{' '.join(argv)} exit {code}\n{printed.getvalue()}")
    (out / "verify.txt").write_text("".join(reports))
    with open(out / "sweep.jsonl", "w") as sweep:
        for count, orders in SWEEP_DRAWS:
            for data in _problems(count, orders):
                for row in cli.solve_states(cli.parse_config(data)):
                    sweep.write(json.dumps(row.record()) + "\n")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp).resolve()
        write_outputs(out)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
