"""One workload in one process: set up, then run whole rounds of `solve`.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  Prints
``READY <mean kernel seconds>`` once pdmradial is imported and every config
is loaded and validated (the end of set-up), then, unless ``--setup-only``, runs rounds
until the next one would end past ``--seconds`` and prints one
``RESULT <json>`` line.

A round calls ``pdmradial solve`` in-process on every config of the
workload.  An untraced round is also timed at the pace of a calibration
kernel (see ``pace.py``).  With ``--trace 1`` untraced and traced rounds
alternate: a traced round replaces each module attribute through which a
caller reaches a public layer function with a wrapper that records a span,
so self times and the tracing overhead come from the same process.  Spans
stay in memory and are written to ``--spans`` once, at the end.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from pace import Pacer

# Set-up is paced from here until READY: the kernel runs every 25 ms while
# pdmradial is imported and the configs are loaded.
SETUP_PACER = Pacer()
SETUP_PACER.start()

from pdmradial import cli, eigensolver, oracle, wavefunction  # noqa: E402


def _note_brackets(counts, out, args, kwargs):
    counts["eigensolver.brackets"] += len(out)


def _note_points(counts, out, args, kwargs):
    grid = kwargs["grid"] if "grid" in kwargs else args[4]
    counts["oracle.integrate_radial.points"] += grid.points


def _note_cli_call(counts, out, args, kwargs):
    counts["recurrence.generate_coefficients.cli_calls"] += 1


# (module, attribute the caller looks up, layer name, counter hook).
# eigensolver and cli import most layer functions by name, so the wrapper
# must replace the name inside the calling module; eigensolver reaches the
# oracle through the module object, and RadialWavefunction.from_solution
# finds trust_radius in wavefunction's own namespace.
LAYER_TARGETS = [
    (cli, "scan_spectrum", "eigensolver.scan_spectrum", _note_brackets),
    (cli, "find_eigenvalue", "eigensolver.find_eigenvalue", None),
    (eigensolver, "generate_coefficients", "recurrence.generate_coefficients", None),
    (cli, "generate_coefficients", "recurrence.generate_coefficients", _note_cli_call),
    (oracle, "integrate_radial", "oracle.integrate_radial", _note_points),
    (oracle, "numerov_eigenvalue", "oracle.numerov_eigenvalue", None),
    (eigensolver, "trust_radius", "wavefunction.trust_radius", None),
    (wavefunction, "trust_radius", "wavefunction.trust_radius", None),
    (eigensolver, "count_nodes", "wavefunction.count_nodes", None),
    (eigensolver, "normalize", "wavefunction.normalize", None),
    (cli, "normalize", "wavefunction.normalize", None),
    (cli, "evaluate", "wavefunction.evaluate", None),
    (cli, "load_config", "cli.load_config", None),
    (cli, "write_energies", "cli.write", None),
    (cli, "write_coefficients", "cli.write", None),
    (cli, "write_wavefunctions", "cli.write", None),
]
LAYERS = sorted({name for _, _, name, _ in LAYER_TARGETS})


class Tracer:
    """Spans [name, start, end, parent index, request, child seconds, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = ""
        self._saved: list[tuple] = []

    def span(self, name, fn, note=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.request, 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[2] = end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if note is not None:
                note(self.counts, out, args, kwargs)
            return out

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module, attr, wrapper_of):
        original = getattr(module, attr, None)
        if original is not None:  # a layer that no longer exists reads 0
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper_of(original))

    def install(self):
        for module, attr, name, note in LAYER_TARGETS:
            self._replace(module, attr, lambda fn: self.span(name, fn, note))
        # one mismatch evaluation = one series-versus-inward-leg comparison
        self._replace(eigensolver, "_mismatch",
                      lambda fn: self.counter("eigensolver.mismatch_evals", fn))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def layer_totals(self, first: int) -> dict:
        """calls / self seconds / raised per layer over spans[first:]."""
        out = {name: {"calls": 0, "self_s": 0.0, "raised": 0} for name in LAYERS}
        for name, start, end, _, _, child, raised in self.spans[first:]:
            d = out[name]
            d["calls"] += 1
            d["self_s"] += end - start - child
            d["raised"] += raised
        return out


def _rows(outdirs) -> list[dict]:
    rows = []
    for d in outdirs:
        rows.extend(json.loads((d / "energies.json").read_text()))
    return rows


def _output_bytes(outdirs) -> int:
    return sum(f.stat().st_size for d in outdirs for f in d.iterdir())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("configs", nargs="+")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    cfgs = [cli.load_config(p) for p in args.configs]
    SETUP_PACER.stop()
    print(f"READY {SETUP_PACER.mean_kernel_s()!r}", flush=True)
    if args.setup_only:
        return 0
    outdirs = [Path(c.output.directory) for c in cfgs]

    tracer = Tracer()
    pacer = Pacer()
    rounds = []
    t_start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        else:
            pacer.start()
        first = len(tracer.spans)
        codes = []
        t0 = time.perf_counter()
        for i, path in enumerate(args.configs):
            tracer.request = f"round{len(rounds)}/config{i}"
            codes.append(cli.main(["solve", path]))
        solve_s = time.perf_counter() - t0
        paced_s = None
        if traced:
            tracer.uninstall()
        else:
            paced_s, solve_s = pacer.stop()

        rows = _rows(outdirs)
        rec = {"solve_s": solve_s, "paced_s": paced_s, "traced": traced,
               "codes": codes, "rows": rows, "output_bytes": _output_bytes(outdirs)}
        if traced:
            rec["layers"] = tracer.layer_totals(first)
            rec["counts"] = dict(tracer.counts)
            tracer.counts.clear()
        rounds.append(rec)
        # stop before a round that would end past --seconds, once the rounds
        # needed for a result (one, or an untraced and a traced one) are done
        elapsed = time.perf_counter() - t_start
        if (elapsed * (len(rounds) + 1) / len(rounds) > args.seconds
                and len(rounds) >= 1 + args.trace):
            break

    if args.spans:
        names = ("name", "start", "end", "parent", "request", "child_s", "raised")
        with open(args.spans, "w") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(dict(zip(names, rec))) + "\n")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("RESULT " + json.dumps({"rounds": rounds, "peak_rss_kb": peak_kb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
