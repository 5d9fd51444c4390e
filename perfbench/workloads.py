"""The benchmark workloads: inputs, one timed pass, and output checks.

Every workload is a closed loop with one client: the child process runs a
pass, checks it, and starts the next pass when the previous one has ended.
holonoise is imported inside `build` so that the parent process can read
`NAMES` without paying for the import, and so that the child's set-up time
covers it.

* reference_run: `holonoise run` at the README reference configuration
  (L = 40 m, 16 MHz, 0.1 s, spectral synthesis, rho = 1); time goes mostly
  to lagged correlation and the Welch estimates.
* long_boxcar_run: `holonoise run --method boxcar` at the integer-boxcar
  rate 8 c / 2L for 0.2 s (5,995,849 samples = 17 * 19**2 * 977, not
  FFT-friendly); the memory workload, and the one where synthesis is heavy.

The checks hold for any seed: the amplitude tolerance is criterion 5's, and
at these record lengths it is more than four standard errors wide.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

NAMES = ("reference_run", "long_boxcar_run")

#: Criterion 5's amplitude tolerance around the predicted spectrum.
AMPLITUDE_TOL = 0.1

#: Full-size parameters; the self-check passes smaller ones.
SIZES = {
    "reference_run": {"args": ["--duration", "0.1"], "samples": 1_600_000},
    "long_boxcar_run": {
        "args": ["--method", "boxcar", "--sample-rate", "29979245.8",
                 "--duration", "0.2"],
        "samples": 5_995_849,
    },
}


class CliRun:
    """One `holonoise run` through `holonoise.cli.main` per pass."""

    def __init__(self, args, samples, seed, workdir):
        import holonoise.cli
        self.cli = holonoise.cli
        self.outdir = Path(workdir) / "out"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.argv = ["run", *args, "--seed", str(seed),
                     "--outdir", str(self.outdir)]
        self.samples_per_pass = samples
        self.first = None

    def body(self):
        return self.cli.main(self.argv)

    def check(self, rc) -> list[str]:
        """Exit code, criterion-5 amplitude, byte-identical summary.json."""
        if rc != 0:
            return [f"holonoise run exited {rc}"]
        raw = (self.outdir / "summary.json").read_bytes()
        summary = json.loads(raw)
        problems = []
        amp = summary["amplitude_fit"]
        if not abs(amp - 1.0) < AMPLITUDE_TOL:
            problems.append(f"amplitude_fit {amp} outside 1 +- {AMPLITUDE_TOL}")
        if self.first is None:
            self.first = raw
        elif raw != self.first:
            problems.append("summary.json differs from the first pass")
        return problems

    def fingerprint(self) -> str | None:
        """SHA-256 of the first checked `summary.json`, None before any pass.

        run.py compares it across the timed processes of one run, so that
        reruns in separate processes must be identical too.
        """
        return None if self.first is None else hashlib.sha256(self.first).hexdigest()


def build(name: str, seed: int, workdir, size: dict | None = None):
    """Inputs of workload `name` for `seed`; `size` overrides SIZES[name]."""
    size = SIZES[name] if size is None else size
    return CliRun(size["args"], size["samples"], seed, workdir)
