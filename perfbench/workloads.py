"""Seeded workload generators and the hand-written correctness oracle.

Each workload turns the benchmark seed into a model spec (a JSON document
the CLI reads) and the CLI flags; the program sees only those.  The oracle
checks the reports of one invocation against dimension tables written out
from their closed forms, not recorded from the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

# Nonzero rationals of height <= 3: p/q with 1 <= |p|, q <= 3.
SMALL_RATIONALS = sorted(
    {Fraction(sign * p, q) for sign in (1, -1) for p in (1, 2, 3) for q in (1, 2, 3)}
)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    analyses: tuple[str, ...]  # the analyses the summary must list
    flags: tuple[str, ...]

    @property
    def cli_args(self) -> list[str]:
        return ["run", *self.flags]

    def write_spec(self, path: Path) -> None:
        path.write_text(json.dumps(self.spec, sort_keys=True) + "\n", encoding="utf-8")


def _rational(rng: random.Random) -> str:
    return str(rng.choice(SMALL_RATIONALS))


def t2_all(seed: int) -> Workload:
    """The acceptance-criterion-12 run: T^2, alpha = (1, sqrt2), all analyses.

    This workload does not depend on the seed.  Its cost is mostly the
    symbol-trial panel, and that cost varies about twofold with the
    program's --seed (3.4 to 8.3 s per invocation on a 2-core x86 VM), which
    would swamp the regression bounds; a rescaled alpha would change the
    height of every symbol coefficient as well.  So it keeps the
    criterion-12 inputs.
    """
    return Workload(
        "t2_all",
        {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
        ("derham", "poisson", "gysin", "specseq", "hochschild", "symbols"),
        ("--analyses", "all", "--mode-bound", "1", "--trials", "20", "--depth", "6",
         "--seed", "11"),
    )


def t3_blocks(seed: int) -> Workload:
    """T^3 with alpha = (1, a*sqrt2, b*sqrt3): many tiny blocks over Q(i,sqrt2,sqrt3)."""
    rng = random.Random(f"t3_blocks:{seed}")
    a, b = _rational(rng), _rational(rng)
    return Workload(
        "t3_blocks",
        {"family": "kronecker_torus", "alpha": ["1", f"{a}*sqrt2", f"{b}*sqrt3"]},
        ("derham", "hochschild", "gysin"),
        ("--analyses", "derham,hochschild,gysin", "--mode-bound", "1", "--seed", str(seed)),
    )


WORKLOADS = {"t2_all": t2_all, "t3_blocks": t3_blocks}


# -- oracle -----------------------------------------------------------------------


def _load(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / f"{name}.json").read_text(encoding="utf-8"))


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _torus_tables(problems: list[str], out_dir: Path, n: int) -> None:
    """Closed forms for a nonresonant linear flow on T^n (leaf dimension 1).

    Leafwise H^{r,s} = C(n-1, s) for r in {0, 1}; HH_k = 2 C(n+1, k);
    HP = (2^(n+1), 2^(n+1)); ordinary Betti numbers C(n, k).
    """
    derham = _load(out_dir, "derham")
    leafwise = [[r, s, comb(n - 1, s)] for r in (0, 1) for s in range(n)]
    _expect(problems, "derham leafwise table", derham["cohomology"]["dims"], leafwise)
    _expect(problems, "ordinary Betti", derham.get("ordinary_betti"),
            [comb(n, k) for k in range(n + 1)])
    hoch = _load(out_dir, "hochschild")
    _expect(problems, "HH dims", hoch["hh_dims_assuming_collapse"],
            [2 * comb(n + 1, k) for k in range(n + 2)])
    _expect(problems, "HP dims", hoch["hp_dims"], [2 ** (n + 1)] * 2)


def check_reports(workload: str, out_dir: Path, analyses: tuple[str, ...]) -> list[str]:
    """Every mismatch between the reports in out_dir and the expected tables."""
    problems: list[str] = []
    try:
        summary = _load(out_dir, "summary")
        _expect(problems, "summary passed", summary.get("passed"), True)
        _expect(problems, "analyses run", sorted(summary.get("analyses", {})), sorted(analyses))
        for name, entry in summary.get("analyses", {}).items():
            _expect(problems, f"{name} passed", entry.get("passed"), True)
        if workload == "t2_all":
            _expect(problems, "collapse_certified", summary.get("collapse_certified"), True)
            _torus_tables(problems, out_dir, 2)
        elif workload == "t3_blocks":
            _torus_tables(problems, out_dir, 3)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable reports: {type(exc).__name__}: {exc}")
    return problems
