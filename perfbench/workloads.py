"""Workload definitions, the seeded expression stream and the output digests.

Everything here is plain data or pure functions of the seed, so the parent
benchmark process and the measured child processes agree on the inputs
without passing them around.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# verify workloads: (n, cutoff); the suite is always "all"
VERIFY = {
    "verify-n2": (2, 2),
    "verify-n1-deep": (1, 24),
}
# environment of a workload's processes.  verify-n2 runs the program's
# default worker pool; verify-n1-deep runs one worker, because with two
# the race between the poisson and p11 suites builds the Poisson kernel
# two or three times (about 5 s or 7.5 s a round), which hides the kernel
# layer this workload is for.  The pool is measured on verify-n2.
ENV = {
    "verify-n1-deep": {"QBALL_THREADS": "1"},
}
NORMALIZE = {
    "normalize-n2": 2,
}
WORKLOADS = list(VERIFY) + list(NORMALIZE)

DEFAULT_SEED = 0
EXPRESSIONS = 2000        # per normalize round
MAX_LETTERS = 9           # letters in one product, powers expanded
MAX_INVERSIONS = 10       # z* letters standing left of z letters, per product
COEFFS = ["2", "3", "q", "v", "q^-1", "v^3", "(q - q^-1)", "(1 + q^2)^-1"]


def verify_argv(workload: str, output: str) -> list:
    n, cutoff = VERIFY[workload]
    return ["verify", "--suite", "all", "--n", str(n), "--cutoff", str(cutoff),
            "--output", output]


def poisson_args(workload: str) -> tuple:
    """(n, cutoff) of the Poisson kernel the verify suites build."""
    n, cutoff = VERIFY[workload]
    return (n, max(cutoff, 2))


def kernel_hash(P) -> str:
    """The golden hash recipe of the Poisson kernel."""
    text = repr(sorted((repr(k), c.to_text()) for k, c in P.terms.items()))
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def report_entries(payload: list) -> list:
    """The JSON report without its informational `wall_ms` fields."""
    return [{k: v for k, v in entry.items() if k != "wall_ms"} for entry in payload]


def text_digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:12]


# -- the normalize stream --------------------------------------------------------

def _product(rng: random.Random, n: int) -> str:
    """A product of up to MAX_LETTERS z/zs letters, some as ^2 or ^3,
    optionally led by a coefficient.  Products with more than
    MAX_INVERSIONS anti-Wick pairs are drawn again, which keeps one
    expression from dominating the stream's time."""
    while True:
        left = rng.randint(1, MAX_LETTERS)
        factors, starred, inversions = [], 0, 0
        while left:
            cls = rng.choice(("z", "zs"))
            r = rng.random()
            e = min(3 if r < 0.05 else 2 if r < 0.15 else 1, left)
            atom = f"{cls}[{rng.randint(1, n)},{rng.randint(1, n)}]"
            factors.append(atom if e == 1 else f"{atom}^{e}")
            if cls == "zs":
                starred += e
            else:
                inversions += starred * e
            left -= e
        if inversions <= MAX_INVERSIONS:
            break
    if rng.random() < 0.6:
        factors.insert(0, rng.choice(COEFFS))
    return "*".join(factors)


def expressions(seed: int, n: int, count: int = EXPRESSIONS) -> list:
    """The seeded stream: sums of 1 to 3 products."""
    rng = random.Random(f"normalize:{n}:{seed}")
    out = []
    for _ in range(count):
        expr = _product(rng, n)
        for _ in range(rng.randint(0, 2)):
            expr += rng.choice((" + ", " - ")) + _product(rng, n)
        out.append(expr)
    return out


# -- golden values ---------------------------------------------------------------

def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
