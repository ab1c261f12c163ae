"""Seeded workload generators: each turns a seed into a list of CLI ops.

An op is one ``whitlocal`` argv plus what the correctness gate expects of
it.  Every input is drawn from a finite catalogue, so the stdout digest of
every valid argv any seed can produce is recorded once, from the seed
commit, in ``digests.json`` (see ``record_digests.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

EMITS = ("json", "csv", "text")

# verify --seed only picks the contragredient sample points, and their cost
# varies twofold between seeds (0.75M to 2.0M term products over seeds
# 0-47).  These are the eight seeds nearest the median, within 3.3%, so
# that the battery's time moves with the program and not with the seed.
BATTERY_SEEDS = (1, 8, 22, 33, 36, 42, 43, 46)

# per pass: this many valid ops of each of the eight commands, plus the
# invalid ones; fixed counts keep the command mix the same for every seed
QUERIES_PER_COMMAND = 19
INVALID_PER_PASS = 12

# seconds one pass over a workload's ops takes at the seed commit on a
# 2-vCPU Linux host with Python 3.11; a timed run sizes its pass count by it
PASS_SECONDS = {"battery": 26.0, "battery-jobs2": 29.0, "series": 30.0, "queries": 28.0}

KNOWN_DEFECT_BRUTEFORCE = "index-bruteforce-composite-p"
KNOWN_DEFECT_MILLIS = "timings-null-millis"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect_exit: int = 0
    # argv whose recorded stdout digest this op must reproduce
    digest_key: str = ""
    timings: bool = False
    # a defect of the seed commit this op is known to hit (ROADMAP item 5
    # and the null ``millis`` of folded involution checks)
    known_defect: str | None = None
    # the seed commit computes this op, but the input contract of ROADMAP
    # item 5 refuses it: exit 2 with an ``error:`` line passes as well
    may_refuse: bool = False

    @property
    def emit(self) -> str:
        return self.argv[self.argv.index("--emit") + 1] if "--emit" in self.argv else "json"

    @property
    def command(self) -> str:
        return self.argv[0]


def make_op(argv, expect_exit=0, known_defect=None, digest_argv=None, may_refuse=False) -> Op:
    argv = tuple(argv)
    timings = "--timings" in argv
    base = digest_argv if digest_argv is not None else [a for a in argv if a != "--timings"]
    return Op(argv, expect_exit, " ".join(base), timings, known_defect, may_refuse)


# -- battery ---------------------------------------------------------------

def battery(seed: int, jobs: int = 1) -> list[Op]:
    """The whole verification battery: the product itself."""
    s = str(BATTERY_SEEDS[seed % len(BATTERY_SEEDS)])
    argv = ("verify", "--suite", "all", "--jobs", str(jobs), "--seed", s)
    # the --jobs 2 bytes must equal the --jobs 1 bytes of the same seed
    serial = ("verify", "--suite", "all", "--jobs", "1", "--seed", s)
    return [make_op(argv, digest_argv=serial)]


# -- series ----------------------------------------------------------------

SERIES_PAYLOADS = (
    ("zeta", "--n", "3", "--order", "6"),
    ("lfactor", "--rank-a", "4", "--rank-b", "4"),
    ("weight", "--place", "unramified", "--n", "3", "--order", "6"),
    ("weight", "--place", "l", "--n", "4", "--level", "1", "--order", "6"),
    ("whittaker", "--n", "5", "--mu", "4,3,2,1,0", "--dual"),
    ("zeta", "--n", "4", "--order", "4"),
)


def series(seed: int) -> list[Op]:
    """Every heavy symbolic payload in every format, in a seeded order.

    The cost of an op depends on its format, so every seed runs the same
    payload-format pairs and the seed changes only their order.
    """
    ops = [make_op(p + ("--emit", e)) for p in SERIES_PAYLOADS for e in EMITS]
    random.Random(f"series:{seed}").shuffle(ops)
    return ops


# -- queries ---------------------------------------------------------------

def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def _is_prime_power(p: int) -> bool:
    d = next(d for d in range(2, p + 1) if p % d == 0)
    while p % d == 0:
        p //= d
    return p == 1


def _query_domain() -> dict[str, list[Op]]:
    """The small end of each command's domain, without the --emit flag."""
    d: dict[str, list[Op]] = {}
    d["lfactor"] = [
        make_op(("lfactor", "--rank-a", str(a), "--rank-b", str(b)))
        for a in (1, 2, 3) for b in (1, 2, 3)
    ]
    mus = {1: ("-1", "0", "2"), 2: ("1,0", "2,1", "0,1", "3,-1", "0,0"),
           3: ("2,1,0", "1,1,0", "0,1,2", "2,0,-1")}
    wh = []
    for n, cochars in mus.items():
        for mu in cochars:
            wh.append(make_op(("whittaker", "--n", str(n), "--mu", mu)))
            wh.append(make_op(("whittaker", "--n", str(n), "--mu", mu, "--dual")))
    for n, cochars in ((2, ("0", "1", "2")), (3, ("1,0", "1,1", "2,1"))):
        for mu in cochars:
            for m in (0, 1, 2):
                wh.append(make_op(("whittaker", "--n", str(n), "--mu", mu, "--level", str(m))))
    d["whittaker"] = wh
    d["zeta"] = [
        make_op(("zeta", "--n", str(n), "--order", str(k))) for n in (1, 2) for k in (0, 1, 2, 3)
    ]
    we = [make_op(("weight", "--place", "unramified", "--n", "2", "--order", str(k)))
          for k in (0, 1, 2)]
    we += [make_op(("weight", "--place", "l", "--n", str(n), "--level", str(m), "--order", str(k)))
           for n in (2, 3) for m in (0, 1) for k in (1, 3)]
    we += [make_op(("weight", "--place", "q", "--n", str(n), "--cond", str(c),
                "--level", str(m), "--p", str(p)))
           for n in (2, 3) for c in (0, 1, 2) for m in (0, 1, 2) for p in (2, 3)]
    d["weight"] = we
    # --p ranges over every accepted integer at the small end, composites
    # too: the brute force assumes a prime and breaks on the others.  Where
    # the seed commit answers a p that ROADMAP item 5 will refuse (not a
    # prime power in closed form, not a prime in brute force), both pass.
    ix = [make_op(("index", "--n", str(n), "--p", str(p), "--level", str(m)),
                  may_refuse=not _is_prime_power(p))
          for n in (2, 3, 4) for p in range(2, 9) for m in (0, 1, 2)]
    for n, m, ps in ((2, 0, range(2, 9)), (2, 1, range(2, 9)), (2, 2, (2, 3)), (3, 1, (2, 3))):
        for p in ps:
            argv = ("index", "--n", str(n), "--p", str(p), "--level", str(m), "--bruteforce")
            if m >= 1 and not _is_prime(p):
                ix.append(make_op(argv, expect_exit=2, known_defect=KNOWN_DEFECT_BRUTEFORCE))
            else:
                ix.append(make_op(argv, may_refuse=not _is_prime(p)))
    d["index"] = ix
    d["charsum"] = [
        make_op(("charsum", "--p", p, "--level", str(m), "--valuations", v))
        for p in ("2", "3", "5", "symbolic") for m in (0, 1, 2)
        for v in ("0", "2", "1,3", "0,2", "2,2,1", "3,0,1")
    ]
    pa = [make_op(("params", "--n", str(n))) for n in (2, 3, 4, 5)]
    pa += [make_op(("params", "--n", str(n), "--s", s, "--w", w))
           for n in (2, 3, 4, 5) for s, w in (("1/2", "1/3"), ("0", "0"), ("3/4", "-2"))]
    d["params"] = pa
    vf = []
    for suite, flag, values in (("involution", "--n-max", (1, 2, 3, 4)),
                                ("weyl", "--n-max", (2, 3, 4)),
                                ("cusp", "--n-max", (2, 3)),
                                ("unramified", "--order", (0, 1, 2)),
                                ("cauchy", "--order", (0, 1, 2, 3)),
                                ("weight-q", "--p", (2, 3))):
        for v in values:
            argv = ("verify", "--suite", suite, flag, str(v), "--jobs", "1")
            vf.append(make_op(argv))
            # folded involution checks carry no millis at the seed commit
            defect = KNOWN_DEFECT_MILLIS if suite == "involution" and v >= 2 else None
            vf.append(make_op(argv + ("--timings",), known_defect=defect))
    d["verify"] = vf
    return d


# argv that must be refused with exit 2 and an ``error:`` line
INVALID_QUERIES = tuple(make_op(argv, expect_exit=2) for argv in (
    ("lfactor", "--rank-a", "5", "--rank-b", "4"),
    ("lfactor", "--rank-a", "0", "--rank-b", "2"),
    ("zeta", "--n", "0"),
    ("zeta", "--n", "2", "--order", "-1"),
    ("whittaker", "--n", "3", "--mu", "2,1,0", "--level", "1"),
    ("whittaker", "--n", "2", "--mu", "1,x"),
    ("weight", "--place", "q", "--n", "2", "--p", "symbolic"),
    ("weight", "--place", "unramified", "--n", "1"),
    ("index", "--n", "2", "--p", "symbolic"),
    ("index", "--n", "2", "--p", "1"),
    ("index", "--n", "1", "--p", "2"),
    ("charsum", "--p", "1", "--valuations", "0"),
    ("charsum", "--p", "2", "--valuations", "0,-1"),
    ("params", "--n", "2", "--s", "1/2"),
    ("verify", "--suite", "nosuch", "--jobs", "1"),
    ("verify", "--suite", "weyl", "--jobs", "0"),
))

QUERY_DOMAIN = _query_domain()


def with_emit(op: Op, emit: str) -> Op:
    return replace(op, argv=op.argv + ("--emit", emit),
                   digest_key=f"{op.digest_key} --emit {emit}")


def queries(seed: int) -> list[Op]:
    """Many small ops over all eight commands, a few of them invalid."""
    rng = random.Random(f"queries:{seed}")
    picks = [rng.choice(QUERY_DOMAIN[cmd]) for cmd in sorted(QUERY_DOMAIN)
             for _ in range(QUERIES_PER_COMMAND)]
    picks += [rng.choice(INVALID_QUERIES) for _ in range(INVALID_PER_PASS)]
    rng.shuffle(picks)
    return [with_emit(op, rng.choice(EMITS)) for op in picks]


WORKLOADS = {
    "battery": battery,
    "battery-jobs2": lambda seed: battery(seed, jobs=2),
    "series": series,
    "queries": queries,
}


def catalogue() -> list[Op]:
    """Every distinct op any seed can generate, with --timings dropped."""
    ops = [battery(s)[0] for s in range(len(BATTERY_SEEDS))]
    ops += [make_op(p + ("--emit", e)) for p in SERIES_PAYLOADS for e in EMITS]
    for domain in QUERY_DOMAIN.values():
        ops += [with_emit(op, e) for op in domain if not op.timings for e in EMITS]
    ops += [with_emit(op, e) for op in INVALID_QUERIES for e in EMITS]
    return ops
