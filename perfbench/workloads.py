"""Seeded workloads: the CLI commands each benchmark run executes.

The seed chooses only the inputs named below; the program sees nothing but
CLI arguments.  Domains follow the package conventions: p in {3, 5, 7}
(concrete small primes) and desk-scale points |z| <= 0.9.  Invalid inputs
(composite p, weights past the cap, |z| -> 1) are deliberately not drawn:
they belong to the input-contract tests, not to a timing workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

PRIMES = (3, 5, 7)


@dataclass
class Command:
    name: str            # label, unique within the workload
    group: str           # click group in mzv.cli
    args: list[str]
    oracle: str          # key into oracles.ORACLES
    expect: dict = field(default_factory=dict)  # oracle parameters
    frontier: bool = False  # the workload's heaviest command (frontier_s)
    stdin_from: str | None = None  # name of the command whose stdout is piped in

    def argv(self) -> str:
        text = " ".join(self.args)
        return f"{self.group} {text}" + (f" < {self.stdin_from}" if self.stdin_from else "")


def _twisted(rng: random.Random, seed: int) -> list[Command]:
    p = {name: rng.choice(PRIMES) for name in ("netherland", "czech", "princeton", "dump")}

    def verify(identity, weight, prime, checks, frontier=False):
        args = ["verify", "--identity", identity, "--weight", str(weight)]
        if prime is not None:
            args += ["--p", str(prime)]
        return Command(identity, "assoc", args, "exact", {"checks": checks}, frontier)

    return [
        # 1 comparison + depth-1 k=2..4 + depth-2 (1,2),(2,2),(1,3)
        verify("netherland", 6, p["netherland"], 7, frontier=True),
        # letter-A + depth-1 k=1..4 + depth-2 (1,2)
        verify("czech", 6, p["czech"], 6),
        verify("princeton", 5, p["princeton"], 1),
        verify("moldova", 6, None, 6),
        verify("kz", 7, None, 1),
        Command("dump", "series", ["dump", "--flavor", "padic_Deligne", "--weight", "5", "--p", str(p["dump"])],
                "series_json", {"weight": 5}),
        Command("parse", "series", ["parse"], "roundtrip", {"of": "dump"}, stdin_from="dump"),
    ]


def _pentagon(rng: random.Random, seed: int) -> list[Command]:
    return [
        Command("pentagon", "assoc", ["verify", "--identity", "pentagon", "--weight", "5"],
                "residual", {"checks": 1}, frontier=True),
        Command("hexagon", "assoc", ["verify", "--identity", "hexagon", "--weight", "6"],
                "residual", {"checks": 1}),
    ]


def _relations(rng: random.Random, seed: int) -> list[Command]:
    flavors = ("complex", "p-adic", "p-adic-Deligne")
    f9, f8 = rng.choice(flavors), rng.choice(flavors)
    return [
        Command("relations-w9", "mzv", ["relations", "--weight", "9", "--flavor", f9, "--format", "json"],
                "relations_json", {"weight": 9}, frontier=True),
        Command("relations-w8", "mzv", ["relations", "--weight", "8", "--flavor", f8, "--format", "csv"],
                "relations_csv", {"weight": 8}),
    ]


def _admissible(weight: int, depth: int) -> list[tuple[int, ...]]:
    """Compositions of `weight` into `depth` positive parts, last part >= 2."""
    out = []

    def rec(left, parts):
        if len(parts) == depth - 1:
            if left >= 2:
                out.append(tuple(parts) + (left,))
            return
        for k in range(1, left):
            rec(left - k, parts + [k])

    rec(weight, [])
    return out


def _numerics(rng: random.Random, seed: int) -> list[Command]:
    cmds = [Command("relations-w7-numeric", "mzv",
                    ["relations", "--weight", "7", "--check-numeric", "--format", "json"],
                    "relations_json", {"weight": 7, "numeric": True}, frontier=True)]
    for i in range(3):
        index = rng.choice(_admissible(rng.randint(5, 7), rng.randint(2, 4)))
        cmds.append(Command(f"eval-{i}", "mzv", ["eval", "--index", ",".join(map(str, index))],
                            "mzv_eval", {"index": list(index)}))
    for i in range(2):
        p, k = rng.choice(PRIMES), rng.randint(2, 5)
        a = rng.choice([x for x in range(1, 51) if x % p])
        b = rng.choice([x for x in range(1, 60) if x % p])
        g = math.gcd(a, b)
        z = f"{p * a // g}/{b // g}"
        cmds.append(Command(f"padic-polylog-{i}", "padic",
                            ["polylog", "--p", str(p), "--k", str(k), "--z", z, "--prec", "2000"],
                            "padic_polylog", {"p": p, "k": k, "z": z, "prec": 2000}))
    cmds.append(Command("verify-spain", "padic",
                        ["verify-spain", "--points", "40", "--prec", "60", "--seed", str(seed)],
                        "all_pass", {"checks": 3 * 4 * 40}))
    k = rng.randint(3, 6)
    r, theta = rng.uniform(0.1, 0.89), rng.uniform(0.0, 2 * math.pi)  # |z| <= 0.9 after rounding
    x, y = round(r * math.cos(theta), 3), round(r * math.sin(theta), 3)
    cmds.append(Command("sv-polylog", "sv", ["polylog", "--k", str(k), "--z", f"{x}{y:+}i", "--zagier"],
                        "sv_polylog", {"k": k, "z": [x, y]}))
    return cmds


_BUILDERS = {"twisted": _twisted, "pentagon": _pentagon, "relations": _relations, "numerics": _numerics}
WORKLOADS = tuple(_BUILDERS)


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands for this seed; the same seed gives the same commands."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), seed)
