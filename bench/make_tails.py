"""Write bench/tails.json: mpmath reference values for the far-tail queries.

    python3 bench/make_tails.py

The queries are fixed, so they do not depend on the benchmark seed.  Left
queries sit where the true F lies in [1e-300, 1e-14], right queries where
the true survival lies in [1e-300, 1e-10].  Each point is placed at a
given z = exp(-(x - mu)/sigma) (left) or w = (x - mu)/sigma (right).
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import oracle

TRIPLES = ((1.0, 1.0, 2.0), (-2.0, 0.5, -1.0), (2.5, 2.0, -1.2),
           (-1.0, 2.0, 1.5), (1.5, 0.3, -0.7), (-2.5, 3.0, 0.3))
LEFT_Z = (40.0, 150.0, 680.0)
RIGHT_W = (30.0, 120.0, 650.0)
PATH = Path(__file__).resolve().parent / "tails.json"


def main() -> None:
    left, right = [], []
    for mu, sg, dl in TRIPLES:
        for z in LEFT_Z:
            x = mu - sg * math.log(z)
            ref = oracle.tail_values(mu, sg, dl, x)
            if not 1e-300 <= ref["cdf"] <= 1e-14:
                raise ValueError(f"left query {(mu, sg, dl, x)} has F = {ref['cdf']}")
            left.append({"params": [mu, sg, dl], "x": x, "cdf": ref["cdf"]})
        for w in RIGHT_W:
            x = mu + sg * w
            ref = oracle.tail_values(mu, sg, dl, x)
            if not 1e-300 <= ref["sf"] <= 1e-10:
                raise ValueError(f"right query {(mu, sg, dl, x)} has S = {ref['sf']}")
            right.append({"params": [mu, sg, dl], "x": x, "survival": ref["sf"],
                          "hazard": ref["hazard"]})
    PATH.write_text("{\n" + ",\n".join(
        f'"{side}": [\n' + ",\n".join(json.dumps(q) for q in queries) + "\n]"
        for side, queries in (("left", left), ("right", right))) + "\n}\n")


if __name__ == "__main__":
    main()
