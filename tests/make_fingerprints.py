"""Write tests/fingerprints.json: the pinned numbers of the table, the constants and a torus sweep.

Usage (from the repository root):

    PYTHONPATH=src python tests/make_fingerprints.py

The file holds three sections, one entry per line:

- ``table``: k_opt and lambda_1(k_opt) of the 16 table sweeps.  Each sweep
  runs as the ``sweep2d`` test fixture runs it: default mesh and degree,
  warm starts, and the 1D asymptotics of its model for the wavenumber cap.
- ``constants``: the fields that ``axishell asymptotics`` prints for models
  A, B, D, H and L at Young's modulus E = 1 and E = 2, unrounded.
- ``torus_sweep``: the rows of ``axishell torus-sweep --r-min -1.4
  --r-max -0.6 --step 0.2`` (radius 2, interval -1,1), unrounded.

Every float is stored with ``float.hex``, so the file holds the exact doubles
that the fingerprint tests of ``test_acceptance.py`` compare against.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

import axishell as ax
from axishell import lame2d

PATH = Path(__file__).with_name("fingerprints.json")
SWEEPS = [(model, eps) for model in "BDHL" for eps in (0.1, 0.05, 0.02, 0.01)]
CONSTANTS = [(model, E) for E in (1.0, 2.0) for model in "ABDHL"]
# cmd_torus_sweep's grid for --r-min -1.4 --r-max -0.6 --step 0.2
TORUS_GRID = np.arange(-1.4, -0.6 + 0.5 * 0.2, 0.2)


def split_floats(doc: dict) -> dict:
    """``doc`` as {"exact": non-float fields, "hex": float fields as float.hex}."""
    return {"exact": {k: v for k, v in doc.items() if not isinstance(v, float)},
            "hex": {k: v.hex() for k, v in doc.items() if isinstance(v, float)}}


def constants_pin(model: str, E: float) -> dict:
    res = ax.compute(dataclasses.replace(ax.preset(model), E=E))
    doc = res.to_dict()
    if res.lambda2 is not None:
        doc["Lambda2"] = res.lambda2
    return {"model": model, "E": E, **split_floats(doc)}


def torus_pins() -> list[dict]:
    # the CLI's defaults: radius 2, z_center 0, interval -1,1
    return [split_floats(row) for row in ax.toroidal_sweep(2.0, 0.0, (-1.0, 1.0), TORUS_GRID)]


def main() -> None:
    asym = {model: ax.compute(ax.preset(model)) for model in "BDHL"}
    table = []
    for model, eps in SWEEPS:
        sweep = lame2d.k_sweep(ax.preset(model), eps, asym=asym[model])
        table.append({"model": model, "eps": eps, "k_opt": sweep.k_opt,
                      "lambda1": float(sweep.lambda1).hex()})
    sections = {"table": table,
                "constants": [constants_pin(model, E) for model, E in CONSTANTS],
                "torus_sweep": torus_pins()}
    # one entry per line
    PATH.write_text("{\n" + ",\n".join(
        f'"{name}": [\n' + ",\n".join(json.dumps(pin) for pin in pins) + "\n]"
        for name, pins in sections.items()) + "\n}\n")


if __name__ == "__main__":
    main()
