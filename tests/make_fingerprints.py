"""Write tests/fingerprints.json: k_opt and lambda_1(k_opt) of the 16 table sweeps.

Usage (from the repository root):

    PYTHONPATH=src python tests/make_fingerprints.py

Each sweep runs as the ``sweep2d`` test fixture runs it: default mesh and
degree, warm starts, and the 1D asymptotics of its model for the wavenumber
cap.  lambda_1 is stored with ``float.hex``, so the file holds the exact
double that ``test_wavenumber_table_fingerprints`` compares against.
"""

import json
from pathlib import Path

import axishell as ax
from axishell import lame2d

PATH = Path(__file__).with_name("fingerprints.json")
SWEEPS = [(model, eps) for model in "BDHL" for eps in (0.1, 0.05, 0.02, 0.01)]


def main() -> None:
    asym = {model: ax.compute(ax.preset(model)) for model in "BDHL"}
    pins = []
    for model, eps in SWEEPS:
        sweep = lame2d.k_sweep(ax.preset(model), eps, asym=asym[model])
        pins.append({"model": model, "eps": eps, "k_opt": sweep.k_opt,
                     "lambda1": float(sweep.lambda1).hex()})
    # one sweep per line
    PATH.write_text("[\n" + ",\n".join(json.dumps(pin) for pin in pins) + "\n]\n")


if __name__ == "__main__":
    main()
