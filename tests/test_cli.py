"""Command-line interface: outputs, exit codes, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import axishell
from axishell import asymptotics, profiles
from axishell.cli import main
from axishell.profiles import ShellProfile


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_models(capsys):
    code, out, _ = run(capsys, ["classify", "--model", "H"])
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "GaussElliptic" and abs(doc["z0"]) < 1e-9
    code, out, _ = run(capsys, ["classify", "--model", "A"])
    assert json.loads(out)["class"] == "Cylinder"
    code, out, _ = run(capsys, ["classify", "--model", "L"])
    doc = json.loads(out)
    assert doc["class"] == "AiryElliptic" and doc["z0"] == 0.5


def test_asymptotics_outputs(capsys):
    code, out, _ = run(capsys, ["asymptotics", "--model", "B"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["gamma"] - 2.1247) < 2e-3 * 2.1247
    code, out, _ = run(capsys, ["asymptotics", "--model", "A"])
    doc = json.loads(out)
    assert doc["a0"] == 0.0 and doc["ratio"] == 0.5


def test_hyperbolic_refusal(tmp_path, capsys):
    prof = ShellProfile("polynomial", (-1.0, 1.0), coeffs=(1.0, 0.0, 0.25))
    path = tmp_path / "hyper.json"
    path.write_text(prof.to_json())
    code, out, err = run(capsys, ["asymptotics", "--profile", str(path)])
    assert code == 3
    assert "not applicable" in err
    # malformed profile documents are refused the same way, naming the field
    for doc, field in [({"kind": "polynomial", "interval": [0, 1]}, "coeffs"),
                       ({"interval": [0, 1], "coeffs": [1]}, "kind"),
                       ({"kind": "polynomial", "interval": [0, 1], "coeffs": 5}, "coeffs")]:
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["classify", "--profile", str(path)])
        assert code == 3
        assert err.startswith("error:") and f"'{field}'" in err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep2d", "--model", "B", "--eps", "0.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    code, _, err = run(capsys, ["torus-sweep", "--r-min", "-0.1", "--r-max", "-0.5"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["torus-sweep", "--seed", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--model", "A", "--seed", "0"])
    assert exc.value.code == 2
    # an interval that is not two numbers z- < z+ is refused before any arc is built
    for interval in ("1,-1", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["torus-sweep", f"--interval={interval}"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, option", [
    (["sweep1d", "--model", "B", "--gamma-min", "-1"], "--gamma-min"),
    (["sweep1d", "--model", "B", "--gamma-min", "0"], "--gamma-min"),
    (["sweep1d", "--model", "B", "--gamma-max", "nan"], "--gamma-max"),
    (["sweep1d", "--model", "B", "--n-points", "0"], "--n-points"),
    (["sweep2d", "--model", "H", "--degree", "0"], "--degree"),
    (["trace", "--model", "H", "--degree", "-1"], "--degree"),
    (["sweep2d", "--model", "H", "--jobs", "0"], "--jobs"),
    (["torus-sweep", "--r-min", "-1.2", "--r-max", "-1.0", "--step", "0.1", "--jobs", "-1"],
     "--jobs"),
])
def test_bad_numeric_options_are_usage_errors(argv, option, capsys):
    # refused by the parser, before any profile is classified or solved
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


def test_symbols_dump(capsys):
    code, out, _ = run(capsys, ["symbols", "--model", "A", "--z", "0.3"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["M0"][1][1] - 1 / (0.91 * 16)) < 1e-12
    assert doc["V1"][1]["coeffs"] == [2.0] and doc["V1"][1]["imag"]
    assert doc["H0"] == 0.0


def test_sweep2d_csv_and_determinism(tmp_path, capsys):
    args = ["sweep2d", "--model", "D", "--eps", "0.1", "--mesh", "6x2",
            "--degree", "4", "--out", str(tmp_path)]
    code, out, _ = run(capsys, args)
    assert code == 0
    data = (tmp_path / "sweep2d_D_eps0.1.csv").read_text()
    lines = data.strip().splitlines()
    assert lines[0].startswith("#")
    assert " degree=4 thickness_degree=4 " in lines[0]
    assert lines[1] == "eps,k,lambda1,dofs,residual"
    assert len(lines) >= 4
    summary = (tmp_path / "sweep2d_D_summary.csv").read_text().splitlines()
    assert summary[1] == "eps,k_observed,k_predicted,lambda1,m1,status"
    # determinism: identical payload apart from the timestamp header
    out2 = tmp_path / "again"
    code, _, _ = run(capsys, args[:-1] + [str(out2)])
    data2 = (out2 / "sweep2d_D_eps0.1.csv").read_text()
    strip = lambda t: re.sub(r"generated=\S+", "", t)  # noqa: E731
    assert strip(data) == strip(data2)


def test_torus_sweep_interval_with_a_space_or_equals(capsys):
    # a space-separated value that starts with '-' is the option's value
    strip = lambda t: re.sub(r"generated=\S+", "", t)  # noqa: E731
    outputs = []
    for form in (["--interval", "-0.5,1"], ["--interval=-0.5,1"]):
        code, out, _ = run(capsys, ["torus-sweep", "--r-min", "-1.0", "--r-max", "-0.99", *form])
        assert code == 0
        outputs.append(strip(out))
    assert " interval=-0.5,1 " in outputs[0].splitlines()[0]
    assert outputs[0] == outputs[1]


def test_torus_sweep_csv(tmp_path, capsys):
    code, _, _ = run(capsys, [
        "torus-sweep", "--r-min", "-1.05", "--r-max", "-0.95", "--step", "0.05",
        "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "torus_sweep.csv").read_text().strip().splitlines()
    assert lines[1] == "r_circ,Lambda2,gamma_min,a1,status"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 3
    mid = rows[1]
    assert abs(float(mid[0]) + 1.0) < 1e-12
    assert abs(float(mid[2]) - 0.857004) < 5e-4
    assert abs(float(mid[3]) - 0.707981) < 5e-4
    assert all(float(r[1]) > 0 for r in rows)
    # the pool runs the same worker as the serial loop
    code, _, _ = run(capsys, [
        "torus-sweep", "--r-min", "-1.05", "--r-max", "-0.95", "--step", "0.05",
        "--jobs", "2", "--out", str(tmp_path / "jobs2"),
    ])
    assert code == 0
    strip = lambda t: re.sub(r"generated=\S+", "", t)  # noqa: E731
    assert (strip((tmp_path / "jobs2" / "torus_sweep.csv").read_text())
            == strip((tmp_path / "torus_sweep.csv").read_text()))


def test_sweep1d_gamma_scan(tmp_path, capsys):
    code, _, _ = run(capsys, ["sweep1d", "--model", "B", "--n-points", "12",
                              "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep1d.csv").read_text().strip().splitlines()
    assert lines[1] == "gamma,mu1"
    assert len(lines) == 14
    assert "gamma_opt" in lines[0]


@pytest.mark.parametrize("model", ["B", "D"])
def test_sweep1d_builds_one_scan(model, monkeypatch, capsys):
    # the gamma curve is tabulated on the scan the constants were minimized on
    built = []
    init = asymptotics._GammaScan.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(asymptotics._GammaScan, "__init__", counting_init)
    code, _, _ = run(capsys, ["sweep1d", "--model", model, "--n-points", "4"])
    assert code == 0
    assert len(built) == 1


def test_sweep1d_k_scan_elliptic(tmp_path, capsys):
    code, _, _ = run(capsys, ["sweep1d", "--model", "H", "--eps", "0.001",
                              "--n-points", "6", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep1d.csv").read_text().strip().splitlines()
    assert lines[1] == "k,lambda1"
    assert "k_opt" in lines[0]
    # the scan brackets the reduced-operator minimum near gamma eps^(-2/5)
    k_opt = float(lines[0].split("k_opt=")[1].split()[0])
    assert abs(k_opt - 0.75901 * 0.001 ** -0.4) / (0.75901 * 0.001 ** -0.4) < 0.05


def test_stdout_commands_deterministic(capsys):
    _, out1, _ = run(capsys, ["asymptotics", "--model", "H"])
    _, out2, _ = run(capsys, ["asymptotics", "--model", "H"])
    assert out1 == out2
    _, out1, _ = run(capsys, ["classify", "--model", "D"])
    _, out2, _ = run(capsys, ["classify", "--model", "D"])
    assert out1 == out2


# (a0, a1, gamma) as `axishell asymptotics` prints them, by model and Young's
# modulus E.  A change that moves one of them must update this table and say why.
PRINTED_CONSTANTS = {
    ("A", 1.0): ("0.0", "3.38523", "2.93231"),
    ("B", 1.0): ("0.0", "3.44639", "2.1247"),
    ("D", 1.0): ("0.25", "0.707981", "0.857004"),
    ("H", 1.0): ("0.0625", "0.607854", "0.759011"),
    ("L", 1.0): ("0.178045", "1.55472", "0.851405"),
    ("A", 2.0): ("0.0", "6.77046", "2.93231"),
    ("B", 2.0): ("0.0", "6.89277", "2.1247"),
    ("D", 2.0): ("0.5", "1.41596", "0.857004"),
    ("H", 2.0): ("0.125", "1.21571", "0.759011"),
    ("L", 2.0): ("0.35609", "3.10944", "0.851405"),
}


def test_printed_constants_fingerprint(tmp_path, capsys):
    # the printed digits of the per-class constants are a fingerprint of the
    # whole 1D stack: a relative move of 1e-5 shifts any nonzero one by at least
    # a unit in its sixth digit, and A's a1 at E = 2 changes at 1.2e-7
    for (model, E), want in PRINTED_CONSTANTS.items():
        path = tmp_path / f"{model}_E{E:g}.json"
        path.write_text(dataclasses.replace(profiles.preset(model), E=E).to_json())
        code, out, _ = run(capsys, ["asymptotics", "--profile", str(path)])
        assert code == 0
        # each top-level field on its own line, as printed
        printed = dict(line.strip().rstrip(",").split(": ", 1)
                       for line in out.splitlines()[1:-1])
        got = tuple(printed[f'"{name}"'] for name in ("a0", "a1", "gamma"))
        assert got == want, (model, E)


def test_trace_csv(tmp_path, capsys):
    code, _, _ = run(capsys, ["trace", "--model", "H", "--eps", "0.05", "--k", "2",
                              "--mesh", "8x2", "--degree", "4", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trace_H_eps0.05_k2.csv").read_text().strip().splitlines()
    assert lines[1] == "z,u_r"
    assert "half_width" in lines[0]
    u = [abs(float(ln.split(",")[1])) for ln in lines[2:]]
    assert abs(max(u) - 1.0) < 1e-9


def test_meta_line_names_the_thickness_degree(tmp_path, capsys):
    # --degree is the meridian degree; at 0.01 <= eps < 0.05 the thickness
    # degree is min(degree, 3)
    code, _, _ = run(capsys, ["sweep2d", "--model", "H", "--eps", "0.02", "--mesh", "4x2",
                              "--degree", "4", "--out", str(tmp_path)])
    assert code == 0
    code, _, _ = run(capsys, ["trace", "--model", "H", "--eps", "0.02", "--k", "4",
                              "--mesh", "4x2", "--degree", "4", "--out", str(tmp_path)])
    assert code == 0
    for name in ("sweep2d_H_eps0.02.csv", "trace_H_eps0.02_k4.csv"):
        text = (tmp_path / name).read_text()
        assert sum(ln.startswith("#") for ln in text.splitlines()) == 1, name
        assert " degree=4 thickness_degree=3 " in text.splitlines()[0], name


def test_sweep2d_parallel_jobs(tmp_path, capsys):
    # the pool runs the same worker as the serial loop: the same CSV bytes
    strip = lambda t: re.sub(r"generated=\S+", "", t)  # noqa: E731
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code, _, _ = run(capsys, ["sweep2d", "--model", "A", "--eps", "0.1,0.05",
                                  "--mesh", "6x2", "--degree", "4", "--jobs", jobs,
                                  "--out", str(out)])
        assert code == 0
        outputs.append({p.name: strip(p.read_text()) for p in sorted(out.glob("*.csv"))})
    assert "sweep2d_A_eps0.1.csv" in outputs[0]
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1]


def test_verify_model_A(capsys):
    code, out, _ = run(capsys, ["verify", "--model", "A", "--seed", "7"])
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


_IMPORT_SET = """
import json, sys
FORBIDDEN = ("scipy.optimize", "scipy.special", "scipy.spatial", "scipy.fft",
             "scipy.interpolate")
loaded = {}
import axishell
loaded["import axishell"] = [m for m in FORBIDDEN if m in sys.modules]
from axishell import cli
loaded["import axishell.cli"] = [m for m in FORBIDDEN if m in sys.modules]
for argv in (["sweep2d", "--model", "H", "--eps", "0.1", "--jobs", "1", "--out", sys.argv[1]],
             ["asymptotics", "--model", "L"]):
    assert cli.main(argv) == 0
    loaded[argv[0]] = [m for m in FORBIDDEN if m in sys.modules]
print(json.dumps(loaded))
"""


def test_cli_import_set_leaves_out_optimize_and_special(tmp_path):
    # a cold `axishell` process pays for every module it imports; the package
    # and the sweep2d and asymptotics commands need no scipy beyond sparse
    # and linalg, and each of these would add to the start-up time
    src = str(Path(axishell.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SET, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == dict.fromkeys(
        ["import axishell", "import axishell.cli", "sweep2d", "asymptotics"], [])
