import json
import os

import pytest

from twyang.cli import main


def test_verify_rmatrix_pass(capsys):
    assert main(["verify", "rmatrix", "--family", "gN", "--N", "4",
                 "--gN-family", "symplectic"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_rmatrix_gl(capsys):
    assert main(["verify", "rmatrix", "--family", "glN", "--N", "3"]) == 0


def test_verify_kmatrix_bia(capsys):
    assert main(["verify", "kmatrix", "--pair", "BIa", "--N", "5",
                 "--p", "3", "--q", "2"]) == 0
    assert main(["verify", "kmatrix", "--pair", "CI", "--N", "4", "-a", "3/7"]) == 0


def test_config_error_exit_code():
    assert main(["verify", "kmatrix", "--pair", "DIb", "--N", "6",
                 "--p", "3", "--q", "3"]) == 2
    assert main(["classify", "--in", "/nonexistent/weights.json"]) == 2


def test_build_verify_classify_pipeline(tmp_path, capsys):
    mod = tmp_path / "so3.json"
    assert main(["build", "eval", "--pair", "B0", "--mu", "-1",
                 "--out", str(mod)]) == 0
    assert main(["verify", "module", "--in", str(mod)]) == 0
    w = tmp_path / "w.json"
    assert main(["weights", "--in", str(mod), "--out", str(w)]) == 0
    assert main(["classify", "--in", str(w)]) == 0
    out = capsys.readouterr().out
    assert '"finite_dim": "yes"' in out


def test_build_tensor_and_restrict(tmp_path):
    x = tmp_path / "x.json"
    v = tmp_path / "v.json"
    t = tmp_path / "t.json"
    assert main(["build", "vector", "--N", "4", "--family", "sp",
                 "--a", "0", "--out", str(x)]) == 0
    assert main(["build", "onedim", "--pair", "CI", "--N", "4",
                 "--out", str(v)]) == 0
    assert main(["build", "tensor", "--x", str(x), "--v", str(v),
                 "--out", str(t)]) == 0
    r = tmp_path / "r.json"
    assert main(["build", "restrict", "--op", "vplus", "--in", str(t),
                 "--out", str(r)]) == 0
    assert main(["verify", "module", "--in", str(r)]) == 0
    assert main(["build", "restrict", "--op", "vj", "--in", str(t)]) == 0


def test_classify_inconclusive_exit_code(tmp_path, capsys):
    from twyang.classify import WeightTuple
    from twyang.exact import rf
    from twyang.rkmat import pair
    from twyang import serialize

    wt = WeightTuple(pair("CI", 2), {1: rf((2, 0, 1), (0, 0, 1))})
    f = tmp_path / "w.json"
    serialize.dump(wt, f)
    assert main(["classify", "--in", str(f)]) == 3


def test_identity_failure_exit_code(tmp_path):
    # corrupt a serialized module on disk; verify must exit 1
    from twyang import serialize
    from twyang.reps import eval_sp2

    f = tmp_path / "m.json"
    serialize.dump(eval_sp2("C0", -1), f)
    data = json.loads(f.read_text())
    data["entries"]["1,1"][0][0]["num"] = ["7"]
    f.write_text(json.dumps(data))
    assert main(["verify", "module", "--in", str(f)]) == 1


def test_build_bridge(tmp_path):
    out = tmp_path / "b.json"
    assert main(["build", "bridge", "--variant", "so3", "--mu=-1/2",
                 "--out", str(out)]) == 0
    assert main(["verify", "module", "--in", str(out)]) == 0
    assert main(["build", "bridge", "--variant", "DIII", "--mu1", "1",
                 "--mu2", "0", "--out", str(out)]) == 0


@pytest.mark.parametrize("mu", ["0", "-1/2", "-1", "-3/2"])
def test_bridge_so3_file_equals_eval_file(tmp_path, mu):
    files = {}
    for kind, args in (("bridge", ["--variant", "so3"]), ("eval", ["--pair", "B0"])):
        f = files[kind] = tmp_path / f"{kind}.json"
        assert main(["build", kind, *args, f"--mu={mu}", "--out", str(f)]) == 0
    bridge, ev = (json.loads(f.read_text()) for f in files.values())
    for key in ("pair", "dim", "entries"):
        assert bridge[key] == ev[key], key


def _short_row(d):
    d["entries"]["1,1"][0].pop()


def _extra_row(d):
    d["entries"]["1,1"].append(d["entries"]["1,1"][0])


def _bare_number_cell(d):
    d["entries"]["1,1"][0][0] = 7


def _cell_without_den(d):
    del d["entries"]["1,1"][0][0]["den"]


def _extra_label_entry(d):
    d["entries"]["5,5"] = d["entries"]["1,1"]


def _key_not_i_j(d):
    d["entries"]["1;1"] = d["entries"].pop("1,1")


MALFORMED = {
    "short-row": _short_row,
    "extra-row": _extra_row,
    "dim-too-large": lambda d: d.update(dim=3),
    "dim-zero": lambda d: d.update(dim=0),
    "dim-string": lambda d: d.update(dim="2"),
    "N-string": lambda d: d["pair"].update(N="two"),
    "bare-number-cell": _bare_number_cell,
    "cell-without-den": _cell_without_den,
    "extra-label-entry": _extra_label_entry,
    "key-not-i,j": _key_not_i_j,
    "pair-list": lambda d: d.update(pair=[1]),
    "pair-p-string": lambda d: d["pair"].update(p="3", q=1),
    "pair-p-q-on-C0": lambda d: d["pair"].update(p=1, q=1),
}


@pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_module_file_is_a_config_error(tmp_path, mutate):
    # a malformed module file is bad input (exit 2), never a failed identity (1)
    from twyang import serialize
    from twyang.reps import eval_sp2

    data = serialize.module_json(eval_sp2("C0", -1))
    mutate(data)
    f = tmp_path / "m.json"
    f.write_text(json.dumps(data))
    assert main(["verify", "module", "--in", str(f)]) == 2
    assert main(["weights", "--in", str(f)]) == 2


def test_classify_forced_degree_no_control(tmp_path, capsys):
    # C0 N=2, mu_1 = (u + 1/3)/u: P_1 would have degree -1/3, so the weight is
    # decided "no" (a search up to --deg-max could only say inconclusive)
    from fractions import Fraction

    from twyang import serialize
    from twyang.classify import WeightTuple
    from twyang.exact import rf
    from twyang.rkmat import pair

    f = tmp_path / "w.json"
    serialize.dump(WeightTuple(pair("C0", 2), {1: rf((Fraction(1, 3), 1), (0, 1))}), f)
    assert main(["classify", "--in", str(f)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["finite_dim"] == "no" and "-1/3" in out["diagnostics"][0]


def test_classify_large_height_certificate_does_not_hang(tmp_path):
    # CI N=2 weights whose Q_1 roots and gamma have height ~1e15: the gamma
    # candidates are rational roots of a numerator with a ~1e45 constant term,
    # out of reach of divisor enumeration; the certificate must come back
    import subprocess
    import sys
    from fractions import Fraction

    import twyang
    from twyang import serialize
    from twyang.classify import Certificate, construct_from_cert
    from twyang.exact import Poly
    from twyang.rkmat import pair

    Q = Poly.from_roots([Fraction(10**15 + 37), Fraction(-(10**15 + 91), 3)])
    P = Q * Q.compose_affine(-1, Fraction(4))
    cert = Certificate(pair("CI", 2), [P], gamma=Fraction(10**15 + 3, 7))
    f = tmp_path / "w.json"
    serialize.dump(construct_from_cert(cert, [Q]), f)
    src = os.path.dirname(os.path.dirname(twyang.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "twyang.cli", "classify", "--in", str(f)],
                         capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    verdict = json.loads(out.stdout)
    assert verdict["finite_dim"] == "yes"
    assert verdict["certificate"] == {"P": [str(P)], "gamma": str(cert.gamma)}


def test_negative_deg_max_is_a_config_error(tmp_path):
    from twyang import serialize
    from twyang.classify import WeightTuple
    from twyang.rkmat import pair

    f = tmp_path / "w.json"
    serialize.dump(WeightTuple(pair("C0", 2), {1: "1"}), f)
    assert main(["classify", "--in", str(f), "--deg-max", "0"]) == 0
    assert main(["classify", "--in", str(f), "--deg-max", "-1"]) == 2


def _module_file():
    from twyang import serialize
    from twyang.reps import eval_sp2

    data = serialize.module_json(eval_sp2("C0", -1))
    data["entries"]["1,1"][0][0]["num"] = [0.1]
    return data, [["verify", "module"], ["weights"]]


def _weights_file():
    from twyang import serialize
    from twyang.classify import WeightTuple
    from twyang.rkmat import pair

    data = serialize.weights_json(WeightTuple(pair("C0", 2), {1: "1"}))
    data["mu"]["1"]["num"] = [1.0]  # exactly 1 as a float: still inexact input
    return data, [["classify"]]


def _certificate_file():
    from twyang import serialize
    from twyang.classify import Certificate
    from twyang.exact import Poly
    from twyang.rkmat import pair

    data = serialize.certificate_json(Certificate(pair("C0", 2), [Poly((1,))]))
    data["P"][0] = [1.0]
    return data, [["classify"], ["weights"], ["verify", "module"]]


def _b0_weights():
    from twyang import serialize
    from twyang.classify import WeightTuple
    from twyang.rkmat import pair

    return serialize.weights_json(WeightTuple(pair("B0", 3), {0: "1", 1: "1"}))


MALFORMED_WEIGHTS = {
    "mu-list": (lambda d: d.update(mu=[1]), "'mu'"),
    "mu-extra-component": (lambda d: d["mu"].update({"7": d["mu"]["1"]}), "'mu'"),
    "mu-missing-component": (lambda d: d["mu"].pop("0"), "'mu'"),
    "pair-list": (lambda d: d.update(pair=[1]), "'pair'"),
    "pair-p-q-on-B0": (lambda d: d["pair"].update(p=3, q=1), "'p'"),
}


@pytest.mark.parametrize("mutate, field", MALFORMED_WEIGHTS.values(),
                         ids=MALFORMED_WEIGHTS.keys())
def test_malformed_weights_file_is_a_config_error(tmp_path, capsys, mutate, field):
    data = _b0_weights()
    f = tmp_path / "w.json"
    f.write_text(json.dumps(data))
    assert main(["classify", "--in", str(f)]) == 0
    capsys.readouterr()
    mutate(data)
    f.write_text(json.dumps(data))
    assert main(["classify", "--in", str(f)]) == 2
    assert field in capsys.readouterr().err


FLOAT_FILES = {"module": _module_file, "weights": _weights_file,
               "certificate": _certificate_file}


@pytest.mark.parametrize("make", FLOAT_FILES.values(), ids=FLOAT_FILES.keys())
def test_float_coefficient_is_a_config_error(tmp_path, make):
    # JSON floats are inexact: the file formats hold ints and rational strings
    from twyang import serialize

    data, commands = make()
    f = tmp_path / "in.json"
    f.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="int or a rational string"):
        serialize.load(f)
    for cmd in commands:
        assert main(cmd + ["--in", str(f)]) == 2


def test_bool_and_zero_denominator_coefficients_are_config_errors(tmp_path):
    from twyang import serialize

    data, _ = _weights_file()
    for bad in ([True], ["1/0"], [None]):
        data["mu"]["1"]["num"] = bad
        f = tmp_path / "w.json"
        f.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            serialize.load(f)
        assert main(["classify", "--in", str(f)]) == 2


def _c0_weights():
    from twyang import serialize
    from twyang.classify import WeightTuple
    from twyang.rkmat import pair

    return serialize.weights_json(WeightTuple(pair("C0", 2), {1: "1"}))


def _c0_certificate():
    from twyang import serialize
    from twyang.classify import Certificate
    from twyang.exact import Poly
    from twyang.rkmat import pair

    return serialize.certificate_json(Certificate(pair("C0", 2), [Poly((1,))]))


def _x_module(N=2, family="symplectic", as_family=None):
    from twyang import serialize
    from twyang.reps import vector_eval_x

    data = serialize.module_json(vector_eval_x(N, family, 0))
    data["family"] = as_family or family
    return data


# (file contents, command, message on stderr): a readable file of the wrong
# kind, or JSON that is not an object, is bad input (exit 2), never exit 1
WRONG_INPUT = {
    "weights-file-verify": (_c0_weights, ["verify", "module"], "input is not a module file"),
    "certificate-file-verify": (_c0_certificate, ["verify", "module"],
                                "input is not a module file"),
    "weights-file-restrict": (_c0_weights, ["build", "restrict", "--op", "vj"],
                              "restrictions act on twisted module files"),
    "x-module-restrict": (_x_module, ["build", "restrict", "--op", "vplus"],
                          "restrictions act on twisted module files"),
    # an X-module over an (N, family) that g_N does not have
    "x-module-odd-symplectic": (lambda: _x_module(3, "orthogonal", "symplectic"),
                                ["verify", "module"], "symplectic requires even N"),
    "x-module-small-orthogonal": (lambda: _x_module(2, "symplectic", "orthogonal"),
                                  ["verify", "module"], "orthogonal requires N >= 3"),
    **{f"{name}-{cmd[0]}": (lambda v=value: v, cmd, "unrecognized file schema")
       for name, value in (("string-entries", "entries"), ("list-entries", ["entries"]),
                           ("list-P", ["P"]), ("number", 7))
       for cmd in (["verify", "module"], ["classify"], ["weights"])},
}


@pytest.mark.parametrize("make, cmd, message", WRONG_INPUT.values(), ids=WRONG_INPUT.keys())
def test_wrong_input_kind_is_a_config_error(tmp_path, capsys, make, cmd, message):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(make()))
    assert main(cmd + ["--in", str(f)]) == 2
    assert message in capsys.readouterr().err


# (command line, message on stderr): a missing option or a zero denominator
# on the command line is bad input (exit 2), never a traceback and exit 1
BAD_COMMAND_LINES = [
    ("verify rmatrix --family so", "--N is required for verify rmatrix"),
    ("verify kmatrix --pair CI", "--N is required for verify kmatrix"),
    ("verify module", "--in is required for verify module"),
    ("build vector --family sp", "--N is required for build vector"),
    ("build onedim --pair CI", "--N is required for build onedim"),
    ("build eval --pair C0", "--mu is required for build eval"),
    ("build eval --pair D0", "--mu1 is required for build eval"),
    ("build eval --pair D0 --mu1 1", "--mu2 is required for build eval"),
    ("build tensor", "--x is required for build tensor"),
    ("build restrict --op vplus", "--in is required for build restrict"),
    ("build bridge --variant so3", "--mu is required for build bridge"),
    ("verify kmatrix --pair CI --N 4 -a=1/0", "zero denominator in '1/0'"),
    ("build vector --N 4 --family sp --a 1/0", "zero denominator in '1/0'"),
    ("build eval --pair C0 --mu 1/0", "zero denominator in '1/0'"),
]


@pytest.mark.parametrize("argv, message", BAD_COMMAND_LINES,
                         ids=[a for a, _ in BAD_COMMAND_LINES])
def test_bad_command_line_is_a_config_error(capsys, argv, message):
    assert main(argv.split()) == 2
    assert message in capsys.readouterr().err
