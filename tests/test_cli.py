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
