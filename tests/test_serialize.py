import json

import pytest

from twyang import serialize
from twyang.classify import WeightTuple
from twyang.cli import main
from twyang.exact import RatFunc, rf
from twyang.rkmat import pair


def _weights_file(tmp_path, mu1):
    f = tmp_path / "w.json"
    serialize.dump(WeightTuple(pair("CI", 2), {1: RatFunc.of(1)}), f)
    data = json.loads(f.read_text())
    data["mu"]["1"] = mu1
    f.write_text(json.dumps(data))
    return f


def test_load_canonicalizes_rational_functions(tmp_path):
    f = _weights_file(tmp_path, {"num": ["2", "2"], "den": ["2", "2"]})
    assert serialize.load(f).mu[1] == RatFunc.of(1)
    f = _weights_file(tmp_path, {"num": ["1", "2"], "den": ["-2", "2"]})  # (2u+1)/(2u-2)
    assert serialize.load(f).mu[1] == rf((1, 2), (-2, 2))


def test_zero_denominator_is_a_config_error(tmp_path):
    f = _weights_file(tmp_path, {"num": ["1"], "den": ["0"]})
    with pytest.raises(ValueError):
        serialize.load(f)
    assert main(["classify", "--in", str(f)]) == 2
