import json

import numpy as np
import pytest

from divsym.cli import main
from divsym.fields import divergence, field_from_dict
from divsym.maximal import read_grid
from divsym import schemas


def run(args):
    return main([str(a) for a in args])


class TestGenField:
    def test_deterministic_bytes(self, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (f1, f2):
            assert run(["gen-field", "--seed", 3, "--max-freq", 2, "--amplitude", 1.0,
                        "--divfree", "--out", out]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_divfree_on_reload(self, tmp_path):
        out = tmp_path / "f.json"
        run(["gen-field", "--seed", 5, "--max-freq", 2, "--amplitude", 1.0, "--divfree",
             "--out", out])
        f = field_from_dict(json.loads(out.read_text()))
        assert divergence(f).max_coeff_norm() < 1e-12 * max(1.0, f.max_coeff_norm())

    def test_zero_amplitude_empty_modes(self, tmp_path):
        out = tmp_path / "z.json"
        run(["gen-field", "--seed", 1, "--max-freq", 2, "--amplitude", 0.0, "--out", out])
        assert json.loads(out.read_text())["modes"] == []


@pytest.fixture(scope="module")
def field_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "field.json"
    run(["gen-field", "--seed", 7, "--max-freq", 2, "--amplitude", 1.0, "--divfree",
         "--out", path])
    return path


class TestTruncate:
    def test_huge_lambda_zero_change(self, field_file, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["truncate", "--field", field_file, "--lambda", 1e9, "--grid-n", 16,
                    "--out", out]) == 0
        rep = json.loads(out.read_text())
        schemas.validate("report", rep)
        assert rep["changed_measure"] == 0.0
        grid = read_grid(rep["sampled_field"])
        assert grid.n == 32

    def test_report_schema_and_grid(self, field_file, tmp_path):
        out = tmp_path / "rep2.json"
        assert run(["truncate", "--field", field_file, "--lambda", 26.5, "--grid-n", 16,
                    "--out", out]) == 0
        rep = json.loads(out.read_text())
        schemas.validate("report", rep)
        assert rep["eval_m"] == 32

    def test_non_divfree_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        run(["gen-field", "--seed", 2, "--max-freq", 1, "--amplitude", 1.0, "--out", bad])
        out = tmp_path / "rep3.json"
        code = run(["truncate", "--field", bad, "--lambda", 1.0, "--grid-n", 16, "--out", out])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert "error" in err

    def test_schema_failure_exits_with_error_object(self, field_file, tmp_path, capsys,
                                                    monkeypatch):
        from divsym import cli

        class Incomplete:
            def to_dict(self):
                return {"lambda": 1e9}

        monkeypatch.setattr(cli, "verify", lambda ctx: Incomplete())
        code = run(["truncate", "--field", field_file, "--lambda", 1e9, "--grid-n", 16,
                    "--out", tmp_path / "r.json"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"

    def test_resolution_guardrail(self, field_file, tmp_path, capsys):
        code = run(["truncate", "--field", field_file, "--lambda", 1.0, "--grid-n", 8,
                    "--out", tmp_path / "r.json"])
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().out)


class TestCompare:
    def test_report(self, field_file, tmp_path):
        out = tmp_path / "cmp.json"
        assert run(["compare", "--field", field_file, "--lambda", 1e6, "--grid-n", 16,
                    "--out", out]) == 0
        rep = json.loads(out.read_text())
        schemas.validate("compare", rep)
        assert rep["geometric"]["changed_measure"] == 0.0


class TestEnvelope:
    def test_member_center(self, tmp_path):
        kfile = tmp_path / "k.json"
        kfile.write_text(json.dumps({"kind": "ball", "center": np.zeros((3, 3)).tolist(),
                                     "radius": 1.0}))
        out = tmp_path / "env.json"
        assert run(["envelope", "--set", kfile, "--xi", "0,0,0,0,0,0", "--p", 2,
                    "--max-freq", 1, "--restarts", 2, "--iters", 10, "--out", out]) == 0
        rep = json.loads(out.read_text())
        schemas.validate("envelope", rep)
        assert rep["result"]["member"]

    def test_malformed_set(self, tmp_path, capsys):
        kfile = tmp_path / "k.json"
        kfile.write_text(json.dumps({"kind": "blob"}))
        code = run(["envelope", "--set", kfile, "--xi", "0,0,0,0,0,0", "--p", 2,
                    "--out", tmp_path / "e.json"])
        assert code == 2

    def test_bad_xi(self, tmp_path, capsys):
        kfile = tmp_path / "k.json"
        kfile.write_text(json.dumps({"kind": "ball", "center": np.zeros((3, 3)).tolist(),
                                     "radius": 1.0}))
        code = run(["envelope", "--set", kfile, "--xi", "1,2", "--p", 2,
                    "--out", tmp_path / "e.json"])
        assert code == 2
