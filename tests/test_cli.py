import json
import warnings

import numpy as np
import pytest

from divsym.cli import main
from divsym.fields import _div_defect, field_from_dict, field_to_dict, random_field
from divsym.maximal import read_grid
from divsym.truncation import lambda_for_fraction
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
        assert _div_defect(f) < 1e-12 * max(1.0, f.max_coeff_norm())

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

    def test_benchmark_field_figures(self, tmp_path):
        # the n=16 benchmark input: random_field(3) at the lambda that flags 8 % of the cells
        payload = field_to_dict(random_field(3, 2, 1.0, divfree=True))
        field = tmp_path / "field.json"
        field.write_text(json.dumps(payload))
        lam = lambda_for_fraction(field_from_dict(payload), 16, 0.08)
        out = tmp_path / "bench.json"
        assert run(["truncate", "--field", field, "--lambda", lam, "--grid-n", 16, "--out", out]) == 0
        rep = json.loads(out.read_text())
        counts = {key: rep[key] for key in ("grid_n", "eval_m", "cover_size", "triple_count", "overlap")}
        assert counts == {"grid_n": 16, "eval_m": 32, "cover_size": 328, "triple_count": 3257, "overlap": 8}
        figures = {
            "lambda": 29.571057138747136, "lambda_effective": 36.96382142343392,
            "linf_ratio": 36.689869404712766, "l1_distance": 21.6740111529894,
            "tail_integral": 25.564210478211557, "stability_ratio": 0.8478263457994221,
            "changed_measure": 0.080078125, "small_change_ratio": 0.092629295630193,
            "spiked_defect": 92.90021586597199,
            "div_defects": [14.296526504687328, 3.791957139340912, 8.933889290293948, 16.426384538414375,
                            13.97700112046452, 4.94150404110541, 8.622469327755848, 15.980238805161605,
                            15.775054015167905, 17.089082109900993, 15.559025548238425, 8.704597323753358],
        }
        assert set(figures) | set(counts) == set(rep) - {"sampled_field"}
        for key, value in figures.items():
            assert rep[key] == pytest.approx(value, rel=1e-12, abs=0), key
        assert max(rep["div_defects"]) / rep["spiked_defect"] == pytest.approx(
            0.18395094080893676, rel=1e-12, abs=0)
        grid = read_grid(rep["sampled_field"])
        assert grid.n == 32
        assert grid.values.max() == pytest.approx(rep["linf_ratio"] * lam, rel=1e-15, abs=0)

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

        verify = cli.verify
        monkeypatch.setattr(cli, "verify", lambda ctx: ({"lambda": 1e9}, verify(ctx)[1]))
        code = run(["truncate", "--field", field_file, "--lambda", 1e9, "--grid-n", 16,
                    "--out", tmp_path / "r.json"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"
        # the report is refused before either file is written
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.grid.bin").exists()

    def test_resolution_guardrail(self, field_file, tmp_path, capsys):
        code = run(["truncate", "--field", field_file, "--lambda", 1.0, "--grid-n", 8,
                    "--out", tmp_path / "r.json"])
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().out)


MODE = {"xi": [1, 0, 0], "re": [0.0] * 6}  # no "im"
WHOLE = dict(MODE, im=[0.0] * 6)


@pytest.mark.parametrize("command", ["truncate", "compare"])
@pytest.mark.parametrize("payload", [{"period": 1.0}, {"period": 1.0, "modes": [MODE]}, [MODE], {"modes": [WHOLE]},
                                     {"period": 1.0, "modes": [dict(WHOLE, xi=[1.5, 0, 0])]}],
                         ids=["no-modes", "mode-without-im", "list", "no-period", "fractional-xi"])
def test_malformed_field_file_exits_with_error_object(command, payload, tmp_path, capsys):
    field = tmp_path / "field.json"
    field.write_text(json.dumps(payload))
    code = run([command, "--field", field, "--lambda", 1.0, "--grid-n", 16, "--out", tmp_path / "r.json"])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().out)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command", ["truncate", "compare"])
@pytest.mark.parametrize("payload, names", [
    ({"period": NAN, "modes": [WHOLE]}, "period"),
    ({"period": INF, "modes": [WHOLE]}, "period"),
    ({"period": 1.0, "modes": [dict(WHOLE, re=[NAN] + [0.0] * 5)]}, "(1, 0, 0)"),
    ({"period": 1.0, "modes": [dict(WHOLE, im=[0.0, 0.0, INF, 0.0, 0.0, 0.0])]}, "(1, 0, 0)"),
    ({"period": 1.0, "modes": [dict(WHOLE, xi=[INF, 0, 0])]}, "[inf, 0, 0]"),
], ids=["nan-period", "inf-period", "nan-coefficient", "inf-coefficient", "inf-xi"])
def test_non_finite_field_file_refused_at_load(command, payload, names, tmp_path, capsys):
    # json writes nan and inf as NaN and Infinity, which it also reads; the field's
    # constructor names the bad period or mode, before any grid is sampled
    field, out = tmp_path / "field.json", tmp_path / "r.json"
    field.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([command, "--field", field, "--lambda", 1.0, "--grid-n", 16, "--out", out])
    assert code == 2 and not out.exists()
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValueError" and names in err["message"]


@pytest.mark.parametrize("command", ["truncate", "compare"])
@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_non_finite_lambda_exits_with_error_object(command, lam, field_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run([command, "--field", field_file, "--lambda", lam, "--grid-n", 16, "--out", out])
    assert code == 2 and not out.exists()
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "PreconditionError", "message": "lambda must be positive and finite"}


class TestCompare:
    def test_report(self, field_file, tmp_path):
        out = tmp_path / "cmp.json"
        assert run(["compare", "--field", field_file, "--lambda", 1e6, "--grid-n", 16,
                    "--out", out]) == 0
        rep = json.loads(out.read_text())
        schemas.validate("compare", rep)
        assert rep["geometric"]["changed_measure"] == 0.0

    def test_benchmark_field_figures(self, tmp_path):
        # the n=16 benchmark input: random_field(3) at the lambda that flags 8 % of the cells
        payload = field_to_dict(random_field(3, 2, 1.0, divfree=True))
        field, out = tmp_path / "field.json", tmp_path / "cmp.json"
        field.write_text(json.dumps(payload))
        lam = lambda_for_fraction(field_from_dict(payload), 16, 0.08)
        assert run(["compare", "--field", field, "--lambda", lam, "--grid-n", 16, "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["geometric"]["bad_fraction"] == 0.080078125
        assert rep["potential"]["bad_fraction"] == 0.664306640625
        assert rep["linf_u"] == 51.94790479983648


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

    @pytest.mark.parametrize("payload", [{"kind": "points"}, {"kind": "ball", "radius": 1}, [{"kind": "ball"}],
                                         {"kind": "ball", "center": np.eye(3).tolist(), "radius": None}],
                             ids=["points-without-points", "ball-without-center", "list", "null-radius"])
    def test_incomplete_set_exits_with_error_object(self, payload, tmp_path, capsys):
        kfile = tmp_path / "k.json"
        kfile.write_text(json.dumps(payload))
        code = run(["envelope", "--set", kfile, "--xi", "0,0,0,0,0,0", "--p", 2, "--out", tmp_path / "e.json"])
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("flag, value, message", [("--max-freq", 65, "exceeds 64"), ("--seed", -1, "negative")])
    def test_unseeded_query_exits_with_error_object(self, flag, value, message, tmp_path, capsys):
        kfile, out = tmp_path / "k.json", tmp_path / "e.json"
        kfile.write_text(json.dumps({"kind": "points", "points": [np.eye(3).tolist()]}))
        code = run(["envelope", "--set", kfile, "--xi", "0,0,0,0,0,0", "--p", 2, flag, value, "--out", out])
        assert code == 2 and not out.exists()
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "PreconditionError" and message in err["message"]

    def test_bad_xi(self, tmp_path, capsys):
        kfile = tmp_path / "k.json"
        kfile.write_text(json.dumps({"kind": "ball", "center": np.zeros((3, 3)).tolist(),
                                     "radius": 1.0}))
        code = run(["envelope", "--set", kfile, "--xi", "1,2", "--p", 2,
                    "--out", tmp_path / "e.json"])
        assert code == 2

    @pytest.mark.parametrize("payload, xi, p", [
        ({"kind": "points", "points": [np.diag([np.nan, 0, 0]).tolist(), np.eye(3).tolist()]}, "0,0,0,0,0,0", "2"),
        ({"kind": "ball", "center": np.diag([0, np.inf, 0]).tolist(), "radius": 1.0}, "0,0,0,0,0,0", "2"),
        ({"kind": "ball", "center": np.zeros((3, 3)).tolist(), "radius": np.nan}, "0,0,0,0,0,0", "2"),
        ({"kind": "ball", "center": np.zeros((3, 3)).tolist(), "radius": np.inf}, "0,0,0,0,0,0", "2"),
        ({"kind": "points", "points": [np.eye(3).tolist()]}, "nan,0,0,0,0,0", "2"),
        ({"kind": "points", "points": [np.eye(3).tolist()]}, "0,0,0,0,0,-inf", "2"),
        ({"kind": "points", "points": [np.eye(3).tolist()]}, "0,0,0,0,0,0", "nan"),
        ({"kind": "points", "points": [np.eye(3).tolist()]}, "0,0,0,0,0,0", "inf"),
    ], ids=["nan-point", "inf-centre", "nan-radius", "inf-radius", "nan-xi", "inf-xi", "nan-p", "inf-p"])
    def test_non_finite_input_exits_with_error_object(self, payload, xi, p, tmp_path, capsys):
        # json writes nan and inf as NaN and Infinity, which it also reads
        kfile, out = tmp_path / "k.json", tmp_path / "e.json"
        kfile.write_text(json.dumps(payload))
        code = run(["envelope", "--set", kfile, "--xi", xi, "--p", p, "--max-freq", 1, "--restarts", 1,
                    "--iters", 2, "--out", out])
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().out)
        assert not out.exists()


@pytest.mark.parametrize("payload", [
    {"kind": "points", "points": [[[1, 5, 0], [0, 0, 0], [0, 0, 0]]]},
    {"kind": "polytope", "points": [np.eye(3).tolist(), [[0, 0, 0], [0, 0, 2], [0, 0, 0]]]},
    {"kind": "ball", "center": [[0, 0, 0], [0, 0, 0], [1, 0, 0]], "radius": 1.0},
], ids=["points", "polytope", "ball"])
def test_asymmetric_set_exits_with_error_object(payload, tmp_path, capsys):
    kfile, out = tmp_path / "k.json", tmp_path / "e.json"
    kfile.write_text(json.dumps(payload))
    code = run(["envelope", "--set", kfile, "--xi", "0,0,0,0,0,0", "--p", 2, "--max-freq", 1, "--restarts", 1,
                "--iters", 2, "--out", out])
    assert code == 2 and not out.exists()
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValueError" and "not symmetric" in err["message"]


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once; a usage error in one call leaves the next call's parse unchanged
    from divsym import cli

    assert cli._build_parser() is cli._build_parser()
    out = tmp_path / "f.json"
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(["truncate", "--field", out, "--grid-n", 16])  # no --lambda, no --out
        assert exc.value.code == 2 and "--lambda" in capsys.readouterr().err
        assert run(["gen-field", "--seed", 2, "--max-freq", 1, "--amplitude", 1.0, "--out", out]) == 0
        assert not hasattr(cli._build_parser().parse_args(["gen-field", "--seed", "1", "--max-freq", "1",
                                                           "--amplitude", "1", "--out", "x"]), "lam")
