import json

import pytest

from exunits.cli import main

CIRCLE_CONFIG = {
    "field": {"min_poly": [5, 0, 1]},
    "variety": {
        "amb": 2,
        "codim": 1,
        "degree": 2,
        "equations": ["x1^2 + x2^2 - 1"],
    },
    "f": "x1 - 2",
    "modulus": {"generators": [3]},
}


@pytest.fixture
def circle_config(tmp_path):
    def write(**overrides):
        cfg = json.loads(json.dumps(CIRCLE_CONFIG))
        for key, value in overrides.items():
            cfg[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    return write


class TestCount:
    def test_both_agree(self, circle_config, capsys):
        rc = main(["count", "--config", circle_config(), "--method", "both"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total"] == "4"
        assert out["agreement"] is True
        assert out["modulus_norm"] == "9"
        assert out["exponent"] == 1
        assert len(out["locals"]) == 2
        local = out["locals"][0]
        assert local["p"] == 3
        assert local["factor"] == {"num": 2, "den": 3}

    def test_formula_only(self, circle_config, capsys):
        rc = main(["count", "--config", circle_config()])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["total"] == "4"

    def test_brute_only(self, circle_config, capsys):
        rc = main(["count", "--config", circle_config(), "--method", "brute"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total"] == "4"
        assert out["locals"] == []

    def test_primes_modulus_form(self, circle_config, capsys):
        path = circle_config(
            modulus={"primes": [{"p": 3, "h": [1, 1], "exponent": 2}]}
        )
        rc = main(["count", "--config", path, "--method", "both"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total"] == "6"
        assert out["agreement"] is True

    def test_bad_reduction_exit_two(self, circle_config, capsys):
        path = circle_config(
            modulus={"primes": [{"p": 2, "h": [1, 1], "exponent": 1}]}
        )
        rc = main(["count", "--config", path])
        assert rc == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "BadReduction"
        assert out["witness"] == [[1, 0], [0, 0]]

    def test_malformed_polynomial_exit_one(self, circle_config, capsys):
        path = circle_config(f="2x1")
        rc = main(["count", "--config", path])
        assert rc == 1
        err = capsys.readouterr().err
        assert "offset 1" in err

    def test_invalid_prime_factor_rejected(self, circle_config, capsys):
        path = circle_config(
            modulus={"primes": [{"p": 3, "h": [0, 1], "exponent": 1}]}
        )
        assert main(["count", "--config", path]) == 1

    def test_large_prime_power(self, circle_config, capsys):
        path = circle_config(
            modulus={"primes": [{"p": 3, "h": [1, 1], "exponent": 100}]}
        )
        rc = main(["count", "--config", path])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total"] == str(2 * 3 ** 99)


    def test_worker_invariance(self, circle_config, capsys):
        """--workers is accepted and ignored: the report is byte-identical."""
        path = circle_config(modulus={"generators": [21]})
        outputs = []
        for workers in ("1", "2", "4"):
            argv = ["count", "--config", path, "--method", "both", "--workers", workers]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["agreement"] is True


def _variety(**overrides):
    return {**CIRCLE_CONFIG["variety"], **overrides}


@pytest.mark.parametrize(
    "overrides, argv",
    [
        pytest.param({"variety": _variety(amb="2")}, ["count"], id="amb-string"),
        pytest.param(
            {"variety": _variety(amb=True, equations=["x1^2 - 1"])},
            ["count"],
            id="amb-bool",
        ),
        pytest.param({"options": {"cap": "big"}}, ["count"], id="cap-string"),
        pytest.param({"options": {"cap": True}}, ["count"], id="cap-bool"),
        pytest.param({"modulus": {"generators": 3}}, ["count"], id="generators-int"),
        pytest.param(
            {"modulus": {"generators": [[3, False]]}}, ["count"], id="generator-bool"
        ),
        pytest.param(
            {"modulus": {"primes": [{"p": 3, "h": "x"}]}}, ["count"], id="h-string"
        ),
        pytest.param({"modulus": {"primes": 3}}, ["count"], id="primes-int"),
        pytest.param(
            {"modulus": {"primes": [{"p": 9, "h": [2, 1]}]}},
            ["count"],
            id="p-composite",
        ),
        pytest.param(
            None,
            ["example25", "--a", "2", "--c", "1"]
            + ["--modulus", '{"primes":[{"h":[1,1]}]}'],
            id="prime-without-p",
        ),
    ],
)
def test_malformed_input_exits_one(circle_config, capsys, overrides, argv):
    if overrides is not None:
        argv = argv + ["--config", circle_config(**overrides)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err + captured.out


class TestVerify:
    def test_circle_three(self, circle_config, capsys):
        rc = main(["verify", "--config", circle_config()])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_pass"] is True
        names = [c["name"] for c in out["checks"]]
        assert any("good_reduction" in n for n in names)
        assert any("lifting_census" in n for n in names)
        assert any("multiplicativity" in n for n in names)
        census = next(c for c in out["checks"] if "lifting_census" in c["name"])
        assert census["histogram"] == {"3": 4}

    def test_classical_exunits_composite(self, tmp_path, capsys):
        cfg = {
            "field": {"min_poly": [0, 1]},
            "variety": {"amb": 1, "codim": 0, "degree": 1, "equations": []},
            "f": "x1^2 - x1",
            "modulus": {"generators": [30]},
        }
        path = tmp_path / "q.json"
        path.write_text(json.dumps(cfg))
        rc = main(["verify", "--config", str(path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        mult = next(c for c in out["checks"] if c["name"] == "multiplicativity")
        assert mult["pass"] is True
        assert mult["count"] == 0  # no classical exunit mod 2

    def test_bad_reduction_reported(self, circle_config, capsys):
        path = circle_config(modulus={"generators": [2]})
        rc = main(["verify", "--config", path])
        assert rc == 2
        out = json.loads(capsys.readouterr().out)
        assert out["all_pass"] is False


class TestAsympt:
    def test_csv_and_determinism(self, circle_config, tmp_path, capsys):
        path = circle_config()
        outputs = []
        for workers in ("1", "4", "1"):
            out_path = tmp_path / f"out_{len(outputs)}.csv"
            rc = main(
                [
                    "asympt",
                    "--config",
                    path,
                    "--max-norm",
                    "10",
                    "--out",
                    str(out_path),
                    "--workers",
                    workers,
                ]
            )
            assert rc == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        text = outputs[0].decode()
        lines = text.strip().split("\n")
        assert (
            lines[0]
            == "modulus,N,count,ratio,omega,sum_inv_sqrt,sum_inv,max_local_dev"
        )
        # primes above 3, 5, 7 reduce well for c=1
        assert len(lines) == 6
        assert lines[1].startswith("(3,[1,1]),3,2,")

    def test_header_only_when_family_empty(self, circle_config, capsys):
        rc = main(["asympt", "--config", circle_config(), "--max-norm", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "modulus,N,count,ratio,omega,sum_inv_sqrt,sum_inv,max_local_dev\n"

    def test_products_two(self, circle_config, capsys):
        rc = main(
            [
                "asympt",
                "--config",
                circle_config(),
                "--max-norm",
                "5",
                "--products",
                "2",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        # primes: two above 3 plus the one above 5; pairs: 3 products
        assert len(lines) == 1 + 3 + 3
        assert any(",9," in line for line in lines)  # the product (3)

    def test_max_norm_cap(self, circle_config, capsys):
        assert main(["asympt", "--config", circle_config(), "--max-norm", "20000"]) == 1


class TestExample25:
    def test_corrected(self, capsys):
        rc = main(
            [
                "example25",
                "--a",
                "2",
                "--c",
                "1",
                "--modulus",
                '{"generators": [3]}',
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["example_total"] == "4"
        assert out["theorem1_total"] == "4"
        assert out["brute_total"] == "4"
        assert out["agree"] is True

    def test_strict_paper_flags_disagreement(self, capsys):
        rc = main(
            [
                "example25",
                "--a",
                "2",
                "--c",
                "1",
                "--modulus",
                '{"generators": [3]}',
                "--mode",
                "strict-paper",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["example_total"] == "9"
        assert out["theorem1_total"] == "4"
        assert out["agree"] is False

    def test_inert_eleven(self, capsys):
        rc = main(
            [
                "example25",
                "--a",
                "0",
                "--c",
                "1",
                "--modulus",
                '{"generators": [11]}',
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["example_total"] == out["theorem1_total"] == "116"
        assert out["agree"] is True

    def test_bad_modulus_exit_one(self, capsys):
        rc = main(
            [
                "example25",
                "--a",
                "2",
                "--c",
                "1",
                "--modulus",
                '{"generators": [2]}',
            ]
        )
        assert rc == 1
