"""Command-line interface: verbs, exit codes, output stability."""

import hashlib
import json

import pytest

from qram import identities as I
from qram.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_expand_text_frozen(capsys):
    code, out, _ = run(capsys, "expand", "--series", "T4", "--order", "8")
    assert code == 0
    assert out == "T4 order 8: 1 -625 -2401 0 0 14641 0 28561 0\n"


def test_expand_json_is_byte_stable(capsys):
    code, out1, _ = run(
        capsys, "expand", "--series", "hahnP", "--order", "6", "--format", "json"
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "expand", "--series", "hahnP", "--order", "6", "--format", "json"
    )
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["name"] == "hahnP"
    assert payload["coeffs"][:3] == ["1", "8", "-8"]


def test_expand_unknown_series(capsys):
    code, out, err = run(capsys, "expand", "--series", "T5")
    assert code == 2
    assert out == ""
    assert "unknown series name 'T5'" in err
    assert "T<even j>" in err or "T" in err


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "ode.P", "--order", "40")
    assert code == 0
    assert out.startswith("pass  ode.P")
    assert "registry entries checked" not in out  # footer only with --all


def test_verify_all_footer(capsys):
    code, out, _ = run(
        capsys, "verify", "--all", "--order", "30", "--nmax", "20",
        "--precision", "128",
    )
    assert code == 0
    assert out.rstrip().endswith("81/81 registry entries checked: 81 pass, 0 fail")


def test_verify_requires_target(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "--identity" in err


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--identity", "bogus.id")
    assert code == 2
    assert "unknown identity" in err
    assert "ode.P" in err  # the valid list is shown


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        I,
        "verify_one",
        lambda ident, config: I.VerifyReport(
            ident.id, "fail", 10, {"n": 3, "lhs": "0", "rhs": "1"}
        ),
    )
    code, out, _ = run(capsys, "verify", "--identity", "ode.P")
    assert code == 1
    assert "FAIL" in out and "first failure at n=3" in out


def test_convolve_restricts_kind(capsys):
    code, out, _ = run(capsys, "convolve", "--identity", "t9", "--nmax", "30")
    assert code == 0
    assert out.startswith("pass  t9")
    code, _, err = run(capsys, "convolve", "--identity", "ode.P")
    assert code == 2
    listed = err.split("valid identities:")[-1]
    assert "t9" in listed and "ode.P" not in listed


def test_convolve_all_has_no_registry_footer(capsys):
    code, out, _ = run(capsys, "convolve", "--all", "--nmax", "20")
    assert code == 0
    assert len(out.strip().splitlines()) == 10
    assert "registry entries checked" not in out


def test_eval_text_and_json(capsys):
    code, out, _ = run(capsys, "eval", "--value", "ct5b.phi09", "--precision", "128")
    assert code == 0
    assert out.startswith("pass  ct5b.phi09")
    assert "-3.875" in out
    code, out, _ = run(
        capsys, "eval", "--value", "ct5b.phi09", "--precision", "128",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["precision_bits"] == 128


def test_eval_unknown_value(capsys):
    code, _, err = run(capsys, "eval", "--value", "nope")
    assert code == 2
    assert "ct5.phi01" in err


def test_derive_text(capsys):
    code, out, _ = run(capsys, "derive", "--family", "eps", "--index", "2")
    assert code == 0
    assert out.strip() == "135\U0001d4ab^2 - 240\U0001d4abℰ + 64ℰ^2 + 42\U0001d4ac"


def test_derive_json(capsys):
    code, out, _ = run(
        capsys, "derive", "--family", "T", "--index", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pretty"] == "3P^2 - 2Q"
    assert payload["family"] == "T" and payload["index"] == 2


def test_derive_rejections(capsys):
    code, _, err = run(capsys, "derive", "--family", "X", "--index", "1")
    assert code == 2
    assert "psi" in err
    code, _, err = run(capsys, "derive", "--family", "T", "--index", "-1")
    assert code == 2


def test_list_json_byte_stable(capsys):
    _, out1, _ = run(capsys, "list", "--format", "json")
    _, out2, _ = run(capsys, "list", "--format", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["identities"]) == 81
    assert len(payload["special_values"]) == 19


def test_list_text(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "t9" in out and "ct5.phi16" in out


def test_no_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["expand", "--series", "T4", "--order", "-1"], 0),
        (["verify", "--identity", "ode.P", "--order", "-3"], 0),
        (["verify", "--identity", "t9", "--nmax", "-1"], 0),
        (["eval", "--value", "ct5b.phi09", "--precision", "-4"], 64),
    ],
    ids=["expand-order", "verify-order", "verify-nmax", "eval-precision"],
)
def test_negative_bound_is_usage_error(capsys, argv, bound):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"must be >= {bound}" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["eval", "verify"])
@pytest.mark.parametrize("bits", ["0", "8", "63"])
def test_low_precision_is_usage_error(capsys, verb, bits):
    # the pass gate 2^-(precision-32) is vacuous at low precision
    target = ["--value", "hahn.P"] if verb == "eval" else ["--identity", "hahn.P"]
    with pytest.raises(SystemExit) as exc:
        main([verb, *target, "--precision", bits])
    assert exc.value.code == 2
    assert f"must be >= 64, got {bits}" in capsys.readouterr().err


def test_expand_invalid_theta_exponent_is_unknown_name(capsys):
    code, out, err = run(capsys, "expand", "--series", "theta_p0_p1")
    assert code == 2
    assert out == ""
    assert "unknown series name 'theta_p0_p1'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["convolve", "--identity", "cor1.a", "--nmax", "0"],
        ["convolve", "--all", "--nmax", "0"],
        ["verify", "--all", "--order", "0", "--nmax", "0", "--precision", "64"],
    ],
    ids=["convolve-one", "convolve-all", "verify-all"],
)
def test_bound_outside_convolution_domain_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "no n in 0..0 lies in its domain" in err


@pytest.mark.parametrize("flag", ["--order", "--precision"])
def test_convolve_rejects_unused_options(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["convolve", "--identity", "t9", "--nmax", "10", flag, "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# sha256 of stdout, recorded before Series moved to integer numerators over one
# denominator; E12 has denominators other than 1
GOLDEN = {
    "verify --all --order 60 --nmax 60 --format json":
        "99f3aa8e459a9a081e54f3f85d43dac40c574bb5698a5b33df5d46a922a83420",
    # recorded before the convolution sides became Series
    "convolve --all --nmax 200 --format json":
        "eac0e8e974120ef5df102f89d670a6212c9ff9edcb7d968de67729bfeb88bdb8",
    "list --format json":
        "d16c4399bef81a3cfed2d746d555ea547f2171e0f23013c4ec05ccb04a1d2f7e",
    "expand --series P --order 300 --format json":
        "6b3391a15c7a9a34718ef5d749a36ba2cfef8a1b633b844eb2b23b5b837f467c",
    "expand --series E12 --order 300 --format json":
        "d13ee788f8976441e976abad72bb686210f7fcab39f91c46a5838a1c1b60f74d",
    "expand --series hahnE --order 300 --format json":
        "d19af044ca0547ee7f4ba4e2d6392c3f8498d8edd360c70d501d728cf07b40b2",
    "expand --series phi_tilde_2_7 --order 300 --format json":
        "dc202808ba602c57c597b003833d2a5e96afc50fe009a4bb488b2542f7dc5d2a",
    "expand --series poch --order 300 --format json":
        "3b7f82cf40257b2e55b62a785bf16eee2eb0bfb31592dbe7e0438573655a1396",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


# sha256 of the concatenated stdout of derive --family FAM --index N --format json
# for FAM in T, F, psi, eps and N = 0..12, in that order
DERIVE_GOLDEN = "34c97af5979bdac14b6e24dee4ac3de76f236903e87023be8a5749e8d5f55d02"


def test_derive_golden_output(capsys):
    digest = hashlib.sha256()
    for fam in ("T", "F", "psi", "eps"):
        for n in range(13):
            code, out, _ = run(
                capsys, "derive", "--family", fam, "--index", str(n), "--format", "json"
            )
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == DERIVE_GOLDEN
