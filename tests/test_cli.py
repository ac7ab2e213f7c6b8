"""Command-line interface: verbs, exit codes, output stability."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qram import generators as G
from qram import identities as I
from qram.cli import _dumps, main
from qram.numeric import SPECIALS


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


def test_expand_hahn_letter_outside_the_table_is_unknown(capsys):
    code, out, err = run(capsys, "expand", "--series", "hahnX")
    assert (code, out) == (2, "")
    assert err.startswith("unknown series name 'hahnX'; valid series names:\n")


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


# quotes, backslashes, control, DEL, non-ASCII, a line separator and an
# astral letter, beside any text hypothesis draws
_JSON_CHARS = 'a"\\\x00\n\x1f\x7f\xe9\u2028\U0001d4ab'
_JSON_STRS = st.text(st.sampled_from(_JSON_CHARS), max_size=4) | st.text(max_size=4)
_JSON_PAYLOADS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200)
    | st.integers(-(2**200), -(2**64))
    | _JSON_STRS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_JSON_STRS, kids, max_size=4),
    max_leaves=24,
)


@given(_JSON_PAYLOADS)
def test_dumps_writes_what_json_dumps_writes(payload):
    assert _dumps(payload) == json.dumps(payload, sort_keys=True, indent=2)


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


@pytest.mark.parametrize(
    "name",
    ["psi99999999999999999999", "T100002", "phi_tilde_2_100001", "theta_p1_m100001",
     "E" + "9" * 5000],
)
def test_expand_rejects_an_index_past_the_cap_before_building(capsys, monkeypatch, name):
    def unbuilt(*args):
        raise AssertionError(f"{name} was built")

    for builder in ("eisenstein", "family", "phi_series", "theta_f"):
        monkeypatch.setattr(G, builder, unbuilt)
    code, out, err = run(capsys, "expand", "--series", name, "--order", "2")
    assert (code, out) == (2, "")
    assert err == f"series name {name!r}: an index above {G.MAX_NAME_INDEX}\n"


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


def test_output_digest_prints_the_golden_list_line():
    script = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", script)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    command = "list --format json"
    assert command.split() in digest.commands(SPECIALS)
    assert digest.digest_line(main, command.split()) == f"{GOLDEN[command]} 0 {command}"


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


# sha256 of the concatenated stdout of eval --value ID --precision P --format json
# for P in 64, 256, 1024 and each special-value id in sorted order; recorded
# while the Lambert sums were still summed term by term in mpf
EVAL_GOLDEN = "b03808e9a068f5d0050f4a9a271b5d3e623e370ed4c20b5e1652fb2de0125a15"
# the same digest for P in 2048 and 4096, recorded while the theta sums were
# summed by stepping each power from the one before
EVAL_WIDE_GOLDEN = "67354fe998ea63a7af9a56db8c977113ec287dee0e0a056f7f2f26411ce4311f"


def _eval_digest(capsys, precisions):
    digest = hashlib.sha256()
    for bits in precisions:
        for id_ in sorted(SPECIALS):
            code, out, _ = run(
                capsys, "eval", "--value", id_, "--precision", bits, "--format", "json"
            )
            assert code == 0
            digest.update(out.encode())
    return digest.hexdigest()


def test_eval_golden_output(capsys):
    assert _eval_digest(capsys, ("64", "256", "1024")) == EVAL_GOLDEN


def test_eval_wide_precisions_are_pinned(capsys):
    assert _eval_digest(capsys, ("2048", "4096")) == EVAL_WIDE_GOLDEN


# sha256 of "ARGV\nEXIT\nSTDOUT\nSTDERR\n" for convolve --identity ID --nmax N
# [--format json], for each convolution entry in registry order, N = 0 and 1,
# text then json; recorded while the pointwise sides used trial division per
# weight and convolution_sequence multiplied each factor in one at a time
CONVOLVE_SMALL_GOLDEN = "d3003b028278af99da5ccaa70ea62d8f9a3d30e15d14dcbf336f8792e9708754"


def test_convolve_at_nmax_0_and_1_is_pinned(capsys):
    # the vacuous bounds exit 2 with the same message, the others compare
    # the first one or two coefficients
    digest = hashlib.sha256()
    for ident in I.registry():
        if ident.kind != "convolution":
            continue
        for n_max in ("0", "1"):
            for fmt in ((), ("--format", "json")):
                argv = ["convolve", "--identity", ident.id, "--nmax", n_max, *fmt]
                code, out, err = outcome(capsys, argv)
                digest.update(f"{' '.join(argv)}\n{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == CONVOLVE_SMALL_GOLDEN


def outcome(capsys, argv):
    """main's exit status, whether returned or raised, with stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


VERIFY_OPTIONS = ("--identity", "--all", "--order", "--nmax", "--precision", "--format")

# argv, exit status, a substring of stderr; argparse gave the same statuses,
# except for --identity with --all, where --all used to win silently
BEHAVIOUR = [
    ("verify --identity ode.P --order=30", 0, ""),
    ("verify --identity ode.P --ord 30", 0, ""),
    ("verify -h", 0, ""),
    ("verify --help", 0, ""),
    ("bogus", 2, "invalid choice: 'bogus'"),
    ("expand --order 5", 2, "the following arguments are required: --series"),
    ("list --format xml", 2, "invalid choice: 'xml'"),
    ("verify --identity ode.P --order x", 2, "invalid integer value: 'x'"),
    ("verify --identity ode.P --order", 2, "expected one argument"),
    ("verify --all=1", 2, "ignored explicit argument '1'"),
    ("verify --identity ode.P --order=", 2, "invalid integer value: ''"),
    ("verify --identity ode.P --all --order 20", 2, "--identity ID or --all, not both"),
    ("convolve --identity t9 --all", 2, "--identity ID or --all, not both"),
]


@pytest.mark.parametrize("argv, code, err", BEHAVIOUR, ids=[row[0] for row in BEHAVIOUR])
def test_parser_behaviour(capsys, argv, code, err):
    got, out, stderr = outcome(capsys, argv.split())
    assert got == code
    assert err in stderr
    if "error: " in stderr:  # the parser's own errors
        assert stderr.startswith("usage: qram ")
    if "-h" in argv:
        assert all(opt in out for opt in VERIFY_OPTIONS)


_NAMES = (
    "series", "identity", "all", "value", "family", "index", "order", "nmax",
    "precision", "format", "help", "bogus",
)
_VALUES = st.one_of(
    st.integers(-5, 30).map(str),
    st.sampled_from(["x", "", "-x", "1.5", "T4", "ode.P", "t9", "hahn.P", "eps", "json", "xml"]),
)
_OPTION = st.builds(
    lambda name, cut: "--" + name[:cut], st.sampled_from(_NAMES), st.integers(1, 9)
)
_TOKEN = st.one_of(
    st.sampled_from(["expand", "verify", "convolve", "eval", "derive", "list", "-h", "--", "-"]),
    _OPTION,
    st.builds(lambda opt, value: f"{opt}={value}", _OPTION, _VALUES),
    _VALUES,
)


@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    verb=st.sampled_from(["expand", "verify", "convolve", "eval", "derive", "list", "bogus"]),
    rest=st.lists(_TOKEN, max_size=8),
)
def test_no_argv_ends_in_a_traceback(capsys, monkeypatch, verb, rest):
    # the parser is under test, not the registry: a stub keeps verify --all cheap
    monkeypatch.setattr(I, "verify_one", lambda ident, config: I.VerifyReport(ident.id, "pass", 0))
    try:
        code = main([verb, *rest])
    except SystemExit as exc:
        assert exc.code in (0, 2)
    else:
        assert isinstance(code, int)
    capsys.readouterr()


def _fresh_env():
    src = Path(__file__).resolve().parent.parent / "src"
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def test_cli_imports_no_argparse_gettext_or_locale():
    # the parser's, the records' and the fixed-point special values' whole
    # gain is not paying for these on every command; each verb runs once in
    # the same fresh interpreter
    verbs = [
        ["verify", "--identity", "ode.P", "--order", "20"],
        ["convolve", "--identity", "t9", "--nmax", "20"],
        ["eval", "--value", "hahn.P", "--precision", "64"],
        ["expand", "--series", "T4", "--order", "10"],
        ["derive", "--family", "eps", "--index", "2"],
        ["list"],
    ]
    script = (
        "import sys; from qram import cli; "
        f"codes = [cli.main(argv) for argv in {verbs!r}]; "
        "print(codes, sorted({'argparse', 'gettext', 'locale', 'dataclasses', 'inspect',"
        " 'mpmath'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_fresh_env(), capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(verbs)} []"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--value", "t6.eps_plus", "--precision", "14300", "--format", "json"],
        ["verify", "--identity", "t6.eps_plus", "--precision", "14300", "--format", "json"],
    ],
    ids=["eval", "verify"],
)
def test_errors_below_2_to_minus_14300_are_printed(capsys, argv):
    # formatting such an error at full working precision used to exceed
    # CPython's limit on int-to-str conversion
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert (payload if isinstance(payload, dict) else payload[0])["status"] == "pass"


@pytest.fixture
def int_str_limit():
    """Set the interpreter's int-to-str digit limit for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unprintable_expansion_is_an_error_not_a_traceback(capsys, int_str_limit, fmt):
    # the q^2 coefficient is 2^99999, past int's default 4300-digit str limit
    int_str_limit(4300)
    code, out, err = run(
        capsys, "expand", "--series", "phi_tilde_99999_0", "--order", "2", "--format", fmt
    )
    assert (code, out) == (2, "")
    assert err.startswith("cannot print phi_tilde_99999_0: ")
    assert err.count("\n") == 1


def test_expansion_prints_in_full_without_the_digit_limit(capsys, int_str_limit):
    int_str_limit(0)
    code, out, err = run(capsys, "expand", "--series", "phi_tilde_99999_0", "--order", "2")
    assert (code, err) == (0, "")
    assert len(out.split()[-1]) == 30103  # the q^2 coefficient, near 2^99999


@pytest.mark.parametrize(
    "argv",
    [["list"], ["expand", "--series", "E8", "--order", "3000"], ["-h"]],
    ids=["list", "expand", "help"],
)
def test_closed_stdout_exits_141_quietly(argv):
    # as `qram list | head -1` once the reader has gone: the read end is
    # closed before the child writes, so its first write or its flush fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qram.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=_fresh_env(), timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_closed_stdout_in_process_leaves_the_callers_fd_alone(monkeypatch, tmp_path):
    with open(tmp_path / "out", "w") as own:

        class Closed:  # a caller's stdout whose reader has gone
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return own.fileno()

        before = os.fstat(own.fileno())
        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["list"]) == 141
        after = os.fstat(own.fileno())
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def test_package_binds_only_the_layer_modules():
    script = (
        "import qram; "
        "print(sorted(n for n in vars(qram) if n == '__version__' or n[0] != '_'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_fresh_env(), capture_output=True, text=True,
        check=True,
    )
    # the import system also binds record, which the layers import
    names = ["__version__", "divisors", "generators", "identities", "numeric", "record",
             "series", "weighted"]
    assert proc.stdout == f"{names}\n"
