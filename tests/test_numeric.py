"""High-precision evaluation against closed forms."""

import mpmath as mp
import pytest

from qram.numeric import (
    SPECIALS,
    check_all_specials,
    check_special,
    gamma_quarter,
    gamma_three_quarters,
)


def test_gamma_constants_match_reference():
    # AGM route cross-checked against the library gamma at 300 bits
    with mp.workprec(300):
        assert mp.almosteq(gamma_quarter(), mp.gamma(mp.mpf(1) / 4), rel_eps=mp.mpf(2) ** -290)
        assert mp.almosteq(
            gamma_three_quarters(), mp.gamma(mp.mpf(3) / 4), rel_eps=mp.mpf(2) ** -290
        )
        assert mp.almosteq(
            gamma_quarter() * gamma_three_quarters(),
            mp.pi * mp.sqrt(2),
            rel_eps=mp.mpf(2) ** -290,
        )


def test_catalogue_contents():
    assert len(SPECIALS) == 19
    for id_, sv in SPECIALS.items():
        assert sv.id == id_
        assert sv.statement.strip() and sv.source.strip()
    assert {"hahn.P", "hahn.E", "hahn.Q", "hahn.R", "t8.f15", "l3.psi6pi"} <= set(SPECIALS)


def test_zero_targets_flagged():
    zeros = {id_ for id_, sv in SPECIALS.items() if sv.zero_target}
    assert zeros == {"hahn.E", "hahn.R"}


@pytest.mark.parametrize("id_", sorted(SPECIALS))
def test_each_special_at_128_bits(id_):
    rep = check_special(id_, 128)
    assert rep["status"] == "pass", rep
    assert rep["precision_bits"] == 128
    assert float(rep["abs_err"]) > 0.0  # truncation residual, never exact


def test_all_specials_at_192_bits():
    reports = check_all_specials(192)
    assert [r["id"] for r in reports] == sorted(SPECIALS)
    assert all(r["status"] == "pass" for r in reports)


def test_doubling_precision_shrinks_every_error():
    for id_ in sorted(SPECIALS):
        lo = check_special(id_, 128)
        hi = check_special(id_, 256)
        assert float(hi["abs_err"]) < float(lo["abs_err"]), id_
        if not SPECIALS[id_].zero_target:
            assert float(hi["rel_err"]) < float(lo["rel_err"]), id_


def test_report_fields_and_errors_are_strings():
    rep = check_special("ct5.phi16", 160)
    for key in ("id", "precision_bits", "series_value", "closed_form", "abs_err", "rel_err", "status"):
        assert key in rep
    assert isinstance(rep["series_value"], str)
    assert isinstance(rep["abs_err"], str)


def test_value_spot_checks():
    # report strings carry 30 significant digits; compare at that resolution
    with mp.workprec(200):
        rep = check_special("hahn.Q", 192)
        target = mp.pi**2 / gamma_three_quarters() ** 8
        assert mp.almosteq(mp.mpf(rep["closed_form"]), target, rel_eps=mp.mpf(10) ** -28)
        rep2 = check_special("ct5b.phi09", 192)
        assert mp.almosteq(mp.mpf(rep2["closed_form"]), mp.mpf(-31) / 8, rel_eps=mp.mpf(10) ** -28)


def test_transcription_notes_survive():
    assert "note" in check_special("classical.Q_neg_pi", 128)
    assert "note" in check_special("ct5b.phi013", 128)
    assert "note" not in check_special("hahn.P", 128)


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        check_special("no.such.value", 128)


@pytest.mark.parametrize("bits", [0, 8, 32, 63])
def test_check_special_rejects_vacuous_precision(bits):
    # at 32 bits the gate 2^-(32-32) = 1 passed any relative error below 1
    with pytest.raises(ValueError):
        check_special("hahn.P", bits)
    assert check_special("hahn.P", 64)["status"] == "pass"
