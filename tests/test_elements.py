import math

import numpy as np
import pytest

from _oracles import bs_matrix, random_state
from timebinsim.circuits import apply
from timebinsim.elements import BsConvention, ConventionError, Element
from timebinsim.state import PhotonState, QubitSpec, new_state

S2 = 1.0 / math.sqrt(2.0)
SYM = BsConvention.SYMMETRIC
SURF = BsConvention.SURFACE_PHASES


def one(channel="a", pol="H", tick=0, amp=1.0):
    return PhotonState({(channel, pol, tick): amp})


def hwp(ch):
    return Element("hwp", (ch,), (ch,))


def phase(ch, phi):
    return Element("phase", (ch,), (ch,), phi=phi)


def delay(ch, ticks):
    return Element("delay", (ch,), (ch,), ticks=ticks)


def split(ch, ticks):
    return Element("split", (ch,), (ch,), ticks=ticks)


def test_pbs_transmits_h():
    out = apply(Element("pbs", ("a", "b"), ("o1", "o2")), one("a", "H"))
    assert out.amplitudes == {("o1", "H", 0): pytest.approx(1 + 0j)}


def test_pbs_reflects_v():
    out = apply(Element("pbs", ("a", "b"), ("o1", "o2")), one("a", "V"))
    assert out.amplitude("o2", "V", 0) == pytest.approx(1.0)
    assert len(out) == 1


def test_pbs_splits_qubit():
    q = QubitSpec(0.6, 0.8)
    out = apply(Element("pbs", ("in",), ("o1", "o2")), new_state(q))
    assert out.amplitude("o1", "H", 0) == pytest.approx(0.6)
    assert out.amplitude("o2", "V", 0) == pytest.approx(0.8)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_bs_symmetric_single_input():
    out = apply(Element("bs", ("a", "b"), ("o1", "o2"), convention=SYM), one())
    assert out.amplitude("o1", "H", 0) == pytest.approx(S2)
    assert out.amplitude("o2", "H", 0) == pytest.approx(1j * S2)


def test_bs_surface_single_input():
    out = apply(Element("bs", ("a", "b"), ("o1", "o2"), convention=SURF), one())
    assert out.amplitude("o1", "H", 0) == pytest.approx(S2)
    assert out.amplitude("o2", "H", 0) == pytest.approx(-1j * S2)


def test_bs_symmetric_matrix_unitary():
    u = bs_matrix(SYM)
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


def test_bs_symmetric_twice_restores_input():
    # a zero-length two-coupler loop: all amplitude returns on one port,
    # up to a global phase
    mid = apply(Element("bs", ("a", "b"), ("c", "d"), convention=SYM), one())
    out = apply(Element("bs", ("c", "d"), ("e", "f"), convention=SYM), mid)
    u = bs_matrix(SYM)
    expected = u @ u @ np.array([1.0, 0.0])
    assert out.amplitude("e", "H", 0) == pytest.approx(complex(expected[0]), abs=1e-12)
    assert out.amplitude("f", "H", 0) == pytest.approx(complex(expected[1]), abs=1e-12)
    assert abs(out.amplitude("f", "H", 0)) == pytest.approx(1.0, abs=1e-12)


def test_bs_surface_overlap_raises():
    s = PhotonState({("a", "H", 0): S2, ("b", "H", 0): S2})
    with pytest.raises(ConventionError):
        apply(Element("bs", ("a", "b"), ("o1", "o2"), convention=SURF), s)


def test_bs_surface_separated_inputs_conserve_norm():
    s = PhotonState({("a", "H", 0): S2, ("b", "H", 1): 1j * S2})
    out = apply(Element("bs", ("a", "b"), ("o1", "o2"), convention=SURF), s)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_hwp_swaps_h():
    out = apply(hwp("c"), one("c", "H", 0))
    assert out.amplitudes == {("c", "V", 0): pytest.approx(1 + 0j)}


def test_hwp_swaps_v_preserving_amplitude():
    out = apply(hwp("c"), one("c", "V", 3, 1j))
    assert out.amplitude("c", "H", 3) == pytest.approx(1j)


def test_hwp_is_involution():
    rng = np.random.default_rng(0)
    s = random_state(rng, ["c", "d"], range(0, 5), modes=6)
    twice = apply(hwp("c"), apply(hwp("c"), s))
    assert twice.max_deviation(s) < 1e-15


def test_phase_three_half_pi():
    beta = 0.37 - 0.2j
    out = apply(phase("c", 3 * math.pi / 2), one("c", "H", 1, beta))
    assert out.amplitude("c", "H", 1) == pytest.approx(-1j * beta, abs=1e-12)


def test_phase_zero_is_identity():
    s = one()
    assert apply(phase("a", 0.0), s).max_deviation(s) == 0.0


def test_phase_quarter_turn_four_times():
    s = one()
    out = s
    for _ in range(4):
        out = apply(phase("a", math.pi / 2), out)
    assert out.max_deviation(s) < 1e-12


def test_delay_shifts_ticks():
    out = apply(delay("a", 2), one())
    assert out.amplitudes == {("a", "H", 2): pytest.approx(1 + 0j)}


def test_delay_zero_is_identity():
    s = one()
    assert apply(delay("a", 0), s).max_deviation(s) == 0.0


def test_delay_rejects_negative():
    with pytest.raises(ValueError):
        apply(delay("a", -1), one())


@pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf")])
def test_phase_rejects_non_finite_angle(phi):
    with pytest.raises(ValueError, match="finite"):
        phase("a", phi)


def test_splitter_definition():
    out = apply(split("c", 2), one("c"))
    assert out.amplitude("c", "H", 0) == pytest.approx(S2)
    assert out.amplitude("c", "H", 2) == pytest.approx(S2)


def test_splitter_composition_four_bins():
    out = apply(split("c", 1), apply(split("c", 2), one("c")))
    for t in range(4):
        assert out.amplitude("c", "H", t) == pytest.approx(0.5)


def test_splitter_order_is_irrelevant():
    rng = np.random.default_rng(1)
    for a, b in ((1, 2), (2, 4), (3, 5)):
        s = random_state(rng, ["c"], range(0, 4), modes=4)
        ab = apply(split("c", b), apply(split("c", a), s))
        ba = apply(split("c", a), apply(split("c", b), s))
        assert ab.max_deviation(ba) < 1e-12


def test_splitter_rejects_zero_interval():
    with pytest.raises(ValueError):
        apply(split("a", 0), one())


def test_splitter_self_overlap_interferes():
    # when the shifted copy lands on an occupied bin the two halves add;
    # norm is then no longer conserved (the devices never enter this regime)
    s = PhotonState({("c", "H", 0): S2, ("c", "H", 2): -S2})
    out = apply(split("c", 2), s)
    assert out.norm_sq() == pytest.approx(0.5, abs=1e-12)


def test_same_channel_ops_commute():
    rng = np.random.default_rng(2)
    s = random_state(rng, ["c"], range(0, 6), modes=8)
    ops = [
        lambda x: apply(hwp("c"), x),
        lambda x: apply(phase("c", 0.7), x),
        lambda x: apply(delay("c", 3), x),
    ]
    for i in range(len(ops)):
        for j in range(len(ops)):
            if i == j:
                continue
            assert ops[i](ops[j](s)).max_deviation(ops[j](ops[i](s))) < 1e-12


def test_delay_commutes_on_disjoint_channels():
    rng = np.random.default_rng(3)
    s = random_state(rng, ["c", "d"], range(0, 6), modes=8)
    a = apply(delay("c", 2), apply(hwp("d"), s))
    b = apply(hwp("d"), apply(delay("c", 2), s))
    assert a.max_deviation(b) < 1e-15


def test_lossless_chains_conserve_norm():
    from _circgen import random_lossless_chain

    rng = np.random.default_rng(4)
    channels = ["c", "d", "e"]
    for _ in range(200):
        s = random_state(rng, channels, range(0, 8), modes=int(rng.integers(1, 10)))
        out = random_lossless_chain(rng, s, channels)
        assert abs(out.norm_sq() - s.norm_sq()) < 1e-12


def test_element_arity_validation():
    with pytest.raises(ValueError):
        Element("hwp", ("a", "b"), ("a",))
    with pytest.raises(ValueError):
        Element("bs", ("a", "b", "c"), ("d",))
    with pytest.raises(ValueError):
        Element("pbs", ("a", "a"), ("b", "c"))
    with pytest.raises(ValueError):
        Element("split", ("a",), ("a",), ticks=0)
    with pytest.raises(ValueError):
        Element("delay", ("a",), ("a",), ticks=-2)
    with pytest.raises(ValueError, match="unknown element kind"):
        Element("zzz", ("a",), ("b",))
    with pytest.raises(ValueError, match="repeated channel label"):
        apply(Element("bs", ("a",), ("o", "o")), one())
