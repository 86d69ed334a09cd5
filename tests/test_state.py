import math

import numpy as np
import pytest

from _oracles import fidelity_with_qubit, qubit_amplitudes, random_state, restrict, superpose
from timebinsim.state import Mode, PhotonState, Polarization, QubitSpec, new_state, random_qubit

S2 = 1.0 / math.sqrt(2.0)


def eight_bin_train(alpha, beta, dT=64):
    """The canonical two-group train: H bins 0..3, V bins dT..dT+3, -i phase."""
    amps = {}
    for t, c in ((0, alpha), (1, beta), (2, alpha), (3, beta)):
        amps[("1", "H", t)] = c / 2
        amps[("2", "V", t + dT)] = -1j * c / 2
    return PhotonState(amps)


def test_new_state_basis_h():
    s = new_state(QubitSpec(1, 0))
    assert s.amplitudes == {("in", Polarization.H, 0): 1 + 0j}


def test_new_state_basis_v():
    s = new_state(QubitSpec(0, 1))
    assert s.amplitudes == {("in", Polarization.V, 0): 1 + 0j}


def test_new_state_superposition():
    s = new_state(QubitSpec(S2, 1j * S2))
    assert len(s) == 2
    assert s.amplitude("in", "H", 0) == pytest.approx(S2)
    assert s.amplitude("in", "V", 0) == pytest.approx(1j * S2)
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_qubit_spec_rejects_unnormalized():
    with pytest.raises(ValueError):
        QubitSpec(1.0, 0.5)
    with pytest.raises(ValueError):
        QubitSpec(0.0, 0.999999)
    for bad in (float("nan"), complex("nan"), float("inf")):
        with pytest.raises(ValueError):
            QubitSpec(bad, 0.0)


def test_norm_sq_empty_state():
    assert PhotonState().norm_sq() == 0.0
    assert PhotonState({}).norm_sq() == 0.0


def test_norm_sq_basis():
    assert new_state(QubitSpec(1, 0)).norm_sq() == pytest.approx(1.0)


def test_norm_sq_eight_bin_train():
    rng = np.random.default_rng(1)
    q = random_qubit(rng)
    assert eight_bin_train(q.alpha, q.beta).norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_restrict_single_bin_of_train():
    q = random_qubit(np.random.default_rng(2))
    sub = restrict(eight_bin_train(q.alpha, q.beta), "1", (0, 0))
    assert len(sub) == 1
    assert sub.amplitude("1", "H", 0) == pytest.approx(q.alpha / 2)


def test_restrict_unused_channel_is_empty():
    q = random_qubit(np.random.default_rng(3))
    sub = restrict(eight_bin_train(q.alpha, q.beta), "nowhere", (0, 100))
    assert len(sub) == 0
    assert sub.norm_sq() == 0.0


def test_restrict_recombined_bin_has_common_scalar():
    # the overlapped output state carries (alpha, beta) at interior bins,
    # both amplitudes scaled by the same 1/sqrt(2)
    q = random_qubit(np.random.default_rng(4))
    a, b = q.alpha, q.beta
    out = PhotonState({
        ("5", "V", 0): a * S2, ("5", "V", 1): b * S2, ("5", "V", 2): a * S2, ("5", "V", 3): b * S2,
        ("5", "H", 1): a * S2, ("5", "H", 2): b * S2, ("5", "H", 3): a * S2, ("5", "H", 4): b * S2,
    })
    sub = restrict(out, "5", (1, 1))
    a_h, a_v = qubit_amplitudes(sub)
    assert a_h == pytest.approx(a * S2)
    assert a_v == pytest.approx(b * S2)


def test_restrict_partition_completeness():
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = random_state(rng, ["a", "b", "c"], range(0, 12), modes=14)
        total = sum(
            restrict(s, ch, (t, t)).norm_sq() for ch in ("a", "b", "c") for t in range(0, 12)
        )
        assert total == pytest.approx(s.norm_sq(), abs=1e-12)


def test_fidelity_proportional_state():
    q = random_qubit(np.random.default_rng(6))
    s = PhotonState({("x", "H", 3): q.alpha / 2, ("x", "V", 3): q.beta / 2})
    assert fidelity_with_qubit(s, q) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_state():
    s = PhotonState({("x", "H", 0): 0.0, ("x", "V", 0): 1.0})
    assert fidelity_with_qubit(s, QubitSpec(1, 0)) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_swapped_basis_state():
    q = QubitSpec(1, 0)
    s = PhotonState({("x", "V", 0): 1.0})  # beta slot holds alpha's weight
    assert fidelity_with_qubit(s, q) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_global_phase_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = random_qubit(rng)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        scale = rng.uniform(0.1, 2.0)
        s = PhotonState({("x", "H", 0): q.alpha, ("x", "V", 0): q.beta})
        s_phased = PhotonState({m: phase * scale * a for m, a in s.amplitudes.items()})
        assert fidelity_with_qubit(s_phased, q) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_zero_norm_rejected():
    with pytest.raises(ValueError):
        fidelity_with_qubit(PhotonState(), QubitSpec(1, 0))


def test_qubit_amplitudes_rejects_multiple_slots():
    s = PhotonState({("x", "H", 0): S2, ("x", "H", 1): S2})
    with pytest.raises(ValueError):
        qubit_amplitudes(s)


def test_prune_threshold():
    s = PhotonState({("x", "H", 0): 1e-16, ("x", "V", 0): 1.0})
    assert len(s) == 1


def test_superpose_cancellation_prunes():
    s = PhotonState({("x", "H", 0): 0.5})
    gone = superpose((1.0, s), (-1.0, s))
    assert len(gone) == 0


def test_dump_is_sorted_and_stable():
    s = PhotonState({
        ("b", "V", 2): 1 / 3,
        ("a", "H", 5): 0.25j,
        ("a", "V", 5): -0.5,
        ("a", "H", 1): 0.125,
    })
    lines = s.dump().splitlines()
    assert lines == [
        "a,H,1,0.125,0",
        "a,H,5,0,0.25",
        "a,V,5,-0.5,0",
        "b,V,2,0.33333333333333331,0",
    ]
    assert s.dump() == PhotonState(dict(s.amplitudes)).dump()


def test_mode_total_order():
    modes = [Mode("b", Polarization.H, 0), Mode("a", Polarization.V, 1), Mode("a", Polarization.H, 1)]
    ordered = sorted(modes, key=Mode.sort_key)
    assert [m.channel for m in ordered] == ["a", "a", "b"]
    assert ordered[0].pol is Polarization.H
