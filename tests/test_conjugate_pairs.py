"""A real plant pays once per conjugate pair: the frequency grid, the
output path and the decay envelope give, byte for byte, what they give
with every mode unpaired."""

import numpy as np
import pytest

import modalreg.regulator as regulator
import modalreg.simulator as simulator
import modalreg.spectral as spectral
from modalreg.errors import SingularResolventError
from modalreg.exosystem import ExoSpace
from modalreg.regulator import (ModalCoupling, build_feedforward,
                                frequency_grid, steady_state_image)
from modalreg.scenarios import (ScenarioConfig, build_random_scenario,
                                build_scenario, resolve_w0, resolve_z0)
from modalreg.simulator import simulate_outputs
from modalreg.spectral import (ModeRange, SpectralVector, conjugate_partners,
                               decay_envelope)

# one real mode at position 0 and three pairs; the pair (3, 4) has
# c = 0, so it reaches the state deviation only, and the pair (5, 6)
# decays slowest, so it holds the envelope's late argmax, which is off the
# boundary at 5 and would be on it at 6
CLOSED = dict(kind="custom", n_exo=7, w0_preset="smooth",
              z0_preset="inv_mu_sq",
              eigenvalues=(-0.5, -0.2 + 1j, -0.2 - 1j, -0.3 + 2.5j,
                           -0.3 - 2.5j, -0.05 + 4j, -0.05 - 4j),
              b=(1.0, 0.5 + 0.5j, 0.5 - 0.5j, 0.3j, -0.3j, 0.7, 0.7),
              c=(0.8, 1.0, 1.0, 0.0, 0.0, 0.2 - 0.1j, 0.2 + 0.1j))
# P entries on negative, zero and positive harmonics
CLOSED_P = {(1, -2): 0.3 - 0.1j, (0, 0): 0.25, (5, 3): -0.5j}

PLANTS = {
    "wave-square11": ScenarioConfig(kind="wave", n_plant=300, n_exo=300,
                                    w0_preset="square11",
                                    z0_preset="inv_mu_sq"),
    "wave-smooth": ScenarioConfig(kind="wave", n_plant=300, n_exo=300,
                                  w0_preset="smooth", z0_preset="inv_mu_sq"),
    "diagonal": ScenarioConfig(kind="diagonal", n_plant=60, n_exo=30,
                               w0_preset="smooth", z0_preset="inv_mu_sq"),
    "closed": ScenarioConfig(**CLOSED),
    # -0.2 +/- 1j twice: a repeated value pairs nothing
    "repeated": ScenarioConfig(**{
        **CLOSED, "eigenvalues": CLOSED["eigenvalues"][:5] + (-0.2 + 1j,
                                                              -0.2 - 1j)}),
    # mu closed, c b not: (c b)_1 = 0.5 + 0.5j, (c b)_2 = 0.5j - 0.5
    "cb-open": ScenarioConfig(**{
        **CLOSED, "c": (0.8, 1.0, 1j) + CLOSED["c"][3:]}),
}


def build(name):
    cfg = PLANTS[name]
    gen, coupling, space = build_scenario(cfg)
    if cfg.kind == "custom":
        coupling = ModalCoupling(b=coupling.b, c=coupling.c,
                                 p_entries=CLOSED_P)
    return cfg, gen, coupling, space


def unpair(monkeypatch):
    """Every module that pairs modes sees no partner."""
    def unpaired(mu):
        return np.full(mu.size, -1, dtype=np.intp)

    for module in (regulator, simulator, spectral):
        monkeypatch.setattr(module, "conjugate_partners", unpaired)


def outputs(name):
    """The arrays that reach the artifacts of check, simulate and decay."""
    cfg, gen, coupling, space = build(name)
    grid = frequency_grid(gen, coupling, space)
    gain = build_feedforward(grid)
    w0, z0 = resolve_w0(cfg, space), resolve_z0(cfg, gen)
    image = steady_state_image(gen, coupling, gain, w0)
    t = np.geomspace(1e-2, 1e3, 512)
    out = simulate_outputs(gen, coupling, gain, z0, image, t)
    arrays = {"h": grid.h, "hd": grid.hd, "gaps": grid.gaps}
    for key in ("y", "y_r", "u", "e", "state_deviation"):
        arrays[key] = getattr(out, key)
    for beta in (0.0, 1.0):
        env = decay_envelope(gen, beta, t)
        arrays[f"envelope{beta}"] = env.values
        arrays[f"boundary{beta}"] = env.boundary_mask
    return arrays


class TestPartners:
    def test_closed_plants_pair_every_mode(self):
        for name in ("wave-square11", "diagonal", "closed", "cb-open"):
            mu = build(name)[1].eigenvalues
            partner = conjugate_partners(mu)
            assert np.all(partner >= 0), name
            assert np.array_equal(mu[partner], mu.conj()), name
            assert np.array_equal(partner[partner], np.arange(mu.size))

    def test_real_eigenvalue_is_its_own_partner(self):
        assert conjugate_partners(build("closed")[1].eigenvalues)[0] == 0
        gen = build("diagonal")[1]
        mode0 = gen.modes.position(0)
        assert conjugate_partners(gen.eigenvalues)[mode0] == mode0

    def test_repeated_value_pairs_nothing(self):
        mu = build("repeated")[1].eigenvalues
        assert np.all(conjugate_partners(mu) == -1)

    def test_unmatched_mode_has_no_partner(self):
        mu = np.array([-1 + 1j, -1 - 1j, -2 + 3j, -2 - 3.5j, -0.5])
        assert conjugate_partners(mu).tolist() == [1, 0, -1, -1, 4]

    def test_no_random_seed_pairs(self):
        for seed in range(200):
            mu = build_random_scenario(seed)[0].eigenvalues
            assert np.all(conjugate_partners(mu) == -1), seed


class TestMirror:
    @pytest.mark.parametrize("width", [2, 3, 7, None])
    @pytest.mark.parametrize("name", list(PLANTS))
    def test_matches_the_unpaired_path(self, name, width, monkeypatch):
        if width is not None:
            monkeypatch.setattr(spectral, "_BLOCK_ENTRIES",
                                width * len(build(name)[1].modes))
        paired = outputs(name)
        unpair(monkeypatch)
        unpaired = outputs(name)
        for key, got in paired.items():
            assert got.tobytes() == unpaired[key].tobytes(), key

    def test_two_harmonics_sum_h_whole(self, monkeypatch):
        """omega = -1, 1: one column on each side would sum pairwise,
        not in the order of the two-column block of the unpaired path."""
        _, gen, coupling, _ = build("wave-smooth")
        space = ExoSpace.power_weights(
            2.0 * np.pi, ModeRange.symmetric(1, exclude_zero=True), 2.0)
        paired = frequency_grid(gen, coupling, space)
        unpair(monkeypatch)
        unpaired = frequency_grid(gen, coupling, space)
        for key in ("h", "hd", "gaps"):
            assert (getattr(paired, key).tobytes()
                    == getattr(unpaired, key).tobytes()), key

    def test_zero_response_keeps_the_sign_of_its_zeros(self, monkeypatch):
        """With c = 0 every H is an empty sum, +0.0 in both parts; a
        conjugate would make the imaginary parts -0.0."""
        _, gen, coupling, space = build("closed")
        coupling = ModalCoupling(b=coupling.b, c=SpectralVector.zeros(
            coupling.modes))
        paired = frequency_grid(gen, coupling, space).h
        unpair(monkeypatch)
        unpaired = frequency_grid(gen, coupling, space).h
        assert paired.tobytes() == unpaired.tobytes()
        assert not np.signbit(paired.imag).any()

    def test_open_cb_sums_h_whole(self, monkeypatch):
        """c b is not closed under conjugation: H takes every harmonic's
        terms, and only the closed plant divides the K/2 + 1 at
        omega_k >= 0."""
        _, gen, coupling, space = build("cb-open")
        columns = []
        inner = regulator._blocks

        def recording(n_cols, n_rows):
            columns.append(n_cols)
            return inner(n_cols, n_rows)

        monkeypatch.setattr(regulator, "_blocks", recording)
        frequency_grid(gen, coupling, space)
        assert columns == [len(space.modes)]
        columns.clear()
        frequency_grid(*build("closed")[1:])
        assert columns == [len(space.modes) // 2 + 1]

    def test_exact_hit_names_the_unpaired_mode(self, monkeypatch):
        """A pair set on the axis after construction keeps the plant
        closed; the grid reports the hit at the first harmonic with a zero
        gap, -omega, which mode -5 hits."""
        gen, coupling, space = build_scenario(ScenarioConfig(
            kind="wave", n_plant=60, n_exo=100, period=2.0))
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 7 * len(gen.modes))
        omega = space.omegas[len(space.modes) - 3]
        gen.eigenvalues[gen.modes.position(5)] = 1j * omega
        gen.eigenvalues[gen.modes.position(-5)] = -1j * omega
        assert np.all(conjugate_partners(gen.eigenvalues) >= 0)
        with pytest.raises(SingularResolventError) as err:
            frequency_grid(gen, coupling, space)
        assert (err.value.mode, err.value.eigenvalue) == (-5, -1j * omega)


def test_position_is_arithmetic():
    """Positions and membership without a table, for every kind of
    range; the position of every index is its place."""
    for modes in (ModeRange(-3, 4), ModeRange(2, 9), ModeRange(-9, -2),
                  ModeRange.symmetric(4, exclude_zero=True)):
        for i, mode in enumerate(modes.indices):
            assert modes.position(mode) == i
            assert modes.position(float(mode)) == i
        inside = set(modes.indices.tolist())
        for mode in range(-12, 12):
            assert (mode in modes) == (mode in inside)
            if mode not in inside:
                with pytest.raises(KeyError, match=f"mode {mode} not in"):
                    modes.position(mode)
