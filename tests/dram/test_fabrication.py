"""Lane fabrication is scalar fabrication, plane for plane.

:meth:`BatchedChip.from_fleet` fabricates each lane straight into the
batch's stacked planes.  Every lane must be exactly the silicon — and
hold exactly the noise streams — of a scalar :class:`DramChip` built
from the same ``(master_seed, group, serial)`` and then reseeded to the
lane's epoch with :meth:`DramChip.reseed_noise`.  The comparison is
bitwise: planes by dtype, shape and bytes, noise sources by identity,
epoch and generator state.

A second check pins the variation model itself: the planes must equal
a call-by-call transliteration of the historical draw sequence
(``normal(loc, scale)`` per plane, then ``random`` and ``uniform``), so
a change that moved both engines the same way — a swapped draw, a
reordered map — still fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DramChip, GeometryParams
from repro.dram.batched import BatchedChip
from repro.dram.environment import Environment
from repro.dram.rng import derive_rng
from repro.dram.vendor import get_group, group_ids
from repro.errors import ConfigurationError

MASTER_SEED = 2022

#: The serving geometry (one sub-array per lane) and a multi-bank one,
#: so the sub-array streams are taken bank-major across a grid.
GEOMETRIES = {
    "service": GeometryParams(n_banks=1, subarrays_per_bank=1,
                              rows_per_subarray=16, columns=128),
    "2x2": GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=64),
}

#: The nominal operating point and two of fig12's conditions (the 1.4 V
#: supply and the hottest temperature), which move the per-lane offset
#: shift, read-noise sigma and leakage acceleration.
ENVIRONMENTS = {
    "nominal": Environment(),
    "vdd-1.4": Environment().with_vdd(1.4),
    "60C": Environment().with_temperature(60.0),
}

#: Every group, plus a lower-case id: chips seed from the canonical
#: ``group.group_id``, so ``"b"`` must fabricate group B's silicon.
SPECS = [(group_id, 3 * index + 1)
         for index, group_id in enumerate(group_ids())] + [("b", 5)]

PLANES = ("sa_offset", "primary_boost", "multirow_bias", "amp_alpha",
          "tau_s", "vrt_mask", "interrupt_coupling")


def _scalar_chips(specs, geometry, environment, epochs):
    chips = []
    for lane, (group_id, serial) in enumerate(specs):
        chip = DramChip(group_id, geometry=geometry, serial=serial,
                        master_seed=MASTER_SEED, environment=environment)
        if epochs is not None:
            chip.reseed_noise(epochs[lane])
        chips.append(chip)
    return chips


def _same_bytes(batched_plane: np.ndarray, scalar_plane: np.ndarray) -> bool:
    return (batched_plane.dtype == scalar_plane.dtype
            and batched_plane.shape == scalar_plane.shape
            and np.ascontiguousarray(batched_plane).tobytes()
            == np.ascontiguousarray(scalar_plane).tobytes())


def assert_lanes_match_chips(device: BatchedChip, chips, environment):
    geometry = chips[0].geometry
    n_lanes = len(chips)
    assert device.n_lanes == n_lanes
    assert device.geometry == geometry
    rps = geometry.rows_per_subarray
    for lane, chip in enumerate(chips):
        # BatchedChip's per-lane tables.
        assert device.groups[lane] == chip.group
        assert device._row_maps[lane] == chip.row_map
        assert device._polarity[lane] == chip.polarity_scheme
        assert [int(row) for row in device._phys_rows[lane]] == [
            chip.row_map.to_physical(row) for row in range(rps)]
        assert [bool(anti) for anti in device._anti_rows[lane]] == [
            chip.is_anti(row) for row in range(rps)]
        assert bool(device._enforce[lane]) == (
            chip.group.decoder.enforces_command_spacing)
        assert device.dropped_commands[lane] == 0
        assert device.time_s[lane] == 0.0
    assert device._any_enforce == any(
        chip.group.decoder.enforces_command_spacing for chip in chips)
    for bank in range(geometry.n_banks):
        for sub in range(geometry.subarrays_per_bank):
            cell = device.cells[bank][sub]
            assert (cell.n_lanes, cell.n_rows, cell.n_cols) == (
                n_lanes, rps, geometry.columns)
            scalars = [chip.banks[bank].subarrays[sub] for chip in chips]
            for name in PLANES:
                plane = getattr(cell, name)
                first = getattr(scalars[0], name)
                assert plane.shape == (n_lanes, *first.shape), name
                for lane, scalar in enumerate(scalars):
                    assert _same_bytes(plane[lane], getattr(scalar, name)), (
                        f"{name} differs on lane {lane}, cell {bank}/{sub}")
            for lane, scalar in enumerate(scalars):
                variation = scalar.variation
                electrical = scalar.electrical
                assert cell.origins[lane] == (bank, sub)
                assert cell._couplings[lane] == scalar.coupling
                assert cell._decoders[lane] == scalar.decoder_profile
                assert float(cell._restore[lane]) == electrical.restore_level
                assert float(cell._cb[lane]) == (
                    electrical.bitline_to_cell_ratio)
                assert float(cell._jitter_sigma[lane]) == (
                    variation.weight_jitter_sigma)
                assert float(cell._vrt_span[lane]) == variation.vrt_tau_span
                assert bool(cell._vrt_any[lane]) == bool(
                    scalar.vrt_mask.any())
                vrt_idx = np.nonzero(scalar.vrt_mask)
                assert len(cell._vrt_idx[lane]) == len(vrt_idx)
                for got, want in zip(cell._vrt_idx[lane], vrt_idx):
                    assert np.array_equal(got, want)
                assert _same_bytes(cell._vrt_tau[lane],
                                   scalar.tau_s[vrt_idx])
                assert float(cell._noise_sigma[lane]) == (
                    environment.read_noise_scale(
                        variation.read_noise_sigma,
                        variation.read_noise_temp_coeff))
                assert float(cell._offset_shift[lane]) == (
                    environment.effective_offset_shift())
                assert float(cell._leak_acc[lane]) == (
                    environment.leakage_acceleration)
                noise = cell._noises[lane]
                assert noise._identity == scalar._noise._identity
                assert noise.epoch == scalar._noise.epoch
                assert noise.rng.bit_generator.state == (
                    scalar._noise.rng.bit_generator.state)
            assert cell._jitter_any == any(
                scalar.variation.weight_jitter_sigma > 0
                for scalar in scalars)
            # Every lane owns its noise source; none is shared.
            assert len({id(noise) for noise in cell._noises}) == n_lanes


@pytest.mark.parametrize("geometry_name", sorted(GEOMETRIES))
@pytest.mark.parametrize("epoch", [None, 0, 1, 3])
@pytest.mark.parametrize("environment_name", sorted(ENVIRONMENTS))
def test_from_fleet_matches_scalar_chips(geometry_name, epoch,
                                         environment_name):
    geometry = GEOMETRIES[geometry_name]
    environment = ENVIRONMENTS[environment_name]
    epochs = None if epoch is None else [epoch] * len(SPECS)
    device = BatchedChip.from_fleet(
        SPECS, geometry=geometry, master_seed=MASTER_SEED,
        environment=environment, epochs=epochs)
    chips = _scalar_chips(SPECS, geometry, environment, epochs)
    assert_lanes_match_chips(device, chips, environment)


@pytest.mark.parametrize("geometry_name", sorted(GEOMETRIES))
def test_per_lane_epochs_match_scalar_chips(geometry_name):
    geometry = GEOMETRIES[geometry_name]
    epochs = [lane % 4 for lane in range(len(SPECS))]
    device = BatchedChip.from_fleet(SPECS, geometry=geometry,
                                    master_seed=MASTER_SEED, epochs=epochs)
    chips = _scalar_chips(SPECS, geometry, Environment(), epochs)
    assert_lanes_match_chips(device, chips, Environment())


def test_default_environment_is_nominal():
    geometry = GEOMETRIES["service"]
    device = BatchedChip.from_fleet(SPECS[:3], geometry=geometry,
                                    master_seed=MASTER_SEED)
    chips = _scalar_chips(SPECS[:3], geometry, None, None)
    assert_lanes_match_chips(device, chips, Environment())


def test_lower_case_group_id_fabricates_the_canonical_group():
    geometry = GEOMETRIES["service"]
    device = BatchedChip.from_fleet([("b", 5), ("B", 5)], geometry=geometry,
                                    master_seed=MASTER_SEED)
    cell = device.cells[0][0]
    assert device.groups[0] == device.groups[1]
    for name in PLANES:
        plane = getattr(cell, name)
        assert _same_bytes(plane[0], plane[1]), name
    assert cell._noises[0]._identity == cell._noises[1]._identity
    assert cell._noises[0]._identity[:3] == ("chip", "B", 5)


@pytest.mark.parametrize("specs", [[("Z", 0)], [("B", 0), ("q", 1)]])
def test_unknown_group_raises_like_the_scalar_chip(specs):
    geometry = GEOMETRIES["service"]
    unknown = specs[-1][0]
    with pytest.raises(ConfigurationError) as scalar:
        DramChip(unknown, geometry=geometry, master_seed=MASTER_SEED)
    with pytest.raises(ConfigurationError) as lane:
        BatchedChip.from_fleet(specs, geometry=geometry,
                               master_seed=MASTER_SEED)
    assert str(lane.value) == str(scalar.value)


def test_subarray_views_are_their_donor_subarrays_chip_major():
    geometry = GEOMETRIES["2x2"]
    specs = [("B", 0), ("C", 1)]
    chips = _scalar_chips(specs, geometry, None, None)
    twins = _scalar_chips(specs, geometry, None, None)
    sites = [(1, 0), (0, 1), (1, 1)]
    device = BatchedChip.from_subarray_views(chips, sites)
    assert device.n_lanes == len(chips) * len(sites)
    assert device.geometry == GeometryParams(
        n_banks=1, subarrays_per_bank=1,
        rows_per_subarray=geometry.rows_per_subarray,
        columns=geometry.columns)
    cell = device.cells[0][0]
    for lane in range(device.n_lanes):
        chip = chips[lane // len(sites)]
        bank, sub = sites[lane % len(sites)]
        donor = chip.banks[bank].subarrays[sub]
        assert device.groups[lane] == chip.group
        assert cell.origins[lane] == (bank, sub)
        for name in PLANES:
            assert _same_bytes(getattr(cell, name)[lane],
                               getattr(donor, name)), (name, lane)
        # The view draws from the donor's live stream: a draw through
        # the lane moves the chip's own sub-array source past it.
        assert cell._noises[lane] is donor._noise
        twin = twins[lane // len(sites)].banks[bank].subarrays[sub]._noise
        np.testing.assert_array_equal(cell._noises[lane].normal(1.0, 8),
                                      twin.normal(1.0, 8))
        np.testing.assert_array_equal(donor._noise.normal(1.0, 8),
                                      twin.normal(1.0, 8))
    with pytest.raises(ConfigurationError, match="equal length"):
        BatchedChip.from_subarray_views(chips, sites, epochs=[0, 1])


def _reference_planes(variation, rng, n_rows, n_cols):
    """The variation model as a sequence of per-plane generator calls."""
    var = variation
    sa_offset = rng.normal(var.sa_offset_mean, var.sa_offset_sigma,
                           size=n_cols)
    primary_mean = var.primary_weight_mean
    if var.primary_weight_module_sigma > 0:
        primary_mean += float(rng.normal(0.0,
                                         var.primary_weight_module_sigma))
    primary_boost = np.abs(rng.normal(primary_mean, var.primary_weight_sigma,
                                      size=n_cols))
    bias_mean = var.multirow_bias_mean
    if var.multirow_bias_module_sigma > 0:
        bias_mean += float(rng.normal(0.0, var.multirow_bias_module_sigma))
    multirow_bias = rng.normal(bias_mean, var.multirow_bias_sigma,
                               size=n_cols)
    amp_alpha = np.clip(rng.normal(var.halfm_amp_mean, var.halfm_amp_sigma,
                                   size=n_cols), 0.02, 0.998)
    log_tau = rng.normal(var.tau_log_median_s, var.tau_log_sigma,
                         size=(n_rows, n_cols))
    strong = rng.random(size=(n_rows, n_cols)) < var.strong_cell_fraction
    log_tau = np.where(strong,
                       log_tau + np.log(var.strong_cell_tau_multiplier),
                       log_tau)
    vrt_mask = rng.random(size=(n_rows, n_cols)) < var.vrt_cell_fraction
    weak = rng.random(size=(n_rows, n_cols)) < var.frac_weak_fraction
    weak_coupling = rng.uniform(0.0, var.frac_weak_coupling_max,
                                size=(n_rows, n_cols))
    return {
        "sa_offset": sa_offset, "primary_boost": primary_boost,
        "multirow_bias": multirow_bias, "amp_alpha": amp_alpha,
        "tau_s": np.exp(log_tau), "vrt_mask": vrt_mask,
        "interrupt_coupling": np.where(weak, weak_coupling, 1.0),
    }


def _assert_reference_planes(group, serial, lanes_of):
    """Each sub-array's planes equal the reference sequence drawn from
    ``default_rng(fab.integers(0, 2**63))``, taken bank-major from the
    chip's fabrication stream; ``lanes_of(bank, sub)`` lists the
    fabricated sub-arrays to check there."""
    geometry = GEOMETRIES["2x2"]
    fabrication = derive_rng(MASTER_SEED, "fab", group.group_id, serial)
    for bank in range(geometry.n_banks):
        for sub in range(geometry.subarrays_per_bank):
            rng = np.random.default_rng(fabrication.integers(0, 2 ** 63))
            want = _reference_planes(group.variation, rng,
                                     geometry.rows_per_subarray,
                                     geometry.columns)
            for planes in lanes_of(bank, sub):
                for name in PLANES:
                    assert _same_bytes(planes[name], want[name]), (
                        f"{group.group_id}/{serial}: {name} of sub-array "
                        f"{bank}/{sub} left the reference")


@pytest.mark.parametrize("group_id, serial", SPECS)
def test_planes_follow_the_reference_draw_sequence(group_id, serial):
    geometry = GEOMETRIES["2x2"]
    chip = DramChip(group_id, geometry=geometry, serial=serial,
                    master_seed=MASTER_SEED)
    device = BatchedChip.from_fleet([(group_id, serial)], geometry=geometry,
                                    master_seed=MASTER_SEED)

    def lanes_of(bank, sub):
        scalar = chip.banks[bank].subarrays[sub]
        cell = device.cells[bank][sub]
        return [{name: getattr(scalar, name) for name in PLANES},
                {name: getattr(cell, name)[0] for name in PLANES}]

    _assert_reference_planes(chip.group, serial, lanes_of)


def test_weak_cells_follow_the_reference_draw_sequence():
    """Frac-weak cells make the last two uniform planes visible (every
    catalog group has none, so this builds the scalar chip directly)."""
    group = get_group("B").with_variation(frac_weak_fraction=0.3)
    chip = DramChip(group, geometry=GEOMETRIES["2x2"], serial=3,
                    master_seed=MASTER_SEED)
    assert (chip.banks[0].subarrays[0].interrupt_coupling < 1.0).any()
    _assert_reference_planes(group, 3, lambda bank, sub: [
        {name: getattr(chip.banks[bank].subarrays[sub], name)
         for name in PLANES}])
