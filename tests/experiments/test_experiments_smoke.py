"""Smoke tests: every experiment runs on a tiny config and reproduces the
paper's qualitative claims.  (The benchmarks run the full versions.)"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig
from repro.experiments import (
    fig6_retention,
    fig7_maj3,
    fig8_half_m,
    fig9_fmaj_coverage,
    fig10_fmaj_stability,
    fig11_puf_hd,
    fig12_puf_env,
    latency,
    nist_randomness,
    table1,
    timing_sweep,
)

TINY = ExperimentConfig(columns=128, rows_per_subarray=16,
                        subarrays_per_bank=2, n_banks=2, chips_per_group=1)


@pytest.fixture(scope="module")
def table1_result():
    return table1.run(TINY)


@pytest.mark.slow
class TestTable1:
    def test_matches_paper(self, table1_result):
        assert table1_result.matches_paper

    def test_format(self, table1_result):
        text = table1_result.format_table()
        assert "SK Hynix" in text and "matches Table I" in text

    def test_all_twelve_groups_probed(self, table1_result):
        assert len(table1_result.rows) == 12


class TestFig6:
    def test_monotonic_majority_and_format(self):
        result = fig6_retention.run(TINY, rows_per_bank_sample=1)
        assert result.mean_monotonic_fraction() > 0.4
        assert len(result.groups) == 9  # A-I
        assert set(result.unaffected_groups) == {"J", "K", "L"}
        assert "Figure 6" in result.format_table()


class TestFig7:
    def test_fractional_values_proven(self):
        result = fig7_maj3.run(TINY)
        assert result.fractional_values_proven()
        assert len(result.settings) == 4
        assert "X1=1,X2=0" in result.format_table()


class TestFig8:
    def test_three_states_and_weak_values(self):
        result = fig8_half_m.run(TINY)
        assert 0.02 < result.half_distinguishable_fraction < 0.5
        assert result.weak_values_behave_normally()
        assert "Half-m" in result.format_table()


class TestFig9:
    def test_headline_claims(self):
        result = fig9_fmaj_coverage.run(TINY, frac_counts=(0, 1, 2))
        assert result.all_groups_nonzero()
        assert result.best_beats_baseline()
        # Preferred configurations emerge per group.
        assert result.best_curve("B").frac_position == 1      # R2
        assert result.best_curve("C").frac_position == 0      # R1
        assert result.best_curve("D").frac_position == 3      # R4
        assert result.best_curve("D").init_ones is False
        assert "Group B" in result.format_table()


class TestFig10:
    def test_shape_and_ordering(self):
        result = fig10_fmaj_stability.run(TINY, trials=60)
        assert result.part_a.shape_holds()
        assert result.fmaj_beats_maj3()
        assert "always-correct" in result.format_table()


class TestFig11:
    def test_uniqueness(self):
        result = fig11_puf_hd.run(TINY, n_challenges=8, modules_per_group=2)
        assert result.uniqueness_guaranteed()
        assert result.max_intra < 0.15
        assert result.min_inter > 0.2
        group_a = next(g for g in result.groups if g.group_id == "A")
        assert group_a.hamming_weight < 0.35
        assert "Figure 11" in result.format_table()

    def test_too_many_challenges_is_a_configuration_error(self):
        # 2 banks x 2 sub-arrays x 15 usable rows.
        assert len(fig11_puf_hd.default_challenges(TINY, 60)) == 60
        with pytest.raises(ConfigurationError, match="only 60"):
            fig11_puf_hd.default_challenges(TINY, 61)


class TestFig12:
    def test_robustness(self):
        result = fig12_puf_env.run(TINY, n_challenges=6, modules_per_group=2)
        assert result.robust()
        assert result.intra_grows_with_temperature()
        assert "1.4V" in result.format_table()


@pytest.mark.slow
class TestNist:
    def test_whitened_stream_passes(self):
        result = nist_randomness.run(TINY)
        assert result.all_passed
        assert result.whitened_bits > 90_000
        assert abs(result.whitened_weight - 0.5) < 0.01
        assert "NIST" in result.format_table()


class TestTimingSweep:
    def test_windows_match_model(self):
        result = timing_sweep.run(TINY)
        assert result.windows_match_model()
        # Voltage rises monotonically with the interrupt gap.
        voltages = [o.mean_voltage for o in result.act_pre]
        assert voltages == sorted(voltages)
        assert "Timing-window" in result.format_table()


class TestLatency:
    def test_matches_paper(self):
        result = latency.run()
        assert result.matches_paper()
        assert result.frac_cycles == 7
        assert result.row_copy_cycles == 18
        assert 0.27 < result.fmaj_overhead < 0.31
        assert "29" in result.format_table()
