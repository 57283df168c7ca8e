import math
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspbench.errors import ValidationError
from tspbench.metrics import (
    MetricsRow,
    TimingRecord,
    build_metrics_table,
    efficiency,
    karp_flatt,
    speedup,
)


class TestSpeedup:
    def test_basic(self):
        assert speedup(10.0, 5.0) == 2.0
        assert speedup(1.0, 1.0) == 1.0

    def test_reference_ratio(self):
        # 32.440 s serial vs 0.048 s accelerated; the reference report lists
        # 673.260x was computed from unrounded times, so recomputation
        # from the printed ones must land within 1%.
        psi = speedup(32.440, 0.048)
        assert psi == pytest.approx(675.8333, abs=1e-3)
        assert abs(psi - 673.260) / 673.260 < 0.01

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            speedup(0.0, 1.0)
        with pytest.raises(ValidationError):
            speedup(1.0, -2.0)


class TestEfficiency:
    def test_reference_cell(self):
        assert efficiency(1.814, 2) == pytest.approx(0.907)

    def test_ideal_scaling(self):
        for p in (1, 2, 8, 20):
            assert efficiency(float(p), p) == 1.0

    def test_arithmetic(self):
        assert efficiency(19.5, 20) == pytest.approx(0.975)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            efficiency(-1.0, 2)
        with pytest.raises(ValidationError):
            efficiency(1.0, 0)


class TestKarpFlatt:
    def test_reference_cells(self):
        assert karp_flatt(1.814, 2) == pytest.approx(0.1026, abs=1e-4)
        assert karp_flatt(1.95, 2) == pytest.approx(0.0256, abs=5e-5)

    def test_perfectly_parallel(self):
        assert karp_flatt(8.0, 8) == pytest.approx(0.0)

    def test_no_scaling_means_all_serial(self):
        for p in (2, 4, 16):
            assert karp_flatt(1.0, p) == pytest.approx(1.0)

    def test_degenerate_p_rejected(self):
        with pytest.raises(ValidationError):
            karp_flatt(1.5, 1)

    def test_strictly_decreasing_in_efficiency(self):
        for p in (2, 4, 8, 20):
            values = [karp_flatt(eta * p, p) for eta in (0.2, 0.4, 0.6, 0.8, 1.0)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert values[-1] == pytest.approx(0.0)

    @given(
        t_serial=st.floats(min_value=1e-6, max_value=1e6),
        t_parallel=st.floats(min_value=1e-6, max_value=1e6),
        p=st.integers(min_value=2, max_value=64),
        k=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, t_serial, t_parallel, p, k):
        psi = speedup(t_serial, t_parallel)
        psi_scaled = speedup(k * t_serial, k * t_parallel)
        assert efficiency(psi_scaled, p) == pytest.approx(efficiency(psi, p), rel=1e-12)
        assert karp_flatt(psi_scaled, p) == pytest.approx(karp_flatt(psi, p), rel=1e-9, abs=1e-12)

    @given(
        a=st.floats(min_value=1e-6, max_value=1e6),
        b=st.floats(min_value=1e-6, max_value=1e6),
        p=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200)
    def test_efficiency_of_speedup_identity(self, a, b, p):
        lhs = efficiency(speedup(a, b), p)
        rhs = a / (b * p)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


class TestTimingRecord:
    def test_from_runs(self):
        record = TimingRecord.from_runs("serial", 10, 1, [1.0, 2.0, 3.0])
        assert record.mean_time == pytest.approx(2.0)

    def test_rejects_empty_runs(self):
        with pytest.raises(ValidationError):
            TimingRecord("serial", 10, 1, (), 1.0)

    def test_rejects_non_positive_runs(self):
        with pytest.raises(ValidationError):
            TimingRecord.from_runs("serial", 10, 1, [1.0, 0.0])

    def test_rejects_inconsistent_mean(self):
        with pytest.raises(ValidationError):
            TimingRecord("serial", 10, 1, (1.0, 2.0), 7.0)
        with pytest.raises(ValidationError):
            TimingRecord("serial", 10, 1, (1.0, 2.0), math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_runs(self, bad):
        # report_to_json would write NaN or Infinity, which report_from_json refuses
        with pytest.raises(ValidationError, match="run times must be finite"):
            TimingRecord.from_runs("serial", 4, 1, [1.0, bad])

    @pytest.mark.parametrize("name, value", [("n", 10.0), ("n", True), ("p", 2.0), ("p", "2")])
    def test_rejects_sizes_that_are_not_ints(self, name, value):
        # the report's reader takes only an int for either
        fields = {"backend": "serial", "n": 10, "p": 1, "runs": [1.0], name: value}
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {value!r}$"):
            TimingRecord.from_runs(**fields)

    def test_replace_and_unpickle_run_the_checks(self):
        record = TimingRecord.from_runs("serial", 10, 1, [1.0, 3.0])
        with pytest.raises(ValidationError, match="needs at least one run"):
            record._replace(runs=())
        payload = pickle.dumps(record)
        assert pickle.loads(payload) == record
        three = struct.pack(">d", 3.0)  # a BINFLOAT's eight bytes
        assert payload.count(three) == 1
        with pytest.raises(ValidationError, match="run times must be positive"):
            pickle.loads(payload.replace(three, struct.pack(">d", -3.0)))


class TestBuildMetricsTable:
    def test_reference_cross_check(self):
        record = TimingRecord.from_runs("shared_memory", 10, 2, [5.0])
        (row,) = build_metrics_table([record], {10: 9.07})
        assert row.speedup == pytest.approx(1.814)
        assert row.efficiency == pytest.approx(0.907)
        assert row.karp_flatt == pytest.approx(0.1026, abs=1e-4)

    def test_serial_row_has_no_serial_fraction(self):
        record = TimingRecord.from_runs("serial", 8, 1, [2.5])
        (row,) = build_metrics_table([record], {8: 2.5})
        assert row.speedup == 1.0
        assert row.efficiency == 1.0
        assert row.karp_flatt is None

    def test_shared_baseline_reused_and_sorted(self):
        records = [
            TimingRecord.from_runs("shared_memory", 8, 4, [1.0]),
            TimingRecord.from_runs("message_passing", 8, 2, [2.0]),
            TimingRecord.from_runs("shared_memory", 8, 2, [2.0]),
        ]
        rows = build_metrics_table(records, {8: 4.0})
        assert [(r.backend, r.n, r.p) for r in rows] == [
            ("message_passing", 8, 2),
            ("shared_memory", 8, 2),
            ("shared_memory", 8, 4),
        ]
        assert rows[0].speedup == pytest.approx(2.0)
        assert rows[2].speedup == pytest.approx(4.0)

    def test_missing_baseline_names_the_size(self):
        record = TimingRecord.from_runs("shared_memory", 11, 2, [1.0])
        with pytest.raises(ValidationError, match="n=11"):
            build_metrics_table([record], {10: 9.07})

    def test_row_shape(self):
        record = TimingRecord.from_runs("hybrid", 9, 4, [0.5, 0.7])
        (row,) = build_metrics_table([record], {9: 1.2})
        assert isinstance(row, MetricsRow)
        assert row.mean_seconds == pytest.approx(0.6)
