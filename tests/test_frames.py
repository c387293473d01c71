from __future__ import annotations

import pytest

from slicemetrics import ResultFrame


class TestValidation:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ResultFrame(("g",), ("m",), ((("a",), (1.0,)), (("a",), (2.0,))))

    def test_row_width_rejected(self):
        with pytest.raises(ValueError, match="values"):
            ResultFrame(("g",), ("m", "n"), ((("a",), (1.0,)),))
        with pytest.raises(ValueError, match="cells"):
            ResultFrame(("g", "h"), ("m",), ((("a",), (1.0,)),))


class TestSerialization:
    def test_csv_keys_then_values(self):
        frame = ResultFrame(
            ("region",), ("churn",),
            ((("US",), (0.5,)), (("EU",), (float("nan"),))),
        )
        assert frame.to_csv() == "region,churn\nUS,0.5\nEU,NaN\n"

    def test_csv_null_key_is_empty_field(self):
        frame = ResultFrame(("g",), ("m",), (((None,), (1.0,)),))
        assert frame.to_csv() == "g,m\n,1.0\n"

    def test_text_is_aligned(self):
        frame = ResultFrame(
            ("experiment",), ("pct_change_of_churn",),
            ((("control",), (0.0,)), (("treatment1",), (3.2,))),
        )
        lines = frame.to_text().splitlines()
        assert lines[0].startswith("experiment")
        assert lines[1].startswith("-")
        assert lines[2].split() == ["control", "0.0"]

    def test_sorted_rows_handles_mixed_key_types(self):
        frame = ResultFrame(
            ("g",), ("m",),
            ((("b",), (1.0,)), ((2,), (2.0,)), ((None,), (3.0,)), ((1,), (4.0,))),
        )
        ordered = [k[0] for k, _ in frame.sorted_rows()]
        assert ordered == [None, 1, 2, "b"]

    def test_sorted_rows_are_one_order_in_any_input_order(self):
        # Nulls, then numbers, then text by code point: sqlite's ORDER BY.
        cells = [2.5, "a", None, -1, "B"]
        orders = []
        for shift in range(len(cells)):
            keys = cells[shift:] + cells[:shift]
            frame = ResultFrame(("g",), ("m",), tuple(((k,), (0.0,)) for k in keys))
            orders.append(repr([k for k, _ in frame.sorted_rows()]))
        assert set(orders) == {"[(None,), (-1,), (2.5,), ('B',), ('a',)]"}

    def test_single_value_guard(self):
        frame = ResultFrame(("g",), ("m",), ((("a",), (1.0,)), (("b",), (2.0,))))
        with pytest.raises(ValueError):
            frame.single_value()
