"""Reference data for the abalone length case study.

The source study published a 24-month approximation table (monthly growth
rates plus predicted lengths for six fractional orders) but not the
underlying observed series, and it does not state how the table steps from
month to month.  The constants here carry the printed values so runs can be
compared against them; :func:`deviation_report` quantifies the gap under
each stepping convention.
"""

from __future__ import annotations

from typing import Dict, Optional

from .fractional import FracOrder
from .growth import Convention, EtaSchedule, predict_table

INITIAL_LENGTH = 0.5322
INITIAL_GROWTH_RATE = 0.04305

REFERENCE_ORDERS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

# Printed monthly growth rates; row m of the table carries the rate for the
# step from month m-1 to month m, so entry index i is keyed month i+1.
REFERENCE_ETAS = (
    0.4936, 0.4724, 0.4521, 0.4326, 0.4239, 0.3962, 0.0380, 0.3628,
    0.3472, 0.3322, 0.3179, 0.3043, 0.2911, 0.2786, 0.2666, 0.2551,
    0.2443, 0.2336, 0.2236, 0.2140, 0.2047, 0.1960, 0.1875,
)

# The value 0.0380 in row 8 breaks the otherwise smooth decline of the rate
# column and would force a predicted shrink month 7 -> 8; 0.3800 restores
# the pattern.  Exposed as an opt-in override, never applied silently.
MONTH8_ROW = 8
MONTH8_PRINTED = 0.0380
MONTH8_CORRECTED = 0.3800

# Printed predicted lengths, months 1..24 by orders 0.5..1.0.
REFERENCE_TABLE = (
    (0.5322, 0.5322, 0.5322, 0.5322, 0.5322, 0.5322),
    (0.7370, 0.7794, 0.8119, 0.8366, 0.8550, 0.8687),
    (1.3924, 1.4726, 1.5341, 1.5805, 1.6154, 1.6413),
    (1.9934, 2.1082, 2.1962, 2.2627, 2.3126, 2.3496),
    (2.5435, 2.6900, 2.8023, 2.8872, 2.9508, 2.9981),
    (3.0768, 3.2540, 3.3898, 3.4925, 3.5694, 3.6267),
    (3.5397, 3.7436, 3.8998, 4.0179, 4.1065, 4.1723),
    (3.9611, 4.1892, 4.3641, 4.4963, 4.5954, 4.6691),
    (4.3558, 4.6067, 4.7989, 4.9444, 5.0533, 5.1344),
    (4.7240, 4.9960, 5.2045, 5.3622, 5.4804, 5.5683),
    (5.0643, 5.3559, 5.5794, 5.7485, 5.8751, 5.9694),
    (5.3797, 5.6895, 5.9269, 6.1065, 6.2410, 6.3412),
    (5.6726, 5.9993, 6.2497, 6.4390, 6.5809, 6.6865),
    (5.9436, 6.2859, 6.5482, 6.7467, 6.8953, 7.0059),
    (6.1961, 6.5529, 6.8264, 7.0332, 7.1882, 7.3035),
    (6.4308, 6.8011, 7.0849, 7.2996, 7.4604, 7.5801),
    (6.6491, 7.0321, 7.3255, 7.5475, 7.7138, 7.8375),
    (6.8540, 7.2487, 7.5512, 7.7800, 7.9515, 8.0790),
    (7.0429, 7.4485, 7.7593, 7.9944, 8.1705, 8.3016),
    (7.2206, 7.6365, 7.9551, 8.1962, 8.3768, 8.5111),
    (7.3866, 7.8120, 8.1380, 8.3846, 8.5693, 8.7068),
    (7.5410, 7.9753, 8.3081, 8.5599, 8.7485, 8.8888),
    (7.6869, 8.1297, 8.4689, 8.7255, 8.9178, 9.0608),
    (7.8225, 8.2730, 8.6182, 8.8793, 9.0750, 9.2205),
)

# The source study reports these MAE scores for orders 0.5..1.0 against its
# (unpublished) observed series.  Documentation targets only: they cannot be
# recomputed without that series.
REPORTED_MAE = (0.2622, 0.5373, 0.7517, 0.9155, 1.0382, 1.1294)


def reference_schedule() -> EtaSchedule:
    """Printed rate schedule, keyed from month 1."""
    return EtaSchedule(tuple(enumerate(REFERENCE_ETAS, start=1)))


def correct_month8(schedule: EtaSchedule, eta: Optional[float]) -> EtaSchedule:
    """``schedule`` with the rate of the step from month 7 to month 8 set to
    ``eta``, whichever month the schedule starts at; unchanged when ``eta``
    is None.  Raises ValidationError if the schedule lacks that step."""
    if eta is None:
        return schedule
    return schedule.replaced(MONTH8_ROW - 1, eta)


def deviation_report(month8_override: Optional[float] = None) -> Dict[str, Dict[str, object]]:
    """Cell-by-cell deviation of each convention's grid from the printed table.

    Returns, per convention: the generated grid values and the max/mean
    absolute deviation.
    """
    orders = [FracOrder(b) for b in REFERENCE_ORDERS]
    etas = correct_month8(reference_schedule(), month8_override)
    out: Dict[str, Dict[str, object]] = {}
    for conv in Convention:
        grid = predict_table(INITIAL_LENGTH, INITIAL_GROWTH_RATE, etas, orders, conv)
        abs_devs = [abs(v - ref) for row, ref_row in zip(grid.values, REFERENCE_TABLE)
                    for v, ref in zip(row, ref_row)]
        out[conv.value] = {
            "values": [list(row) for row in grid.values],
            "max_abs_deviation": max(abs_devs),
            "mean_abs_deviation": sum(abs_devs) / len(abs_devs),
        }
    return out
