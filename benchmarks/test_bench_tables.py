"""Tables 1 and 2 plus the §3.2 variability comparison.

Paper bands: C^2 is 1.0-1.5 for TPC-C, ~15 for TPC-W, ~2 for the
commercial traces.
"""

from repro.experiments.tables import table1, table2, variability_table


def test_table1(once):
    text = once(table1)
    print()
    print(text)
    assert text.count("TPC-") >= 6


def test_table2(once):
    text = once(table2)
    print()
    print(text)
    assert len(text.strip().splitlines()) == 20  # title + header + sep + 17


def test_variability_bands(once):
    text = once(variability_table, samples=12_000)
    print()
    print(text)

    def scv_of(row_name):
        for line in text.splitlines():
            if row_name in line:
                return float(line.rsplit("|", 1)[1])
        raise AssertionError(f"{row_name} missing")

    assert 0.8 <= scv_of("W_CPU-inventory") <= 1.8  # paper: 1.0-1.5
    assert 10.0 <= scv_of("W_CPU-browsing") <= 22.0  # paper: ~15
    assert 1.5 <= scv_of("online-retailer") <= 2.6  # paper: ~2
    assert 1.6 <= scv_of("auction-site") <= 2.9  # paper: ~2
