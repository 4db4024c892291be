from workloads import ANALYZE_TABLES, analyze_tables, write_analyze_input


def test_analyze_input_depends_only_on_the_seed():
    assert analyze_tables(5) == analyze_tables(5)
    assert analyze_tables(5) != analyze_tables(6)


def test_analyze_input_has_raw_counts_of_the_stated_sizes(tmp_path):
    tables = write_analyze_input(tmp_path / "in.txt", 3)
    assert len(tables) == ANALYZE_TABLES
    assert list(tables)[0] == "line2"
    for cells in tables.values():
        assert all(isinstance(c, int) and c >= 0 for c in cells)
        r, s = sum(cells[:3]), sum(cells[3:])
        assert 10 <= r <= 400 and r <= s <= 5 * r + 1
    assert any(0 in cells for cells in tables.values())
