"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


def test_parser_accepts_known_commands():
    parser = build_parser()
    for cmd in ("fig3", "fig4", "table1", "table2", "table3", "all"):
        args = parser.parse_args([cmd])
        assert args.command == cmd


def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig9"])


def test_jobs_defaults_to_one_worker_per_cpu():
    parser = build_parser()
    assert parser.parse_args(["fig3"]).jobs == 0
    assert parser.parse_args(["check", "all"]).jobs == 0
    assert parser.parse_args(["table2", "--jobs", "1"]).jobs == 1


def test_size_list_parsing():
    parser = build_parser()
    args = parser.parse_args(["fig3", "--sizes", "2,8,128"])
    assert args.sizes == [2, 8, 128]


def test_table3_quick_end_to_end(capsys):
    assert main(["table3", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out
    assert "Eager Maps" in out


def test_fig3_quick_end_to_end(capsys):
    assert main(["fig3", "--quick", "--sizes", "2", "--threads", "1,4",
                 "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 3" in out and "NiO S2" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    assert main(["table3", "--quick", "--out", str(path)]) == 0
    assert "Table III" in path.read_text()


def test_cache_flag_parsing():
    parser = build_parser()
    args = parser.parse_args(["fig3", "--cache", "--cache-dir", "/tmp/x"])
    assert args.cache is True and args.cache_dir == "/tmp/x"
    assert parser.parse_args(["fig3"]).cache is False


def test_fig3_cache_warm_run_identical(tmp_path, capsys):
    argv = ["fig3", "--quick", "--sizes", "2", "--threads", "1", "--jobs", "1",
            "--cache", "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert warm == cold
    # the cache directory was actually populated
    assert any((tmp_path / "cache").iterdir())


class _StubRatio:
    """A grid cell whose ratio is a fixed function of its coordinates."""

    def __init__(self, size, threads):
        self.size, self.threads = size, threads

    def ratio(self, config):
        return self.size + self.threads / 10 + len(config.name) / 100


def _stub_grid_collector(monkeypatch):
    """Replace the QMCPack grid collector and the three tables with stubs;
    returns the list of ``threads`` each grid collection asked for."""
    import repro.cli as cli
    from repro.experiments.figures import QmcPackGrid

    calls = []

    def collect(sizes, threads, *, fidelity, reps, **_kw):
        calls.append(tuple(threads))
        grid = QmcPackGrid(fidelity=fidelity, reps=reps)
        grid.cells = {(s, t): _StubRatio(s, t) for s in sizes for t in threads}
        return grid

    monkeypatch.setattr(cli, "collect_qmcpack_grid", collect)
    for name in ("cmd_table1", "cmd_table2", "cmd_table3"):
        monkeypatch.setattr(cli, name, lambda _args, name=name: name)
    return calls


@pytest.mark.parametrize("threads, grids", [
    ("1,8", [(1, 8)]),
    ("1,2,4,8", [(1, 2, 4, 8)]),
    ("1,2", [(1, 2), (8,)]),
])
def test_all_collects_the_qmcpack_grid_once_when_it_has_8_threads(monkeypatch, threads, grids):
    import repro.cli as cli

    calls = _stub_grid_collector(monkeypatch)
    args = build_parser().parse_args(["all", "--quick", "--sizes", "2,8", "--threads", threads])
    sections = cli.cmd_all(args).split("\n\n" + "=" * 72 + "\n\n")
    assert calls == grids
    assert sections[2:] == ["cmd_table1", "cmd_table2", "cmd_table3"]
    calls.clear()
    assert sections[0] == cli.cmd_fig3(args)
    assert sections[1] == cli.cmd_fig4(args)
    assert calls == [tuple(int(t) for t in threads.split(",")), (8,)]
