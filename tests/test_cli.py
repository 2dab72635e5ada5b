import json
from pathlib import Path

import pytest

from cyclesplit import cli
from cyclesplit.cli import main
from cyclesplit.graphs import dump_cover, dump_graph, load_cover, load_graph, validate_cover
from cyclesplit.instances import gen_implant_free


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_planted_writes_files(self, tmp_path):
        prefix = tmp_path / "inst"
        assert run("gen", "--model", "planted", "--n", "20", "--p", "0.3",
                   "--seed", "7", "--out", str(prefix)) == 0
        g = load_graph((tmp_path / "inst.graph").read_text())
        cover = load_cover((tmp_path / "inst.cover").read_text(), g.n)
        assert validate_cover(g, cover) == 1
        sidecar = json.loads((tmp_path / "inst.json").read_text())
        assert sidecar["model"] == "planted" and sidecar["seed"] == 7

    def test_gen_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for prefix in (a, b):
            assert run("gen", "--model", "planted", "--n", "30", "--p", "0.3",
                       "--seed", "5", "--out", str(prefix)) == 0
        assert (tmp_path / "a.graph").read_bytes() == (tmp_path / "b.graph").read_bytes()
        assert (tmp_path / "a.cover").read_bytes() == (tmp_path / "b.cover").read_bytes()

    def test_triangles_model(self, tmp_path):
        prefix = tmp_path / "tri"
        assert run("gen", "--model", "triangles", "--k", "3", "--m", "4",
                   "--seed", "1", "--out", str(prefix)) == 0
        g = load_graph((tmp_path / "tri.graph").read_text())
        assert g.n == 14

    def test_cliques_model(self, tmp_path, capsys):
        prefix = tmp_path / "cl"
        assert run("gen", "--model", "cliques", "--q", "5", "--seed", "2",
                   "--out", str(prefix)) == 0
        g = load_graph((tmp_path / "cl.graph").read_text())
        assert g.n == 10 and g.m == 2 * 10 + 2
        assert not (tmp_path / "cl.cover").exists()
        assert json.loads((tmp_path / "cl.json").read_text())["model"] == "cliques"
        # the family has odd clique order; an even one needs --allow-even
        capsys.readouterr()
        even = tmp_path / "even"
        assert run("gen", "--model", "cliques", "--q", "6", "--out", str(even)) == 1
        assert "allow_even" in capsys.readouterr().err
        assert not (tmp_path / "even.graph").exists()
        assert run("gen", "--model", "cliques", "--q", "6", "--allow-even",
                   "--out", str(even)) == 0
        assert load_graph((tmp_path / "even.graph").read_text()).n == 12

    def test_missing_model_args(self, tmp_path):
        assert run("gen", "--model", "planted", "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--model", "cliques"], "gen cliques requires --q"),
            (["--model", "triangles"], "gen triangles requires --k and --m"),
            (["--model", "triangles", "--k", "3"], "gen triangles requires --k and --m"),
            (["--model", "triangles", "--m", "4"], "gen triangles requires --k and --m"),
        ],
        ids=["cliques-without-q", "triangles-without-k-m", "triangles-without-m",
             "triangles-without-k"],
    )
    def test_missing_model_args_message(self, tmp_path, capsys, args, message):
        assert run("gen", *args, "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not list(tmp_path.iterdir())


@pytest.fixture
def planted_instance(tmp_path):
    prefix = tmp_path / "p"
    run("gen", "--model", "planted", "--n", "24", "--p", "0.4", "--seed", "3",
        "--out", str(prefix))
    return prefix


class TestSolve:
    def test_success_exit_zero(self, planted_instance, tmp_path):
        out = tmp_path / "out.cover"
        stats = tmp_path / "stats.json"
        code = run("solve", "--graph", f"{planted_instance}.graph",
                   "--cover", f"{planted_instance}.cover", "--k", "3",
                   "--out", str(out), "--stats", str(stats))
        assert code == 0
        g = load_graph((tmp_path / "p.graph").read_text())
        cover = load_cover(out.read_text(), g.n)
        assert validate_cover(g, cover) == 3
        payload = json.loads(stats.read_text())
        assert payload["success"] is True and payload["k_target"] == 3
        assert "wall_time" not in payload

    def test_cover_alone_on_stdout(self, planted_instance, capsys):
        # without --out, stdout is a cover file and the status line goes to stderr
        assert run("solve", "--graph", f"{planted_instance}.graph",
                   "--cover", f"{planted_instance}.cover", "--k", "3") == 0
        printed = capsys.readouterr()
        g = load_graph(Path(f"{planted_instance}.graph").read_text())
        assert validate_cover(g, load_cover(printed.out, g.n)) == 3
        assert printed.err.startswith("success: 3 cycles")

    def test_deterministic_bytes(self, planted_instance, tmp_path):
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / f"{name}.cover"
            stats = tmp_path / f"{name}.json"
            assert run("solve", "--graph", f"{planted_instance}.graph",
                       "--cover", f"{planted_instance}.cover", "--k", "4",
                       "--seed", "11", "--out", str(out), "--stats", str(stats)) == 0
            outs.append((out.read_bytes(), stats.read_bytes()))
        assert outs[0] == outs[1]

    def test_k_below_components_is_input_error(self, tmp_path):
        prefix = tmp_path / "t"
        run("gen", "--model", "triangles", "--k", "3", "--m", "4", "--seed", "0",
            "--out", str(prefix))
        code = run("solve", "--graph", f"{prefix}.graph",
                   "--cover", f"{prefix}.cover", "--k", "2")
        assert code == 1

    def test_honest_failure_exit_two(self, tmp_path):
        (tmp_path / "c.graph").write_text("6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n")
        (tmp_path / "c.cover").write_text("0 1 2 3 4 5\n")
        stats = tmp_path / "c.stats"
        code = run("solve", "--graph", str(tmp_path / "c.graph"),
                   "--cover", str(tmp_path / "c.cover"), "--k", "2",
                   "--stats", str(stats))
        assert code == 2
        payload = json.loads(stats.read_text())
        assert payload["success"] is False

    def test_malformed_graph_exit_one(self, tmp_path):
        (tmp_path / "bad.graph").write_text("2 2\n0 1\n0 1\n")
        (tmp_path / "bad.cover").write_text("0 1\n")
        assert run("solve", "--graph", str(tmp_path / "bad.graph"),
                   "--cover", str(tmp_path / "bad.cover"), "--k", "1") == 1

    def test_params_file(self, planted_instance, tmp_path):
        pfile = tmp_path / "params.txt"
        pfile.write_text("h_edge_target = 5\nenrich_rounds = 2\n")
        assert run("solve", "--graph", f"{planted_instance}.graph",
                   "--cover", f"{planted_instance}.cover", "--k", "2",
                   "--params", str(pfile), "--out", str(tmp_path / "o.cover")) == 0

    def test_unknown_params_key(self, planted_instance, tmp_path):
        pfile = tmp_path / "params.txt"
        pfile.write_text("no_such_threshold = 5\n")
        assert run("solve", "--graph", f"{planted_instance}.graph",
                   "--cover", f"{planted_instance}.cover", "--k", "2",
                   "--params", str(pfile)) == 1

    def test_seed_in_params_file_is_input_error(self, planted_instance, tmp_path, capsys):
        # all randomness flows from --seed, so a params file may not set it
        pfile = tmp_path / "params.txt"
        pfile.write_text("enrich_rounds = 2\nseed = 5\n")
        stats = tmp_path / "stats.json"
        assert run("solve", "--graph", f"{planted_instance}.graph",
                   "--cover", f"{planted_instance}.cover", "--k", "2",
                   "--params", str(pfile), "--stats", str(stats)) == 1
        assert capsys.readouterr().err == "error: set the seed with --seed\n"
        assert not stats.exists()

    @pytest.mark.parametrize("key", ["h_edge_target", "seed", "thomassen_degree_floor"])
    def test_bad_params_value(self, planted_instance, tmp_path, capsys, key):
        pfile = tmp_path / "params.txt"
        pfile.write_text(f"enrich_rounds = 2\n{key} = none\n")
        assert run("solve", "--graph", f"{planted_instance}.graph",
                   "--cover", f"{planted_instance}.cover", "--k", "2",
                   "--params", str(pfile)) == 1
        assert f"line 2: bad value for '{key}': 'none'" in capsys.readouterr().err

    def test_implant_free_host_walks_by_default(self, tmp_path):
        # the host's Hamilton cycle hosts no implanted C4, so only the walk's
        # rewire reaches k; the default degree floor lets it run
        g, cover = gen_implant_free(60, 1)
        (tmp_path / "f.graph").write_text(dump_graph(g))
        (tmp_path / "f.cover").write_text(dump_cover(cover))
        out = tmp_path / "out.cover"
        assert run("solve", "--graph", str(tmp_path / "f.graph"),
                   "--cover", str(tmp_path / "f.cover"), "--k", "4",
                   "--out", str(out)) == 0
        assert validate_cover(g, load_cover(out.read_text(), g.n)) == 4


class TestVerify:
    def test_valid_two_components(self, tmp_path, capsys):
        (tmp_path / "g.graph").write_text("6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
        (tmp_path / "g.cover").write_text("0 1 2\n3 4 5\n")
        assert run("verify", "--graph", str(tmp_path / "g.graph"),
                   "--cover", str(tmp_path / "g.cover")) == 0
        assert "valid, 2 components" in capsys.readouterr().out

    def test_invalid_cover(self, tmp_path):
        (tmp_path / "g.graph").write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
        (tmp_path / "g.cover").write_text("0 1 2\n3 4 5\n")
        assert run("verify", "--graph", str(tmp_path / "g.graph"),
                   "--cover", str(tmp_path / "g.cover")) == 1

    @pytest.mark.parametrize("command", ["verify", "solve"])
    @pytest.mark.parametrize(
        "cover_text, graph_n, message",
        [
            ("0 1 2\n", 10, "cover spans 3 vertices, graph has 10"),
            ("", 10, "cover spans 0 vertices, graph has 10"),
            (" ".join(map(str, range(10))) + "\n", 3, "cover spans 10 vertices, graph has 3"),
        ],
        ids=["short-cover", "empty-cover", "short-graph"],
    )
    def test_vertex_count_mismatch(self, tmp_path, capsys, monkeypatch, command,
                                   cover_text, graph_n, message):
        """A cover whose vertex count is not the graph's is named as such, in
        ``validate_cover``'s words, before the graph is parsed."""
        run("gen", "--model", "planted", "--n", str(graph_n), "--p", "1.0",
            "--out", str(tmp_path / "g"))
        (tmp_path / "g.cover").write_text(cover_text)

        def refused(*args, **kwargs):
            raise AssertionError("the graph was parsed")

        monkeypatch.setattr(cli, "load_graph", refused)
        capsys.readouterr()
        args = ["--graph", str(tmp_path / "g.graph"), "--cover", str(tmp_path / "g.cover")]
        assert run(command, *args, *(["--k", "2"] if command == "solve" else [])) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestOracle:
    def test_yes_no(self, tmp_path, capsys):
        (tmp_path / "k6.graph").write_text(
            "6 15\n" + "\n".join(f"{u} {v}" for u in range(6) for v in range(u + 1, 6)) + "\n"
        )
        assert run("oracle", "--graph", str(tmp_path / "k6.graph"), "--k", "2") == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert run("oracle", "--graph", str(tmp_path / "k6.graph"), "--k", "3") == 0
        assert capsys.readouterr().out.strip() == "no"

    def test_over_cap_is_input_error(self, tmp_path):
        run("gen", "--model", "planted", "--n", "20", "--p", "0.2", "--seed", "0",
            "--out", str(tmp_path / "big"))
        assert run("oracle", "--graph", str(tmp_path / "big.graph"), "--k", "1") == 1


class TestBench:
    def test_small_corpus_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run("bench", "--corpus", "small", "--seeds", "2", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "success" in header and "wall_time" in header
        assert "h_edges_initial" not in header
        assert len(lines) == 1 + 5 * 2
        # stdout summary matches the rows
        printed = capsys.readouterr().out
        ok = sum(int(line.split(",")[header.index("success")]) for line in lines[1:])
        assert f"{ok}/{len(lines) - 1} solved" in printed

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_is_input_error(self, tmp_path, capsys, seeds):
        out = tmp_path / "bench.csv"
        assert run("bench", "--corpus", "small", "--seeds", seeds, "--out", str(out)) == 1
        assert "--seeds must be at least 1" in capsys.readouterr().err
        assert not out.exists()


K6 = "6 15\n" + "".join(f"{u} {v}\n" for u in range(6) for v in range(u + 1, 6))
READER_FILES = {"graph": K6, "cover": "0 1 2 3 4 5\n", "params": "enrich_rounds = 2\n"}


class TestReaders:
    @pytest.mark.parametrize(
        "overrides, code",
        [
            ({"graph": b""}, 1),
            ({"graph": b"six 15\n"}, 1),
            ({"graph": b"-6 0\n"}, 1),
            ({"graph": b"6 1\n0 1 2\n"}, 1),
            ({"graph": b"6 1\n0 x\n"}, 1),
            ({"graph": b"6 1\n0 " + b"9" * 5000 + b"\n"}, 1),
            ({"graph": b"6 1\n0 \xff\xfe\n"}, 1),
            ({"cover": b"0 1 2 x 4 5\n"}, 1),
            ({"cover": b"0 1 2 3 4 -5\n"}, 1),
            ({"graph": b"100000000000 0\n"}, 1),
            ({"cover": b"0 1 2 3 4 100000000000\n"}, 1),
            ({"params": b"enrich_rounds\n"}, 1),
            ({"params": b"h_edge_target = 0\n"}, 1),
            ({"params": b"enrich_rounds = many\n"}, 1),
            ({"params": b"sample_retries = 5\n"}, 1),
            ({name: text.replace("\n", "\r\n").encode() for name, text in READER_FILES.items()}, 0),
            ({"params": b"enrich_rounds 2\n"}, 0),
        ],
        ids=[
            "empty-graph", "non-integer-header", "negative-n", "three-token-edge",
            "non-integer-endpoint", "5000-digit-integer", "non-utf8", "non-integer-cover",
            "negative-cover-vertex", "huge-graph-n", "huge-cover-vertex", "params-without-value",
            "h-edge-target-0", "params-non-integer-value", "params-removed-key", "crlf",
            "params-key-space-value",
        ],
    )
    def test_exit_code(self, tmp_path, capsys, overrides, code):
        paths = {}
        for name, text in READER_FILES.items():
            paths[name] = tmp_path / f"in.{name}"
            paths[name].write_bytes(overrides.get(name, text.encode()))
        assert run("solve", "--graph", str(paths["graph"]), "--cover", str(paths["cover"]),
                   "--k", "2", "--params", str(paths["params"])) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ")
