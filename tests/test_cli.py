import pytest

from unionsearch.cli import main, parse_measures
from unionsearch.errors import ConfigError, InputError
from unionsearch import modelfile
from unionsearch.modelfile import load_index, load_model


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """benchgen + train + index once; read-only for the tests below."""
    ws = tmp_path_factory.mktemp("cli")
    bench = ws / "bench"
    assert run("benchgen", "--out-dir", str(bench), "--bases", "4",
               "--derivations", "3", "--topics", "2", "--rows", "16",
               "--seed", "11") == 0
    model = ws / "model.usm"
    assert run("train", "--manifest", str(bench / "manifest.tsv"),
               "--out", str(model), "--dim", "48", "--out-dim", "24",
               "--epochs", "2", "--batch-size", "4", "--sample-size", "6",
               "--seed", "11") == 0
    index = ws / "index.usi"
    assert run("index", "--manifest", str(bench / "manifest.tsv"),
               "--model", str(model), "--out", str(index), "--seed", "11") == 0
    return ws


# ---------------------------------------------------------------- measures flag

def test_parse_measures_aliases_and_order():
    assert parse_measures("semantic") == ("semantic",)
    assert parse_measures("value,name,semantic") == ("semantic", "name", "value")
    assert parse_measures("sem,n,v,f") == ("semantic", "name", "value", "format")


def test_parse_measures_rejects_unknown():
    with pytest.raises(ConfigError):
        parse_measures("semantic,psychic")
    with pytest.raises(ConfigError):
        parse_measures("")


# ---------------------------------------------------------------- benchgen

def test_benchgen_layout(workspace):
    bench = workspace / "bench"
    assert (bench / "manifest.tsv").is_file()
    assert (bench / "truth.csv").is_file()
    csvs = sorted((bench / "tables").glob("*.csv"))
    assert len(csvs) == 12  # 4 bases x 3 derivations


def test_benchgen_deterministic(tmp_path):
    for sub in ("one", "two"):
        assert run("benchgen", "--out-dir", str(tmp_path / sub), "--bases", "2",
                   "--derivations", "2", "--topics", "1", "--rows", "12",
                   "--seed", "3") == 0
    a = (tmp_path / "one" / "truth.csv").read_bytes()
    b = (tmp_path / "two" / "truth.csv").read_bytes()
    assert a == b
    for f in (tmp_path / "one" / "tables").iterdir():
        assert f.read_bytes() == (tmp_path / "two" / "tables" / f.name).read_bytes()


# ---------------------------------------------------------------- train

def test_train_outputs(workspace):
    assert (workspace / "model.usm").is_file()
    loss = (workspace / "model.usm.loss.csv").read_text(encoding="utf-8")
    assert loss.splitlines()[0] == "epoch,split,mean_loss"
    assert len(loss.splitlines()) >= 3


def test_train_byte_deterministic(workspace, tmp_path):
    bench = workspace / "bench"
    outs = []
    for name in ("m1.usm", "m2.usm"):
        out = tmp_path / name
        assert run("train", "--manifest", str(bench / "manifest.tsv"),
                   "--out", str(out), "--dim", "48", "--out-dim", "24",
                   "--epochs", "2", "--batch-size", "4", "--sample-size", "6",
                   "--seed", "11") == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == (workspace / "model.usm").read_bytes()


def _offline_args(manifest, out, floor: str = "0.5") -> tuple[str, ...]:
    return ("train", "--manifest", str(manifest), "--out", str(out),
            "--strategy", "offline", "--offline-floor", floor, "--dim", "48",
            "--out-dim", "24", "--epochs", "2", "--batch-size", "4",
            "--sample-size", "6", "--seed", "11")


def test_train_offline_caches_pairs(workspace, tmp_path, capsys):
    bench = workspace / "bench"
    out = tmp_path / "off.usm"
    args = _offline_args(bench / "manifest.tsv", out)
    assert run(*args) == 0
    first = capsys.readouterr().out
    assert "built and cached" in first
    pairs = tmp_path / "off.usm.pairs.csv"
    assert pairs.is_file()
    stamp = pairs.read_bytes()
    assert run(*args) == 0
    second = capsys.readouterr().out
    assert "cached pairs from" in second
    assert pairs.read_bytes() == stamp


def test_train_offline_changed_floor_mines_again(workspace, tmp_path, capsys):
    manifest = workspace / "bench" / "manifest.tsv"
    out = tmp_path / "off.usm"
    assert run(*_offline_args(manifest, out, "0.5")) == 0
    assert "built and cached 19 pairs" in capsys.readouterr().out
    # No pair reaches 0.95, so the cached 0.5 pairs must not be trained on.
    assert run(*_offline_args(manifest, out, "0.95")) == 2
    assert "built and cached 0 pairs" in capsys.readouterr().out
    preamble = (tmp_path / "off.usm.pairs.csv").read_text().splitlines()[:2]
    assert preamble[0] == "floor,corpus"
    assert preamble[1].startswith("0.95,")


def test_train_offline_changed_manifest_mines_again(workspace, tmp_path, capsys):
    bench = workspace / "bench"
    out = tmp_path / "off.usm"
    assert run(*_offline_args(bench / "manifest.tsv", out)) == 0
    pairs = tmp_path / "off.usm.pairs.csv"
    first = pairs.read_text().splitlines()
    capsys.readouterr()
    fewer = tmp_path / "fewer.tsv"
    lines = (bench / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    fewer.write_text("".join(f"{tid}\t{bench / rel}\n" for tid, rel in
                             (line.split("\t") for line in lines[:-1])),
                     encoding="utf-8")
    assert run(*_offline_args(fewer, out)) == 0
    assert "built and cached" in capsys.readouterr().out
    second = pairs.read_text().splitlines()
    assert second[1] != first[1]   # the corpus digest


def test_train_records_the_vector_files_dim(workspace, tmp_path):
    vectors = tmp_path / "v.txt"
    vectors.write_text("alpha " + " ".join(["0.5"] * 12) + "\n",
                       encoding="utf-8")
    out = tmp_path / "vf.usm"
    assert run("train", "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--out", str(out), "--encoder-backend", "vector_file",
               "--vector-file", str(vectors), "--dim", "48", "--out-dim", "8",
               "--epochs", "1", "--batch-size", "4", "--sample-size", "6",
               "--seed", "11") == 0
    bundle = load_model(out)
    assert bundle.encoder_config.dim == 12
    assert bundle.head.dims[0] == 12


@pytest.mark.parametrize("option", ["--out", "--pairs", "--loss-out"])
def test_train_missing_output_dir_exit_2_before_work(workspace, tmp_path,
                                                     capsys, option):
    args = dict(zip(("--out", "--pairs", "--loss-out"),
                    (str(tmp_path / name) for name in ("m.usm", "p.csv", "l.csv"))))
    args[option] = str(tmp_path / "missing" / "x")
    assert run("train", "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--strategy", "offline", *(s for kv in args.items() for s in kv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""   # nothing mined or trained
    assert "output directory" in captured.err and "missing" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_train_missing_manifest_exit_2(tmp_path):
    assert run("train", "--manifest", str(tmp_path / "none.tsv"),
               "--out", str(tmp_path / "m.usm")) == 2


# ---------------------------------------------------------------- index

def test_index_reports_columns(workspace, capsys):
    bench = workspace / "bench"
    out = workspace / "index2.usi"
    assert run("index", "--manifest", str(bench / "manifest.tsv"),
               "--model", str(workspace / "model.usm"),
               "--out", str(out), "--seed", "11") == 0
    text = capsys.readouterr().out
    assert "indexed" in text and "columns" in text
    # same seed and inputs: the file equals the fixture index byte for byte
    assert out.read_bytes() == (workspace / "index.usi").read_bytes()


# ---------------------------------------------------------------- query

def test_query_ranks_planted_duplicate(workspace, tmp_path):
    bench = workspace / "bench"
    table = sorted((bench / "tables").glob("*.csv"))[0]
    out = tmp_path / "res.csv"
    assert run("query", "--index", str(workspace / "index.usi"),
               "--query", str(table), "--k", "3", "--out", str(out),
               "--measures", "semantic,name,value") == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("query_table_id,rank,")
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert first[0] == table.stem and first[1] == "1"
    # the nearest neighbour must be a sibling derived from the same base
    assert first[2].split("_")[0] == table.stem.split("_")[0]


def test_query_multiple_tables(workspace, tmp_path):
    bench = workspace / "bench"
    tables = [str(p) for p in sorted((bench / "tables").glob("*.csv"))[:3]]
    out = tmp_path / "multi.csv"
    assert run("query", "--index", str(workspace / "index.usi"),
               "--query", *tables, "--k", "2", "--out", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    queried = {line.split(",")[0] for line in lines}
    assert len(queried) == 3


def test_query_bad_measure_exit_3(workspace, tmp_path):
    assert run("query", "--index", str(workspace / "index.usi"),
               "--query", str(workspace / "bench" / "tables"),
               "--measures", "telepathy",
               "--out", str(tmp_path / "r.csv")) == 3


def test_query_missing_index_exit_2(workspace, tmp_path):
    assert run("query", "--index", str(tmp_path / "ghost.usi"),
               "--query", str(workspace / "bench" / "truth.csv"),
               "--out", str(tmp_path / "r.csv")) == 2


def test_query_unwritable_out_exit_2(workspace, tmp_path, capsys):
    table = sorted((workspace / "bench" / "tables").glob("*.csv"))[0]
    assert run("query", "--index", str(workspace / "index.usi"),
               "--query", str(table),
               "--out", str(tmp_path / "missing" / "r.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "missing" in err and ".tmp" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("version", range(1, modelfile.VERSION))
def test_query_old_version_index_exit_2(workspace, tmp_path, version):
    old = bytearray((workspace / "index.usi").read_bytes())
    old[4] = version  # the version byte, right after the 4-byte magic
    path = tmp_path / "old.usi"
    path.write_bytes(bytes(old))
    with pytest.raises(InputError, match=f"unsupported version {version}"):
        load_index(path)
    table = sorted((workspace / "bench" / "tables").glob("*.csv"))[0]
    assert run("query", "--index", str(path), "--query", str(table),
               "--out", str(tmp_path / "r.csv")) == 2
    assert not (tmp_path / "r.csv").exists()


# ---------------------------------------------------------------- eval

def test_eval_metrics(workspace, tmp_path, capsys):
    bench = workspace / "bench"
    out = tmp_path / "metrics.csv"
    assert run("eval", "--index", str(workspace / "index.usi"),
               "--manifest", str(bench / "manifest.tsv"),
               "--truth", str(bench / "truth.csv"),
               "--k", "1,2,5", "--out", str(out),
               "--measures", "semantic,name,value") == 0
    text = capsys.readouterr().out
    assert "k=1:" in text and "k=5:" in text
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,mean_precision,mean_recall"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "5"]
    recalls = [float(r[2]) for r in rows]
    assert recalls == sorted(recalls)


def test_eval_sampled_queries(workspace, tmp_path):
    bench = workspace / "bench"
    out = tmp_path / "m.csv"
    assert run("eval", "--index", str(workspace / "index.usi"),
               "--manifest", str(bench / "manifest.tsv"),
               "--truth", str(bench / "truth.csv"),
               "--k", "3", "--sample-queries", "4",
               "--out", str(out)) == 0
    assert out.is_file()


@pytest.mark.parametrize("n", [-1, -5])
def test_eval_negative_sample_queries_exit_3(workspace, tmp_path, n):
    bench = workspace / "bench"
    assert run("eval", "--index", str(workspace / "index.usi"),
               "--manifest", str(bench / "manifest.tsv"),
               "--truth", str(bench / "truth.csv"),
               "--sample-queries", str(n),
               "--out", str(tmp_path / "m.csv")) == 3
    assert not (tmp_path / "m.csv").exists()


def test_eval_malformed_truth_exit_2(workspace, tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("query_table_id,answer_table_id\nq1\n", encoding="utf-8")
    assert run("eval", "--index", str(workspace / "index.usi"),
               "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--truth", str(truth), "--out", str(tmp_path / "m.csv")) == 2
    assert f"{truth}:2" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_eval_bad_k_exit_3(workspace, tmp_path):
    assert run("eval", "--index", str(workspace / "index.usi"),
               "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--truth", str(workspace / "bench" / "truth.csv"),
               "--k", "0", "--out", str(tmp_path / "m.csv")) == 3
