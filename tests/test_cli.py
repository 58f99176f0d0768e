import re
from dataclasses import replace

import numpy as np
import pytest

from unionsearch.cli import main, parse_measures
from unionsearch.errors import ConfigError, InputError
from unionsearch import contrast, modelfile, search
from unionsearch.modelfile import (KIND_INDEX, KIND_MODEL, load_index,
                                   load_model)
from unionsearch.projection import init_head

from conftest import TFIDF_EDITS, forced
from references import (field_edit, list_values, postings_block, read_file,
                        varint, with_field)


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


def test_train_offline_writes_only_model_and_loss(workspace, tmp_path):
    out = tmp_path / "off.usm"
    assert run(*_offline_args(workspace / "bench" / "manifest.tsv", out)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["off.usm",
                                                         "off.usm.loss.csv"]


def test_train_offline_ignores_an_old_pairs_file(workspace, tmp_path):
    out = tmp_path / "off.usm"
    old = tmp_path / "off.usm.pairs.csv"
    old.write_text("column_key_a,column_key_b,score\nta:1,tb:2,0.5\n",
                   encoding="utf-8")
    stamp = old.read_bytes()
    assert run(*_offline_args(workspace / "bench" / "manifest.tsv", out)) == 0
    assert old.read_bytes() == stamp


def test_train_offline_too_few_pairs_exit_2(workspace, tmp_path, capsys):
    # No pair reaches 0.95 on the fixture corpus.
    out = tmp_path / "off.usm"
    assert run(*_offline_args(workspace / "bench" / "manifest.tsv", out,
                              "0.95")) == 2
    assert "training pairs, got 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_pairs_option_rejected(workspace, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*_offline_args(workspace / "bench" / "manifest.tsv",
                           tmp_path / "off.usm"), "--pairs", "x")
    assert exc.value.code == 2
    assert "unrecognized arguments: --pairs x" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_index_after_vector_file_dim_changed_exit_2(workspace, tmp_path,
                                                   capsys):
    manifest = str(workspace / "bench" / "manifest.tsv")
    vectors = tmp_path / "v.txt"
    vectors.write_text("alpha " + " ".join(["0.5"] * 12) + "\n",
                       encoding="utf-8")
    model = tmp_path / "vf.usm"
    assert run("train", "--manifest", manifest, "--out", str(model),
               "--encoder-backend", "vector_file", "--vector-file",
               str(vectors), "--out-dim", "8", "--epochs", "1",
               "--batch-size", "4", "--sample-size", "6") == 0
    # The model is sound; the vector file is the input that changed.
    vectors.write_text("alpha " + " ".join(["0.5"] * 16) + "\n",
                       encoding="utf-8")
    index = tmp_path / "vf.usi"
    assert run("index", "--manifest", manifest, "--model", str(model),
               "--out", str(index)) == 2
    assert "12-dim" in capsys.readouterr().err
    assert not index.exists()


def test_query_after_vector_file_dim_changed_exit_2(workspace, tmp_path,
                                                   capsys):
    """An index whose vector file changed dim fails at load, before any
    query, as bad input."""
    manifest = str(workspace / "bench" / "manifest.tsv")
    vectors = tmp_path / "v.txt"
    vectors.write_text("alpha " + " ".join(["0.5"] * 12) + "\n",
                       encoding="utf-8")
    model, index = tmp_path / "vf.usm", tmp_path / "vf.usi"
    assert run("train", "--manifest", manifest, "--out", str(model),
               "--encoder-backend", "vector_file", "--vector-file",
               str(vectors), "--out-dim", "8", "--epochs", "1",
               "--batch-size", "4", "--sample-size", "6") == 0
    assert run("index", "--manifest", manifest, "--model", str(model),
               "--out", str(index)) == 0
    vectors.write_text("alpha " + " ".join(["0.5"] * 16) + "\n",
                       encoding="utf-8")
    with pytest.raises(InputError, match="12-dim"):
        load_index(index)
    table = sorted((workspace / "bench" / "tables").glob("*.csv"))[0]
    out = tmp_path / "res.csv"
    assert run("query", "--index", str(index), "--query", str(table),
               "--out", str(out)) == 2
    assert "12-dim base embeddings but the encoder makes 16" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows, where", [
    (["alpha " + " ".join(["0.5"] * 12), "beta " + " ".join(["nan"] * 12)],
     ":2: non-finite"),
    (["alpha 0.5 0.5 0.5", "beta 0.25 0.5 1"], ": embedding dim must be >= 8"),
], ids=["nan-row", "3-dim"])
def test_train_bad_vector_file_exit_2(workspace, tmp_path, capsys, rows,
                                      where):
    vectors = tmp_path / "v.txt"
    vectors.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "vf.usm"
    assert run("train", "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--out", str(out), "--encoder-backend", "vector_file",
               "--vector-file", str(vectors), "--epochs", "1",
               "--batch-size", "4", "--sample-size", "6") == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("input error: ") and f"{vectors}{where}" in line
    assert not out.exists()


def test_index_after_vector_file_gained_inf_exit_2(workspace, tmp_path,
                                                  capsys):
    manifest = str(workspace / "bench" / "manifest.tsv")
    vectors = tmp_path / "v.txt"
    vectors.write_text("alpha " + " ".join(["0.5"] * 12) + "\n",
                       encoding="utf-8")
    model = tmp_path / "vf.usm"
    assert run("train", "--manifest", manifest, "--out", str(model),
               "--encoder-backend", "vector_file", "--vector-file",
               str(vectors), "--out-dim", "8", "--epochs", "1",
               "--batch-size", "4", "--sample-size", "6") == 0
    with vectors.open("a", encoding="utf-8") as fh:
        fh.write("beta " + " ".join(["inf"] * 12) + "\n")
    index = tmp_path / "vf.usi"
    assert run("index", "--manifest", manifest, "--model", str(model),
               "--out", str(index)) == 2
    assert f"{vectors}:2: non-finite" in capsys.readouterr().err
    assert not index.exists()


@pytest.mark.parametrize("option", ["--out", "--loss-out"])
def test_train_missing_output_dir_exit_2_before_work(workspace, tmp_path,
                                                     capsys, option):
    args = dict(zip(("--out", "--loss-out"),
                    (str(tmp_path / name) for name in ("m.usm", "l.csv"))))
    args[option] = str(tmp_path / "missing" / "x")
    assert run("train", "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--strategy", "offline", *(s for kv in args.items() for s in kv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""   # nothing mined or trained
    assert "output directory" in captured.err and "missing" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fraction", ["-0.5", "1.0", "1.5"])
def test_train_validation_fraction_outside_unit_interval_exit_3(
        workspace, tmp_path, capsys, fraction):
    assert run("train", "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--out", str(tmp_path / "m.usm"), "--dim", "48",
               "--validation-fraction", fraction) == 3
    assert "validation_fraction" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("floor", ["nan", "2.0", "-1", "0"])
@pytest.mark.parametrize("strategy", ["online", "offline"])
def test_train_offline_floor_outside_unit_interval_exit_3(
        workspace, tmp_path, capsys, strategy, floor):
    assert run("train", "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--out", str(tmp_path / "m.usm"), "--dim", "48",
               "--strategy", strategy, "--offline-floor", floor) == 3
    assert "offline_floor" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_index_model_with_a_bad_offline_floor_exit_2(workspace, tmp_path,
                                                      capsys):
    # A save does not check, so it writes a checksummed file with the
    # floor a train run refuses.
    bundle = load_model(workspace / "model.usm")
    forced(bundle.train_config, "offline_floor", float("nan"))
    model = tmp_path / "m.usm"
    modelfile.save_model(model, bundle)
    assert run("index", "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--model", str(model), "--out", str(tmp_path / "i.usi")) == 2
    assert "offline_floor" in capsys.readouterr().err
    assert not (tmp_path / "i.usi").exists()


@pytest.mark.parametrize("split, extra", [
    # Logits over a subnormal temperature overflow in the first batch.
    ("train", ("--temperature", "1e-320")),
    # One finite training batch, whose step overflows the head, so the
    # first validation batch is the first non-finite loss.
    ("val", ("--learning-rate", "1e300", "--validation-fraction", "0.3",
             "--batch-size", "8")),
])
def test_train_non_finite_loss_exit_4(workspace, tmp_path, monkeypatch,
                                      capsys, split, extra):
    splits = []
    losses = contrast._losses

    def spied(head, batches, cfg, velocity=None):
        splits.append("train" if velocity is not None else "val")
        return losses(head, batches, cfg, velocity)

    monkeypatch.setattr(contrast, "_losses", spied)
    with np.errstate(all="ignore"):
        assert run("train", "--manifest",
                   str(workspace / "bench" / "manifest.tsv"),
                   "--out", str(tmp_path / "m.usm"), "--dim", "48",
                   "--out-dim", "24", "--epochs", "2", "--sample-size", "6",
                   "--seed", "11", *extra) == 4
    assert splits[-1] == split and splits.count("train") == 1
    assert "non-finite loss" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_missing_manifest_exit_2(tmp_path):
    assert run("train", "--manifest", str(tmp_path / "none.tsv"),
               "--out", str(tmp_path / "m.usm")) == 2


def test_train_cell_over_csv_field_limit_exit_2(tmp_path, capsys):
    # The csv module refuses fields over 131,072 characters.
    table = tmp_path / "wide.csv"
    table.write_text("a,b\nx,y\nx," + "y" * 200_000 + "\n", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"wide\t{table.name}\n", encoding="utf-8")
    assert run("train", "--manifest", str(manifest),
               "--out", str(tmp_path / "m.usm")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("input error: ") and f"{table}:3" in line
    assert not (tmp_path / "m.usm").exists()


def test_train_manifest_not_utf8_exit_2(workspace, tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    first = sorted((workspace / "bench" / "tables").glob("*.csv"))[0]
    manifest.write_bytes(b"# caf\xe9\n" + f"t\t{first}\n".encode("utf-8"))
    assert run("train", "--manifest", str(manifest),
               "--out", str(tmp_path / "m.usm")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("input error: ") and str(manifest) in line
    assert not (tmp_path / "m.usm").exists()


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


@pytest.mark.parametrize("craft, saves", [
    (lambda b: forced(b.head, "b1", b.head.b1[:5]), False),
    (lambda b: forced(b.encoder_config, "backend", "nope"), True),
    (lambda b: setattr(b, "encoder_config", replace(
        b.encoder_config, dim=b.head.dims[0] + 16)), True),
    (lambda b: b.head.W2.__setitem__((0, 0), np.nan), True),
], ids=["short-b1", "unknown-backend", "head-encoder-dim-mismatch", "nan-W2"])
def test_index_checksummed_bad_model_exit_2(workspace, tmp_path, capsys, craft,
                                           saves):
    bundle = load_model(workspace / "model.usm")
    craft(bundle)
    model = tmp_path / "crafted.usm"
    if not saves:
        # A file stores the head's dims, not its tensors' shapes: a head
        # that disagrees with them is refused at the save.
        with pytest.raises(ValueError, match="head tensor shapes"):
            modelfile.save_model(model, bundle)
        assert list(tmp_path.iterdir()) == []
        return
    modelfile.save_model(model, bundle)
    with pytest.raises(InputError):
        load_model(model)
    out = tmp_path / "index.usi"
    assert run("index", "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--model", str(model), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["query", "eval"])
@pytest.mark.parametrize("flag", [("--measures", "bogus"), ("--k", "0"),
                                  ("--threshold", "2")])
def test_bad_search_flag_exit_3_before_any_file_is_read(tmp_path, command,
                                                        flag):
    """With no index, manifest or truth file, the bad flag is still what is
    reported: the search settings are checked before any input is read."""
    ghost = str(tmp_path / "ghost")
    inputs = {"query": ["--query", ghost],
              "eval": ["--manifest", ghost, "--truth", ghost]}[command]
    assert run(command, "--index", ghost + ".usi", *inputs, *flag,
               "--out", str(tmp_path / "out.csv")) == 3


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


def test_query_zero_norm_query_vector_exit_4(workspace, tmp_path, monkeypatch,
                                            capsys):
    table = sorted((workspace / "bench" / "tables").glob("*.csv"))[0]
    # Every query column projects to zeros; the loaded index is untouched.
    monkeypatch.setattr(search, "project",
                        lambda head, base: np.zeros(head.dims[2]))
    assert run("query", "--index", str(workspace / "index.usi"),
               "--query", str(table), "--out", str(tmp_path / "r.csv")) == 4
    assert capsys.readouterr().err.startswith("numeric error: zero-norm")
    assert not (tmp_path / "r.csv").exists()


def _assert_query_refuses(workspace, tmp_path, capsys, data: bytes,
                          message: str) -> None:
    """load_index raises an InputError matching message on data, and a
    query of it exits 2 with an input error naming it, writing nothing."""
    path = tmp_path / "bad.usi"
    path.write_bytes(data)
    with pytest.raises(InputError, match=message):
        load_index(path)
    table = sorted((workspace / "bench" / "tables").glob("*.csv"))[0]
    assert run("query", "--index", str(path), "--query", str(table),
               "--out", str(tmp_path / "r.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and re.search(message, err)
    assert not (tmp_path / "r.csv").exists()


def _edited_index(workspace, name: str, label: str) -> bytes:
    """The workspace index with the named field edited as
    ``references.field_edits`` labels the edit."""
    return field_edit((workspace / "index.usi").read_bytes(), KIND_INDEX, name,
                      label)


def test_postings_edit_helper_rewrites_an_unedited_file(workspace):
    """Each postings field of the workspace index, written afresh from the
    lists the reference read returns and put back by ``with_field``, leaves
    the file as it was."""
    data = (workspace / "index.usi").read_bytes()
    fields, values = read_file(data, KIND_INDEX)
    postings = values["postings"]
    rewritten = set()
    for field in fields:
        if field.name in postings:
            lists = postings[field.name]
            new = postings_block([t.encode() for t in lists],
                                 [varint(v)
                                  for v in list_values(list(lists.values()))])
            assert with_field(data, field, new) == data
            rewritten.add(field.name)
    assert rewritten == set(postings)


@pytest.mark.parametrize("label, message", [
    ("names: swap strings", "tokens not strictly increasing"),
    ("names: repeat a string", "tokens not strictly increasing"),
    ("lists: bound: last past", "postings token lists hold an item at or past"),
    ("lists: truncate values", "varints, not"),
    ("lists: end inside a value", "end inside a varint"),
    ("lists: bound: long value", "varint of more than 5 bytes"),
    ("lists: widen a value", "varint that is not minimal"),
    ("lists: extend values", "varints, not"),
], ids=["tokens-out-of-order", "duplicate-token", "row-at-column-count",
        "cut-short", "trailing-continuation-byte", "six-byte-group",
        "non-minimal-group", "extra-value"])
def test_query_checksummed_bad_postings_index_exit_2(workspace, tmp_path,
                                                    capsys, label, message):
    _assert_query_refuses(workspace, tmp_path, capsys,
                          _edited_index(workspace, "name", label), message)


@pytest.mark.parametrize("label, message", [
    ("reverse dictionary", "dictionary not strictly increasing"),
    ("bound: dictionary", "dictionary of 16 bytes, more than 15"),
    ("truncate dictionary", "code past its dictionary"),
    ("truncate", "truncated file"),
    ("extend", "trailing bytes"),
    ("bound: exception in dictionary", "exception byte in its dictionary"),
], ids=["dictionary-unsorted", "dictionary-of-16", "code-past-dictionary",
        "exception-byte-missing", "exception-byte-extra",
        "exception-byte-in-dictionary"])
def test_query_checksummed_bad_vector_matrix_exit_2(workspace, tmp_path,
                                                    capsys, label, message):
    _assert_query_refuses(workspace, tmp_path, capsys,
                          _edited_index(workspace, "matrix", label), message)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_query_checksummed_non_finite_vector_index_exit_2(workspace, tmp_path,
                                                         capsys, value):
    _assert_query_refuses(workspace, tmp_path, capsys,
                          _edited_index(workspace, "matrix", f"bound: {value}"),
                          "non-finite vector")


@pytest.mark.parametrize("label, message", [
    ("names: swap strings", "table ids not strictly increasing"),
    ("lists: bound: last past",
     "table id lists hold an item at or past 4294967296"),
    ("names: flip a string", "bad UTF-8 text"),
], ids=["table-ids-unsorted", "position-2**32", "bad-utf-8"])
def test_query_checksummed_bad_key_table_exit_2(workspace, tmp_path, capsys,
                                                label, message):
    _assert_query_refuses(workspace, tmp_path, capsys,
                          _edited_index(workspace, "keys", label), message)


@pytest.mark.parametrize("case", TFIDF_EDITS)
def test_query_checksummed_bad_document_frequencies_exit_2(workspace, tmp_path,
                                                          capsys, case):
    name, label, message = TFIDF_EDITS[case]
    _assert_query_refuses(workspace, tmp_path, capsys,
                          _edited_index(workspace, name, label), message)


@pytest.mark.parametrize("name, label, message", [
    ("magic", "bound 4294967295", "bad magic"),
    ("kind", "bound 255", "unknown file kind 255"),
    ("tokenizer", "truncate text", "tokenizer"),
    ("matrix", "bound: zeros", "zero-norm vector"),
], ids=["bad-magic", "unknown-kind", "other-tokenizer", "zero-norm-vector"])
def test_query_checksummed_bad_index_exit_2(workspace, tmp_path, capsys, name,
                                            label, message):
    _assert_query_refuses(workspace, tmp_path, capsys,
                          _edited_index(workspace, name, label), message)


def test_query_corrupt_index_or_model_file_exit_2(workspace, tmp_path, capsys):
    """A byte changed under the digest, and a model file given as the
    index."""
    data = bytearray((workspace / "index.usi").read_bytes())
    data[len(data) // 2] ^= 1
    _assert_query_refuses(workspace, tmp_path, capsys, bytes(data),
                          "checksum mismatch")
    _assert_query_refuses(workspace, tmp_path, capsys,
                          (workspace / "model.usm").read_bytes(),
                          "this is a model file, expected an index")


def test_index_model_with_a_non_zero_pad_nibble_exit_2(workspace, tmp_path,
                                                       capsys):
    """A head of an odd number of biases, whose codes end in a pad nibble
    that a save writes zero."""
    bundle = load_model(workspace / "model.usm")
    n_in, _, n_out = bundle.head.dims
    model = tmp_path / "odd.usm"
    modelfile.save_model(model, replace(bundle,
                                        head=init_head(n_in, 5, n_out, seed=1)))
    model.write_bytes(field_edit(model.read_bytes(), KIND_MODEL, "b1",
                                 "bound: pad"))
    out = tmp_path / "index.usi"
    assert run("index", "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--model", str(model), "--out", str(out)) == 2
    assert "non-zero pad nibble" in capsys.readouterr().err
    assert not out.exists()


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


def test_eval_truth_not_utf8_exit_2(workspace, tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_bytes(b"query_table_id,answer_table_id\nq1,caf\xe9\n")
    assert run("eval", "--index", str(workspace / "index.usi"),
               "--manifest", str(workspace / "bench" / "manifest.tsv"),
               "--truth", str(truth), "--out", str(tmp_path / "m.csv")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("input error: ") and str(truth) in line
    assert not (tmp_path / "m.csv").exists()


def test_eval_bad_k_exit_3(workspace, tmp_path):
    """A k list with a value below 1 anywhere, or one that is no number."""
    for ks in ("0", "5,0", "abc"):
        assert run("eval", "--index", str(workspace / "index.usi"),
                   "--manifest", str(workspace / "bench" / "manifest.tsv"),
                   "--truth", str(workspace / "bench" / "truth.csv"),
                   "--k", ks, "--out", str(tmp_path / "m.csv")) == 3, ks
        assert not (tmp_path / "m.csv").exists()
