import argparse
import base64
import io
import json
import os
import re
import signal
import stat
import tracemalloc
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonoam.benchmark import write_report
from phonoam.checkpoint import load_checkpoint, save_checkpoint
from phonoam import cli
from phonoam.cli import main
from phonoam.corpus import load_corpus, save_corpus
from phonoam.errors import IoFailure
from phonoam.evaluate import export_embeddings
from phonoam.inventory import LanguageInventory, save_inventory
from phonoam.model import build_model, model_params, params_checksum
from test_checkpoint import rewrite

PHONES = ("d", "ɛ", "ð", "ə", "i", "ʥ", "kʲ")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Feature table, inventories and synthetic corpora shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    features = root / "features.tsv"
    features.write_text(
        resources.files("phonoam.data").joinpath("core_phones.tsv").read_text("utf-8"),
        encoding="utf-8",
    )
    save_inventory(LanguageInventory("L1", PHONES[:5]), root / "L1.json")
    save_inventory(LanguageInventory("L2", PHONES[:4] + (PHONES[5],)), root / "L2.json")
    save_inventory(LanguageInventory("target", ("d", "ɛ", "kʲ")), root / "target.json")
    for lang in ("L1", "L2", "target"):
        code = main([
            "synth", "--features", str(features), "--inventory", str(root / f"{lang}.json"),
            "--dim", "6", "--utterances", "8", "--noise-std", "0.1", "--seed", "3",
            "--out", str(root / f"{lang}.jsonl"),
        ])
        assert code == 0
    return root


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_encode_prints_51_bits(workdir, capsys):
    code, out = run(capsys, "encode", "--features", str(workdir / "features.tsv"), "--phone", "d")
    assert code == 0
    bits = out.strip()
    assert len(bits) == 51 and set(bits) <= {"0", "1"}
    d_pairs = "01 01 10 01 01 01 01 00 10 01 01 10 10 01 01 01 01 01 01 01 00 01 00 00"
    assert bits == d_pairs.replace(" ", "") + "000"


def test_encode_unknown_phone_exits_2(workdir, capsys):
    code = main(["encode", "--features", str(workdir / "features.tsv"), "--phone", "zz"])
    assert code == 2
    assert capsys.readouterr().err == "error: phone 'zz' is not in the feature table\n"


@pytest.mark.parametrize("case", ["missing", "not_utf8"])
def test_encode_unreadable_feature_table_exits_2(case, workdir, capsys):
    path = workdir / f"{case}.tsv"
    if case == "not_utf8":
        path.write_bytes((workdir / "features.tsv").read_bytes() + "\u00e9\n".encode("latin-1"))
    code = main(["encode", "--features", str(path), "--phone", "d"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read feature table {path}")


def test_phoneset_build_unwritable_out_exits_2(workdir, capsys):
    out_path = workdir / "no_such_dir" / "phoneset.json"
    code = main(["phoneset", "build", "--inventories", str(workdir / "L1.json"), "--out", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


# every subcommand that writes --out, with inputs that name no real file: the
# --out check must refuse before anything is read, trained or run
WRITING_SUBCOMMANDS = {
    "phoneset build": ["phoneset", "build", "--inventories", "L1.json"],
    "synth": ["synth", "--features", "f.tsv", "--inventory", "L1.json"],
    "train": ["train", "--features", "f.tsv", "--inventories", "L1.json", "--corpus", "L1.jsonl"],
    "extend": ["extend", "--checkpoint", "m.npz", "--features", "f.tsv", "--target", "t.json"],
    "finetune": ["finetune", "--checkpoint", "m.npz", "--corpus", "t.jsonl"],
    "export-embeddings": ["export-embeddings", "--checkpoint", "m.npz"],
    "bench": ["bench", "zero-shot", "--head", "linear"],
}
WORK = ("load_feature_table", "load_inventory", "load_checkpoint", "load_corpus",
        "train_multilingual", "finetune", "run_seeds")


@pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
@pytest.mark.parametrize("subcommand", WRITING_SUBCOMMANDS)
def test_bad_out_refused_before_any_work(subcommand, where, tmp_path, monkeypatch, capsys):
    started = []
    for name in WORK:
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: started.append(name))
    out = tmp_path / "no_such_dir" / "result" if where == "missing_dir" else tmp_path
    code = main([*WRITING_SUBCOMMANDS[subcommand], "--out", str(out)])
    assert (code, started) == (2, [])
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_usage_error_exits_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_phoneset_build_and_stats(workdir, capsys):
    out_path = workdir / "phoneset.json"
    code, _ = run(
        capsys, "phoneset", "build",
        "--inventories", str(workdir / "L1.json"), str(workdir / "L2.json"),
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["units"][:3] == ["<blk>", "<spn>", "<nsn>"]
    assert set(doc["units"][3:]) == set(PHONES[:6])
    assert (workdir / "phoneset.json.manifest.json").exists()

    code, out = run(
        capsys, "phoneset", "stats",
        "--inventories", str(workdir / "L1.json"), str(workdir / "L2.json"),
    )
    assert code == 0
    # 4 phones in both languages, 2 in exactly one
    assert "degree 2: 4 phones" in out
    assert "degree 1: 2 phones" in out


def test_phoneset_unseen(workdir, capsys):
    code, out = run(
        capsys, "phoneset", "unseen",
        "--inventories", str(workdir / "L1.json"), str(workdir / "L2.json"),
        "--target", str(workdir / "target.json"),
    )
    assert code == 0
    assert "unseen (1): kʲ" in out
    assert "seen (2)" in out


def test_synth_manifest_written(workdir):
    manifest = json.loads((workdir / "L1.jsonl.manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 3


@pytest.fixture(scope="module")
def trained(workdir):
    ckpt = workdir / "model.npz"
    code = main([
        "train", "--features", str(workdir / "features.tsv"),
        "--inventories", str(workdir / "L1.json"), str(workdir / "L2.json"),
        "--corpus", str(workdir / "L1.jsonl"), str(workdir / "L2.jsonl"),
        "--head", "linear", "--context", "1", "--hidden", "8", "--width", "8",
        "--epochs", "2", "--seed", "1", "--out", str(ckpt),
    ])
    assert code == 0
    return ckpt


@pytest.fixture(scope="module")
def nonlinear(trained, workdir):
    """An untrained nonlinear model with the trained model's units and encoder, saved."""
    model, _ = load_checkpoint(trained)
    path = workdir / "nonlinear.npz"
    save_checkpoint(build_model(model.units, model.P, model.encoder_config, head="nonlinear", head_hidden=3), path)
    return path


def test_train_writes_checkpoint_and_manifest(trained, workdir, capsys):
    assert trained.exists()
    assert (workdir / "model.npz.manifest.json").exists()
    capsys.readouterr()


def test_extend_finetune_eval_flow(trained, workdir, capsys):
    ext = workdir / "extended.npz"
    code, out = run(
        capsys, "extend", "--checkpoint", str(trained),
        "--features", str(workdir / "features.tsv"),
        "--target", str(workdir / "target.json"), "--out", str(ext),
    )
    assert code == 0
    assert "added 1 units: kʲ" in out

    ft = workdir / "finetuned.npz"
    code, _ = run(
        capsys, "finetune", "--checkpoint", str(ext),
        "--corpus", str(workdir / "target.jsonl"),
        "--epochs", "1", "--seed", "1", "--out", str(ft),
    )
    assert code == 0

    code, out = run(
        capsys, "eval", "--checkpoint", str(ft),
        "--corpus", str(workdir / "target.jsonl"), "--unseen", "kʲ",
    )
    assert code == 0
    assert "PER" in out and "unseen PER" in out


def test_train_and_finetune_manifests_record_numpy_and_checksum(trained, workdir, capsys):
    ext, ft = workdir / "manifest_ext.npz", workdir / "manifest_ft.npz"
    run(capsys, "extend", "--checkpoint", str(trained), "--features", str(workdir / "features.tsv"),
        "--target", str(workdir / "target.json"), "--out", str(ext))
    code, _ = run(capsys, "finetune", "--checkpoint", str(ext), "--corpus", str(workdir / "target.jsonl"),
                  "--epochs", "1", "--seed", "1", "--out", str(ft))
    assert code == 0
    for path in (trained, ft):
        manifest = json.loads(path.with_name(path.name + ".manifest.json").read_text())
        assert manifest["numpy"] == np.__version__
        assert manifest["params_checksum"] == params_checksum(model_params(load_checkpoint(path)[0]))
    extend_manifest = json.loads(ext.with_name(ext.name + ".manifest.json").read_text())
    assert extend_manifest["numpy"] == np.__version__ and "params_checksum" not in extend_manifest


def test_extend_with_no_new_phone_adds_nothing(trained, workdir, capsys):
    save_inventory(LanguageInventory("known", ("d", "ɛ")), workdir / "known.json")
    code, out = run(
        capsys, "extend", "--checkpoint", str(trained),
        "--features", str(workdir / "features.tsv"),
        "--target", str(workdir / "known.json"), "--out", str(workdir / "same.npz"),
    )
    assert code == 0
    assert "added 0 units" in out


BAD_ENCODER_VALUES = {
    "hidden_int": ("hidden", 8),
    "hidden_negative": ("hidden", [-8]),
    "hidden_float": ("hidden", [8.0]),
    "context_bool": ("context", True),
    "input_dim_str": ("input_dim", "6"),
    "output_dim_null": ("output_dim", None),
}


# (offset in a zip central-directory entry, new value of that 2-byte field from the old)
ZIP_FIELD_EDITS = {
    "zip_version": (6, lambda old: 99),  # "version needed to extract" 9.9
    "zip_encrypted": (8, lambda old: old | 0x40),  # flag bit 6, strong encryption
    "zip_password": (8, lambda old: old | 0x01),  # flag bit 0, password-protected
}


def edit_central_directory(src, dst, offset, update):
    """Copy a zip file, rewriting one 2-byte field of its first central-directory entry."""
    data = bytearray(src.read_bytes())
    at = data.index(b"PK\x01\x02") + offset
    data[at:at + 2] = update(int.from_bytes(data[at:at + 2], "little")).to_bytes(2, "little")
    dst.write_bytes(data)


# An array of the nonlinear file, and its replacement made from the old array.
BAD_ARRAYS = {
    "A1_shape": ("head__A1", lambda a: np.zeros((3, 50))),
    "W0_str": ("enc__W0", lambda a: a.astype(str)),
    "P_str": ("P", lambda a: a.astype(str)),
    "W0_complex": ("enc__W0", lambda a: a.astype(complex)),
    "A1_nan": ("head__A1", lambda a: np.full_like(a, np.nan)),
    "A1_no_rows": ("head__A1", lambda a: a[:0]),
}
# A top-level metadata field of the trained file, and its new value.
BAD_FIELDS = {"units_int": ("units", 5), "epoch_str": ("epoch", "x"), "epoch_null": ("epoch", None)}


@pytest.mark.parametrize("case", ["not_zip", "bias_array", "head_activation", "encoder_activation", "P_rows",
                                  "encoder_key", "encoder_shape", "encoder_not_object", *BAD_ENCODER_VALUES,
                                  *ZIP_FIELD_EDITS, *BAD_ARRAYS, *BAD_FIELDS])
def test_eval_bad_checkpoint_exits_2(case, trained, nonlinear, workdir, capsys):
    bad = workdir / f"bad_{case}.npz"
    if case in BAD_ARRAYS:
        name, edit = BAD_ARRAYS[case]
        with np.load(nonlinear) as data:
            rewrite(nonlinear, bad, **{name: edit(data[name])})
    elif case in BAD_FIELDS:
        rewrite(trained, bad, [(None, *BAD_FIELDS[case])])
    elif case in ZIP_FIELD_EDITS:
        edit_central_directory(trained, bad, *ZIP_FIELD_EDITS[case])
    elif case in BAD_ENCODER_VALUES:
        rewrite(trained, bad, [("encoder_config", *BAD_ENCODER_VALUES[case])])
    elif case == "encoder_not_object":
        rewrite(trained, bad, [(None, "encoder_config", [6, 1, [8], 8])])
    elif case == "not_zip":
        bad.write_bytes(b"this is not an npz archive")
    elif case == "bias_array":
        rewrite(trained, bad, head__b=np.zeros(8))
    elif case == "head_activation":
        rewrite(trained, bad, [(None, "head_activation", "relu")])
    elif case == "encoder_activation":
        rewrite(trained, bad, [("encoder_config", "activation", "relu")])
    elif case == "encoder_key":
        rewrite(trained, bad, [("encoder_config", "extra_knob", 1)])
    elif case == "encoder_shape":
        with np.load(trained) as data:
            rewrite(trained, bad, enc__W0=data["enc__W0"][:, :-1])
    else:
        rewrite(trained, bad, [(None, "units", ["<blk>"])])
    code = main(["eval", "--checkpoint", str(bad), "--corpus", str(workdir / "L1.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case in BAD_ARRAYS or case in BAD_FIELDS:
        assert {**BAD_ARRAYS, **BAD_FIELDS}[case][0] in err


# Byte offsets, after the signature, of the fields of a zip central-directory
# entry that zipfile reads: version needed, flags, compression, CRC, both
# sizes, name, extra and comment lengths, and the local header's offset.
CENTRAL_DIRECTORY_FIELDS = (6, 8, 10, 16, 20, 24, 28, 30, 32, 42)


def central_directory_positions(data: bytes) -> list[int]:
    """The position of the first byte of every field of every central-directory entry in data."""
    out = []
    at = data.find(b"PK\x01\x02")
    while at >= 0:
        out += [at + f for f in CENTRAL_DIRECTORY_FIELDS if at + f < len(data)]
        at = data.find(b"PK\x01\x02", at + 1)
    return out


def damage(data, src, dst, positions=None) -> None:
    """Write src to dst truncated, or with one to three bytes XOR-ed at drawn positions
    (any byte, or one drawn from `positions` if given)."""
    raw = bytearray(src.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        if positions is None:
            positions = st.integers(0, len(raw) - 1)
        flips = data.draw(st.lists(st.tuples(positions, st.integers(1, 255)), min_size=1, max_size=3), label="flips")
        for at, mask in flips:
            raw[at] ^= mask
    dst.write_bytes(bytes(raw))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_eval_on_damaged_files_exits_0_or_2(data, trained, workdir):
    """A truncated or byte-flipped checkpoint or corpus is read, or refused with exit 2."""
    kind = data.draw(st.sampled_from(["checkpoint", "corpus"]), label="file")
    src = trained if kind == "checkpoint" else workdir / "L1.jsonl"
    positions = None
    if kind == "checkpoint":  # zipfile reads each member's version, flags and sizes from here
        raw = src.read_bytes()
        positions = st.integers(0, len(raw) - 1) | st.sampled_from(central_directory_positions(raw))
    damaged = workdir / f"damaged{src.suffix}"
    damage(data, src, damaged, positions)
    paths = {"checkpoint": trained, "corpus": workdir / "L1.jsonl", kind: damaged}
    code = main(["eval", "--checkpoint", str(paths["checkpoint"]), "--corpus", str(paths["corpus"])])
    assert code in (0, 2)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(["flat", "linear", "nonlinear"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
META_FIELDS = [(None, "version"), (None, "head_kind"), (None, "units"), (None, "epoch"),
               *(("encoder_config", k) for k in ("input_dim", "context", "hidden", "output_dim"))]
# Ways to replace an array with one of the wrong shape or dtype, or not finite.
WRONG_ARRAYS = {
    "fewer_rows": lambda a, data: a[:-1],
    "more_rows": lambda a, data: np.concatenate([a, a[:1]]),
    "extra_axis": lambda a, data: a[None],
    "fewer_columns": lambda a, data: a[..., :-1],
    "int": lambda a, data: a.astype(np.int64),
    "complex": lambda a, data: a.astype(complex),
    "str": lambda a, data: a.astype(str),
    "not_finite": lambda a, data: np.where(
        np.arange(a.size).reshape(a.shape) == data.draw(st.integers(0, a.size - 1), label="at"),
        data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value"), a),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_retyped_checkpoint_exits_0_or_2(data, trained, nonlinear, workdir):
    """A checkpoint with one metadata field set to any JSON value, or one array of the
    wrong shape or dtype or not finite, is read or refused with exit 2 by every
    command that loads one; a bad array is always refused, by name."""
    src = data.draw(st.sampled_from([trained, nonlinear]), label="checkpoint")
    bad = workdir / "retyped.npz"
    name = None
    if data.draw(st.booleans(), label="edit array"):
        with np.load(src) as arrays:
            name = data.draw(st.sampled_from(sorted(k for k in arrays.files if k != "meta")), label="array")
            edit = data.draw(st.sampled_from(sorted(WRONG_ARRAYS)), label="edit")
            rewrite(src, bad, **{name: WRONG_ARRAYS[edit](arrays[name], data)})
    else:
        rewrite(src, bad, [(*data.draw(st.sampled_from(META_FIELDS), label="field"), data.draw(JSON_VALUES, label="value"))])
    corpus = str(workdir / "L1.jsonl")
    for argv in (["eval", "--corpus", corpus], ["export-embeddings", "--out", str(workdir / "retyped.csv")],
                 ["finetune", "--corpus", corpus, "--epochs", "1", "--out", str(workdir / "retyped_ft.npz")]):
        with redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--checkpoint", str(bad)])
        assert code in (0, 2)
        if name is not None:
            # the hidden width is read from A1's rows, so A2 is the array that no longer fits
            named = "head__A2" if name == "head__A1" and edit.endswith("_rows") else name
            assert code == 2 and named in err.getvalue()


def test_wide_head_refused_before_it_is_drawn(nonlinear, workdir, capsys):
    """A small file whose A1 claims 200,000 hidden units (and holds no values),
    or whose metadata claims 100,000 input dimensions, is refused by the shape
    check, which names the array, before anything of that size is allocated."""
    bad = workdir / "wide.npz"
    for meta_edits, arrays, name in [
        ((), {"head__A1": np.zeros((200_000, 0))}, "head__A1"),
        ([("encoder_config", "input_dim", 100_000)], {}, "enc__W0"),
    ]:
        rewrite(nonlinear, bad, meta_edits, **arrays)
        tracemalloc.start()
        try:
            code = main(["eval", "--checkpoint", str(bad), "--corpus", str(workdir / "L1.jsonl")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint arrays") and name in err
        assert peak < 4e6  # drawing A1 alone would take 200,000 x 51 doubles, 82 MB


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_retyped_corpus_exits_0_or_2(data, trained, workdir):
    """A corpus whose header `symbols`, or one utterance's `language`, `labels`,
    `dim`, packed `frames` or, in list form, frame row, is any JSON value is read,
    or refused with exit 2."""
    header, *records = (json.loads(ln) for ln in (workdir / "L1.jsonl").read_text(encoding="utf-8").splitlines())
    value = data.draw(JSON_VALUES, label="value")
    field = data.draw(st.sampled_from(["symbols", "language", "labels", "dim", "frames", "frame row"]), label="field")
    if field == "symbols":
        header["symbols"] = value
    else:
        rec = records[data.draw(st.integers(0, len(records) - 1), label="utterance")]
        if field == "frame row":
            as_rows(rec)["frames"][data.draw(st.integers(0, len(rec["frames"]) - 1), label="row")] = value
        else:
            rec[field] = value
    bad = workdir / "retyped.jsonl"
    bad.write_text("".join(json.dumps(doc, ensure_ascii=False) + "\n" for doc in [header, *records]),
                   encoding="utf-8")
    with redirect_stderr(io.StringIO()):
        code = main(["eval", "--checkpoint", str(trained), "--corpus", str(bad)])
    assert code in (0, 2)


@pytest.mark.parametrize("doc", [
    '{"phones": ["d"]}', '{"language": "X"}', '["d"]', "{not json",
    '{"language": "X", "phones": 5}', '{"language": "X", "phones": "abc"}',
    '{"language": "X", "phones": ["d", 5]}', '{"language": 3, "phones": ["d"]}',
    # JSON escapes of a lone surrogate, which UTF-8 cannot encode
    '{"language": "X", "phones": ["d", "\\ud800"]}', '{"language": "\\udfff", "phones": ["d"]}',
])
def test_bad_inventory_exits_2(doc, workdir, capsys):
    path = workdir / "bad_inventory.json"
    path.write_text(doc, encoding="utf-8")
    code = main(["phoneset", "stats", "--inventories", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


SMALL_TRAIN = ["--context", "1", "--hidden", "8", "--width", "8", "--head-hidden", "4", "--epochs", "1"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_inventory_exits_0_or_2(data, workdir):
    """A truncated or byte-flipped inventory is read, or refused with exit 2, by every
    command that loads inventories."""
    bad = workdir / "damaged_inventory.json"
    damage(data, workdir / "L1.json", bad)
    features, corpus = str(workdir / "features.tsv"), str(workdir / "L1.jsonl")
    for argv in (["phoneset", "stats", "--inventories", str(bad)],
                 ["phoneset", "unseen", "--inventories", str(bad), "--target", str(workdir / "target.json")],
                 ["train", "--features", features, "--inventories", str(bad), "--corpus", corpus, *SMALL_TRAIN,
                  "--out", str(workdir / "damaged_inventory.npz")]):
        with redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):
            assert main(argv) in (0, 2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_feature_table_exits_0_or_2(data, workdir):
    """A truncated or byte-flipped feature table is read, or refused with exit 2, by
    every command that loads one."""
    bad = workdir / "damaged_features.tsv"
    damage(data, workdir / "features.tsv", bad)
    inventory, corpus = str(workdir / "L1.json"), str(workdir / "L1.jsonl")
    for argv in (["encode", "--features", str(bad), "--phone", "d"],
                 ["synth", "--features", str(bad), "--inventory", inventory, "--dim", "4", "--utterances", "2",
                  "--out", str(workdir / "damaged_synth.jsonl")],
                 ["train", "--features", str(bad), "--inventories", inventory, "--corpus", corpus, *SMALL_TRAIN,
                  "--out", str(workdir / "damaged_features.npz")]):
        with warnings.catch_warnings(), redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")  # a flip may make two phones' rows identical
            assert main(argv) in (0, 2)


def _corpus_lines(workdir):
    header, first, second = (workdir / "L1.jsonl").read_text(encoding="utf-8").splitlines()[:3]
    return header, json.loads(first), second


def as_rows(rec: dict) -> dict:
    """rec with its packed frames rewritten as a list of rows, the form other tools write."""
    rec["frames"] = np.frombuffer(base64.b64decode(rec["frames"]), "<f8").reshape(-1, rec.pop("dim")).tolist()
    return rec


def packed(values, dim) -> dict:
    return {"dim": dim, "frames": base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")}


@pytest.mark.parametrize("case, line", [
    ("empty", 1), ("header_not_object", 1), ("no_symbols", 1), ("header_only", 2), ("bad_json", 3),
    ("label_out_of_range", 2), ("label_negative", 2), ("label_float", 2), ("ragged_frames", 2),
    ("no_frames", 2), ("frame_dims_differ", 3), ("frame_beyond_float", 2), ("frame_bool", 2),
    ("frame_string", 2),
    # packed frames
    ("packed_not_base64", 2), ("packed_bytes_not_rows", 2), ("packed_dim_zero", 2), ("packed_dim_negative", 2),
    ("packed_dim_true", 2), ("packed_dim_float", 2), ("packed_no_dim", 2), ("packed_nan", 2), ("packed_inf", 2),
    ("packed_empty", 2), ("packed_dim_beyond_payload", 2), ("packed_dims_differ", 3),
])
def test_eval_bad_corpus_exits_2(case, line, trained, workdir, capsys):
    header, rec, second = _corpus_lines(workdir)
    values = np.frombuffer(base64.b64decode(rec["frames"]), "<f8").reshape(-1, rec["dim"])
    if case == "empty":
        lines = []
    elif case == "header_not_object":
        lines = ['["d"]', second]
    elif case == "no_symbols":
        lines = ['{"units": ["d"]}', second]
    elif case == "header_only":
        lines = [header]
    elif case == "bad_json":
        lines = [header, second, "{not json"]
    elif case == "frame_dims_differ":
        rec = as_rows(rec)
        rec["frames"] = [row[:-1] for row in rec["frames"]]
        lines = [header, second, json.dumps(rec)]
    elif case.startswith("packed_"):
        rec.update({
            "packed_not_base64": {"frames": "!" + rec["frames"][1:]},
            "packed_bytes_not_rows": packed(values.ravel()[:-1], values.shape[1]),
            "packed_dim_zero": {"dim": 0},
            "packed_dim_negative": {"dim": -1},
            "packed_dim_true": {"dim": True},
            "packed_dim_float": {"dim": 1.5},
            "packed_no_dim": {},  # deleted below
            "packed_nan": packed(np.where(values == values[1, 2], np.nan, values), values.shape[1]),
            "packed_inf": packed(np.where(values == values[0, 0], np.inf, values), values.shape[1]),
            "packed_empty": {"frames": ""},
            "packed_dim_beyond_payload": {"dim": 10**12},
            "packed_dims_differ": packed(values[:, :-1], values.shape[1] - 1),
        }[case])
        if case == "packed_no_dim":
            del rec["dim"]
        lines = [header, second, json.dumps(rec)] if case == "packed_dims_differ" else [header, json.dumps(rec)]
    else:
        as_rows(rec)
        width = len(rec["frames"][0])
        rec.update({
            "label_out_of_range": {"labels": [len(json.loads(header)["symbols"])]},
            "label_negative": {"labels": [-1]},
            "label_float": {"labels": [1.0]},
            "ragged_frames": {"frames": [rec["frames"][0], rec["frames"][1][:-1]]},
            "no_frames": {"frames": []},
            "frame_beyond_float": {"frames": [[10**400] * width]},  # json writes all digits
            "frame_bool": {"frames": [[True] + [0.5] * (width - 1)]},
            "frame_string": {"frames": [["1.5", " 2 "] + [0.5] * (width - 2)]},
        }[case])
        lines = [header, json.dumps(rec)]
    bad = workdir / f"bad_{case}.jsonl"
    bad.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
    code = main(["eval", "--checkpoint", str(trained), "--corpus", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad} line {line}: ")


def test_eval_reads_both_frame_forms(trained, workdir, capsys):
    """A corpus with its frames as lists of rows, as files written before packed frames,
    loads to the same arrays and prints the same scores."""
    header, *lines = (workdir / "L1.jsonl").read_text(encoding="utf-8").splitlines()
    listed = workdir / "L1_rows.jsonl"
    listed.write_text("".join(ln + "\n" for ln in [header, *(json.dumps(as_rows(json.loads(ln))) for ln in lines)]),
                      encoding="utf-8")
    for a, b in zip(load_corpus(workdir / "L1.jsonl"), load_corpus(listed)):
        assert a.frames.tobytes() == b.frames.tobytes()
    outs = [run(capsys, "eval", "--checkpoint", str(trained), "--corpus", str(path))
            for path in (workdir / "L1.jsonl", listed)]
    assert outs[0][0] == 0 and outs[0] == outs[1]


def test_eval_unseen_phone_not_a_unit_exits_2(trained, workdir, capsys):
    # no error can be charged to a phone the model cannot emit or read
    code = main(["eval", "--checkpoint", str(trained), "--corpus", str(workdir / "L1.jsonl"), "--unseen", "d", "zzz"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: unseen phones ['zzz'] are not units of the model\n"


def test_extend_mode_head_mismatch_exits_2(trained, workdir, capsys):
    # random rows only apply to a flat head; the trained model has a linear one
    code = main([
        "extend", "--checkpoint", str(trained), "--features", str(workdir / "features.tsv"),
        "--target", str(workdir / "target.json"), "--mode", "random",
        "--out", str(workdir / "bad_extended.npz"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_train_lr_below_floor_exits_2(workdir, capsys):
    code = main([
        "train", "--features", str(workdir / "features.tsv"),
        "--inventories", str(workdir / "L1.json"), "--corpus", str(workdir / "L1.jsonl"),
        "--lr", "1e-6", "--out", str(workdir / "never_written.npz"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (workdir / "never_written.npz").exists()


@pytest.mark.parametrize("flags", [
    ["--batch-size", "0"], ["--batch-size", "-3"], ["--epochs", "0"], ["--epochs", "-1"], ["--lr", "inf"],
    ["--hidden", "0"], ["--hidden", "8", "0"], ["--head-hidden", "0"],
], ids=lambda flags: "_".join(flags).lstrip("-"))
def test_train_nonsense_size_exits_2(flags, workdir, capsys):
    out = workdir / "nonsense.npz"
    code = main([
        "train", "--features", str(workdir / "features.tsv"),
        "--inventories", str(workdir / "L1.json"), "--corpus", str(workdir / "L1.jsonl"),
        "--context", "1", "--hidden", "8", "--width", "8", "--head-hidden", "4", *flags, "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("name", ["<blk>", "<spn>", "<nsn>"])
def test_reserved_unit_name_as_phone_exits_2(name, workdir, capsys):
    """A phone named like a special unit would be in the unit list twice, so the
    checkpoint could not be loaded again: train refuses it before writing, even
    when the feature table has a row for that name."""
    table = (workdir / "features.tsv").read_text(encoding="utf-8")
    marks = next(line for line in table.splitlines() if line.startswith("d\t")).split("\t")[1:]
    marks[0] = "+"  # syllabic d: a row that no phone of the table has
    features, inventory = workdir / "reserved.tsv", workdir / "reserved.json"
    features.write_text(table + "\t".join([name, *marks]) + "\n", encoding="utf-8")
    inventory.write_text(json.dumps({"language": "L1", "phones": [*PHONES[:5], name]}), encoding="utf-8")
    out = workdir / "reserved.npz"
    code = main([
        "train", "--features", str(features), "--inventories", str(inventory),
        "--corpus", str(workdir / "L1.jsonl"), "--context", "1", "--hidden", "8", "--width", "8",
        "--epochs", "1", "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: inventory 'L1' uses the reserved unit names")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--dim", "0"], ["--dim", "-3"], ["--utterances", "0"], ["--utterances", "-2"],
    ["--noise-std", "-0.1"], ["--noise-std", "nan"], ["--noise-std", "inf"],
    ["--offset-std", "-1"], ["--offset-std", "nan"], ["--offset-std", "inf"],
    ["--inventory", "empty.json"],
], ids=lambda flags: "_".join(flags).lstrip("-"))
def test_synth_nonsense_size_exits_2(flags, workdir, capsys):
    out = workdir / "nonsense.jsonl"
    save_inventory(LanguageInventory("E", ()), workdir / "empty.json")
    flags = [str(workdir / f) if f.endswith(".json") else f for f in flags]
    code = main(["synth", "--features", str(workdir / "features.tsv"), "--inventory", str(workdir / "L1.json"),
                 *flags, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("synth", ["--seed", "-1"]), ("train", ["--seed", "-1"]), ("extend", ["--seed", "-1"]),
    ("finetune", ["--seed", "-1"]), ("bench", ["--seed", "-1"]), ("selftest", ["--seed", "-1"]),
    ("bench", ["--seeds", "0"]), ("bench", ["--seeds", "-2"]),
], ids=lambda x: x if isinstance(x, str) else "_".join(x).lstrip("-"))
def test_negative_seed_or_no_seeds_is_a_usage_error(command, flags, trained, workdir, capsys):
    out = workdir / "never_written"
    argv = {
        "synth": ["--features", str(workdir / "features.tsv"), "--inventory", str(workdir / "L1.json")],
        "train": ["--features", str(workdir / "features.tsv"), "--inventories", str(workdir / "L1.json"),
                  "--corpus", str(workdir / "L1.jsonl")],
        "extend": ["--checkpoint", str(trained), "--features", str(workdir / "features.tsv"),
                   "--target", str(workdir / "target.json")],
        "finetune": ["--checkpoint", str(trained), "--corpus", str(workdir / "L1.jsonl")],
        "bench": ["zero-shot"],
        "selftest": [],
    }[command]
    code = main([command, *argv, *flags, *(["--out", str(out)] if command != "selftest" else [])])
    assert code == 1
    assert f"argument {flags[0]}: expected an integer >= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--batch-size", "0"], ["--epochs", "0"], ["--lr", "inf"]],
                         ids=lambda flags: "_".join(flags).lstrip("-"))
def test_finetune_nonsense_size_exits_2(flags, trained, workdir, capsys):
    out = workdir / "nonsense_ft.npz"
    code = main(["finetune", "--checkpoint", str(trained), "--corpus", str(workdir / "L1.jsonl"), *flags,
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_eval_fails_cleanly_on_uncovered_corpus(trained, workdir, capsys):
    # the base model has never heard of kʲ, so the target corpus is invalid
    code, _ = run(capsys, "eval", "--checkpoint", str(trained),
                  "--corpus", str(workdir / "target.jsonl"))
    assert code == 2


def test_finetune_fails_cleanly_on_uncovered_corpus(trained, workdir, capsys):
    # finetuning the unextended model on kʲ is refused before any training
    out = workdir / "never_finetuned.npz"
    code = main(["finetune", "--checkpoint", str(trained), "--corpus", str(workdir / "target.jsonl"),
                 "--epochs", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: phones ['kʲ'] not covered by the model\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def narrow(workdir):
    """Three L2 utterances of 4-wide frames, where the other corpora's are 6 wide."""
    path = workdir / "narrow.jsonl"
    assert main(["synth", "--features", str(workdir / "features.tsv"), "--inventory", str(workdir / "L2.json"),
                 "--dim", "4", "--utterances", "3", "--seed", "3", "--out", str(path)]) == 0
    return path


def test_train_refuses_mixed_frame_widths(narrow, workdir, capsys):
    # the model takes the first corpus's width; batches and dev chunks would mix both
    out = workdir / "mixed.npz"
    code = main(["train", "--features", str(workdir / "features.tsv"),
                 "--inventories", str(workdir / "L1.json"), str(workdir / "L2.json"),
                 "--corpus", str(workdir / "L1.jsonl"), str(narrow),
                 "--context", "1", "--hidden", "8", "--width", "8", "--head-hidden", "4", "--out", str(out)])
    assert code == 2
    assert re.fullmatch(r"error: frames must be T x 6, got \(\d+, 4\) \(L2\)\n", capsys.readouterr().err)
    assert not out.exists()


def test_finetune_refuses_mixed_frame_widths(narrow, trained, workdir, capsys):
    out = workdir / "mixed_ft.npz"
    code = main(["finetune", "--checkpoint", str(trained), "--corpus", str(narrow), str(workdir / "L1.jsonl"),
                 "--epochs", "1", "--out", str(out)])
    assert code == 2
    assert re.fullmatch(r"error: frames must be T x 6, got \(\d+, 4\) \(L2\)\n", capsys.readouterr().err)
    assert not out.exists()


def test_export_embeddings(trained, workdir, capsys):
    out_path = workdir / "emb.csv"
    code, _ = run(capsys, "export-embeddings", "--checkpoint", str(trained),
                  "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 9  # 3 specials + 6 phones
    assert lines[0].startswith("<blk>,")


BENCH_RECORDS = [
    {"method": head, "condition": cond, "per": per, "seen_per": per / 2, "unseen_per": per * 2}
    for head, cond, pers in [
        ("flat", "zero_shot", (0.6, 0.5, 0.7)),
        ("flat", "few_shot", (0.4, 0.45, 0.5)),
        ("linear", "zero_shot", (0.3, 0.25, 0.2)),
        ("linear", "few_shot", (0.1, 0.15, 0.3)),
    ]
    for per in pers
]


@pytest.mark.parametrize("summary", [False, True])
def test_bench_summary_prints_median_table(summary, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("phonoam.cli.run_seeds", lambda *args, **kwargs: BENCH_RECORDS)
    argv = ["bench", "few-shot", "--head", "flat", "--seeds", "3", "--out", str(tmp_path / "r.jsonl")]
    code, out = run(capsys, *argv, *(["--summary"] if summary else []))
    assert code == 0
    records = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in BENCH_RECORDS)
    table = (
        "\nmedian over 3 seed(s)\n"
        "head        condition          PER    seen  unseen\n"
        "flat        zero_shot        0.600   0.300   1.200\n"
        "flat        few_shot         0.450   0.225   0.900\n"
    )
    assert out == records + (table if summary else "")


def test_checkpoints_are_written_at_exactly_out(workdir, capsys):
    """A checkpoint name need not end in .npz: each step reads the file the step before wrote."""
    features = str(workdir / "features.tsv")
    model, ext, ft = (workdir / f"{name}.ckpt" for name in ("chain", "chain_extended", "chain_finetuned"))
    steps = [
        ["train", "--features", features, "--inventories", str(workdir / "L1.json"),
         "--corpus", str(workdir / "L1.jsonl"), *SMALL_TRAIN, "--out", str(model)],
        ["extend", "--checkpoint", str(model), "--features", features,
         "--target", str(workdir / "target.json"), "--out", str(ext)],
        ["finetune", "--checkpoint", str(ext), "--corpus", str(workdir / "target.jsonl"),
         "--epochs", "1", "--out", str(ft)],
        ["eval", "--checkpoint", str(ft), "--corpus", str(workdir / "target.jsonl")],
    ]
    for argv in steps:
        assert run(capsys, *argv)[0] == 0, argv[0]
    assert not list(workdir.glob("chain*.npz"))


WRITERS = ["save_checkpoint", "save_corpus", "write_report", "export_embeddings", "save_inventory", "phoneset build"]


def writer_of(writer, trained, workdir, path):
    """A call that writes `path` through the named writer."""
    model, _ = load_checkpoint(trained)
    return {
        "save_checkpoint": lambda: save_checkpoint(model, path),
        "save_corpus": lambda: save_corpus(load_corpus(workdir / "L1.jsonl"), path),
        "write_report": lambda: write_report(BENCH_RECORDS, path),
        "export_embeddings": lambda: export_embeddings(model, path),
        "save_inventory": lambda: save_inventory(LanguageInventory("L1", PHONES[:5]), path),
        # the command itself, past main's check of --out
        "phoneset build": lambda: cli.cmd_phoneset_build(
            argparse.Namespace(inventories=[str(workdir / "L1.json")], out=str(path))),
    }[writer]


@pytest.mark.parametrize("writer", WRITERS)
def test_every_writer_refuses_a_missing_directory(writer, trained, workdir):
    write = writer_of(writer, trained, workdir, workdir / "no_such_dir" / "out")
    with pytest.raises(IoFailure, match="No such file or directory"):
        write()


@contextmanager
def file_size_limit(nbytes):
    """In the block, a write past a file's first nbytes bytes fails with an OSError (EFBIG)."""
    resource = pytest.importorskip("resource")
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # the signal would end the process
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, limit[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limit)
        signal.signal(signal.SIGXFSZ, handler)


@pytest.mark.parametrize("writer", WRITERS)
def test_a_write_that_fails_midway_leaves_the_old_file(writer, trained, workdir, tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"old bytes\n")
    write = writer_of(writer, trained, workdir, path)
    with pytest.raises(IoFailure, match="File too large"), file_size_limit(32):
        write()
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no temporary file is left


def test_export_embeddings_of_an_unencodable_unit_exits_2(trained, workdir, capsys):
    # checkpoint metadata is JSON, so the escape "\ud800" loads as a lone surrogate
    units = list(load_checkpoint(trained)[0].units)
    path = workdir / "surrogate_unit.npz"
    rewrite(trained, path, [(None, "units", units[:-1] + ["\ud800"])])
    code = main(["export-embeddings", "--checkpoint", str(path), "--out", str(workdir / "surrogate_unit.csv")])
    assert code == 2
    assert "surrogates not allowed" in capsys.readouterr().err


def test_a_replaced_file_keeps_what_open_would_give(tmp_path):
    records = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in BENCH_RECORDS)
    umask = os.umask(0)
    os.umask(umask)
    write_report(BENCH_RECORDS, tmp_path / "new")
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == 0o666 & ~umask
    existing = tmp_path / "existing"
    existing.write_text("old\n")
    existing.chmod(0o640)
    write_report(BENCH_RECORDS, existing)
    assert stat.S_IMODE(existing.stat().st_mode) == 0o640 and existing.read_text() == records
    link = tmp_path / "link"
    link.symlink_to("target")
    write_report(BENCH_RECORDS, link)  # written through to the symlink's target
    assert link.is_symlink() and (tmp_path / "target").read_text() == records
    write_report(BENCH_RECORDS, os.devnull)  # not a regular file: written in place
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "link", "new", "target"]


@pytest.mark.parametrize("old", [None, b"old,embeddings\n"])
def test_a_failed_export_leaves_out_as_it_was(old, trained, workdir, tmp_path, capsys):
    # the last unit cannot be encoded, so the write fails after every other row
    units = list(load_checkpoint(trained)[0].units)
    path = workdir / "surrogate_last_unit.npz"
    rewrite(trained, path, [(None, "units", units[:-1] + ["\ud800"])])
    out = tmp_path / "emb.csv"
    if old is not None:
        out.write_bytes(old)
    assert main(["export-embeddings", "--checkpoint", str(path), "--out", str(out)]) == 2
    assert "surrogates not allowed" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["emb.csv"])
    if old is not None:
        assert out.read_bytes() == old


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()
