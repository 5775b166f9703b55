import json
from importlib import resources

import numpy as np
import pytest

from phonoam.cli import main
from phonoam.inventory import LanguageInventory, save_inventory
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


@pytest.mark.parametrize("case", ["not_zip", "bias_array", "head_activation", "encoder_activation", "P_rows",
                                  "encoder_key", "encoder_shape", "encoder_not_object", *BAD_ENCODER_VALUES])
def test_eval_bad_checkpoint_exits_2(case, trained, workdir, capsys):
    bad = workdir / f"bad_{case}.npz"
    if case in BAD_ENCODER_VALUES:
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
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("doc", [
    '{"phones": ["d"]}', '{"language": "X"}', '["d"]', "{not json",
    '{"language": "X", "phones": 5}', '{"language": "X", "phones": "abc"}',
    '{"language": "X", "phones": ["d", 5]}', '{"language": 3, "phones": ["d"]}',
])
def test_bad_inventory_exits_2(doc, workdir, capsys):
    path = workdir / "bad_inventory.json"
    path.write_text(doc, encoding="utf-8")
    code = main(["phoneset", "stats", "--inventories", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def _corpus_lines(workdir):
    header, first, second = (workdir / "L1.jsonl").read_text(encoding="utf-8").splitlines()[:3]
    return header, json.loads(first), second


@pytest.mark.parametrize("case, line", [
    ("empty", 1), ("header_not_object", 1), ("no_symbols", 1), ("header_only", 2), ("bad_json", 3),
    ("label_out_of_range", 2), ("label_negative", 2), ("label_float", 2), ("ragged_frames", 2),
    ("no_frames", 2), ("frame_dims_differ", 3),
])
def test_eval_bad_corpus_exits_2(case, line, trained, workdir, capsys):
    header, rec, second = _corpus_lines(workdir)
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
        rec["frames"] = [row[:-1] for row in rec["frames"]]
        lines = [header, second, json.dumps(rec)]
    else:
        rec.update({
            "label_out_of_range": {"labels": [len(json.loads(header)["symbols"])]},
            "label_negative": {"labels": [-1]},
            "label_float": {"labels": [1.0]},
            "ragged_frames": {"frames": [rec["frames"][0], rec["frames"][1][:-1]]},
            "no_frames": {"frames": []},
        }[case])
        lines = [header, json.dumps(rec)]
    bad = workdir / f"bad_{case}.jsonl"
    bad.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
    code = main(["eval", "--checkpoint", str(trained), "--corpus", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad} line {line}: ")


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


def test_export_embeddings(trained, workdir, capsys):
    out_path = workdir / "emb.csv"
    code, _ = run(capsys, "export-embeddings", "--checkpoint", str(trained),
                  "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 9  # 3 specials + 6 phones
    assert lines[0].startswith("<blk>,")


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()
