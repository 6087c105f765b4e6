import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import worldgen
from dcsvec import cli
from dcsvec.cli import parse_tree_literal
from dcsvec.errors import InputError
from dcsvec.train import TrainConfig
from dcsvec.trees import ARG, COMP, DcsTree, Edge, Word, load_trees, tree_to_line
from dcsvec.ud import convert_sentence, parse_conllu_file
from dcsvec.vocab import load_vocab
from test_sampler import name_sample_paths

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"
# the slowest CLI call here (a train run) takes about 3.3 s on a 2-core VM
CLI_TIMEOUT_S = 120


def run_cli(*args, expect=0, timeout=CLI_TIMEOUT_S):
    """Run ``dcsvec`` in a subprocess; a hang fails the test (TimeoutExpired)
    instead of stalling the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "dcsvec", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} (wanted {expect})\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return proc


def test_tree_literal_single_edge():
    tree = parse_tree_literal("drug/N -ARG:COMP-> ban/V")
    assert tree == DcsTree((Word("drug", "N"), Word("ban", "V")), 0, (Edge(0, 1, ARG, COMP),))


def test_tree_literal_branching_and_chains():
    tree = parse_tree_literal(
        "sell/V -SUBJ:ARG-> man/N ; sell/V -COMP:ARG-> drug/N -ARG:COMP-> ban/V"
    )
    assert tree.words[tree.root] == Word("sell", "V")
    assert tree.n_nodes == 4
    assert Edge(0, 2, COMP, ARG) in tree.edges
    assert Edge(2, 3, ARG, COMP) in tree.edges


def test_tree_literal_errors():
    with pytest.raises(InputError):
        parse_tree_literal("")
    with pytest.raises(InputError):
        parse_tree_literal("a/N -ARG:ARG->")
    with pytest.raises(InputError):
        parse_tree_literal("a/N -broken- b/N")
    with pytest.raises(InputError):
        parse_tree_literal("a/N -ARG:ARG-> a/N")  # self loop


def test_convert_fixture(tmp_path):
    out = tmp_path / "trees.txt"
    proc = run_cli("convert", DATA / "mini.conllu", out)
    assert "converted\t9\tskipped\t1" in proc.stdout
    lines = [l for l in out.read_text(encoding="utf-8").splitlines() if l]
    assert len(lines) == 9


def test_convert_empty_file_warns(tmp_path):
    empty = tmp_path / "empty.conllu"
    empty.write_text("# nothing here\n", encoding="utf-8")
    out = tmp_path / "trees.txt"
    proc = run_cli("convert", empty, out)
    assert "warning" in proc.stderr
    assert out.read_text(encoding="utf-8") == ""


def test_convert_malformed_exits_2(tmp_path):
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\tonly\tthree\n", encoding="utf-8")
    proc = run_cli("convert", bad, tmp_path / "out.txt", expect=2)
    line = proc.stderr.strip().splitlines()[-1]
    kind, name, message = line.split("\t", 2)
    assert kind == "error" and name == "MalformedLine" and "line 1" in message


def test_convert_streams_through_save_trees(tmp_path, monkeypatch, capsys):
    real = cli.save_trees
    calls = []

    def recording(trees, path):
        calls.append(trees)
        return real(trees, path)

    monkeypatch.setattr(cli, "save_trees", recording)
    out = tmp_path / "trees.txt"
    assert cli.main(["convert", str(DATA / "mini.conllu"), str(out)]) == 0
    assert capsys.readouterr().out == "converted\t9\tskipped\t1\n"
    (trees,) = calls
    assert not isinstance(trees, (list, tuple))  # one sentence at a time
    convs = [convert_sentence(s) for s in parse_conllu_file(DATA / "mini.conllu")]
    expected = "".join(tree_to_line(c.tree) + "\n" for c in convs if c is not None)
    assert out.read_text(encoding="utf-8") == expected


def test_missing_input_exits_2(tmp_path):
    proc = run_cli("convert", tmp_path / "nope.conllu", tmp_path / "out.txt", expect=2)
    assert proc.stderr.startswith("error\t")


def test_input_that_is_not_utf8_exits_2(tmp_path):
    trees = tmp_path / "trees.txt"
    trees.write_bytes(b"1\tkid/N play/V\t1:0:SUBJ:ARG\n0\tk\xffd/N\t\n")
    proc = run_cli("build-vocab", trees, tmp_path / "vocab.txt", expect=2)
    name, message = one_error_line(proc)
    assert name == "MalformedLine" and message.startswith("line 2: ") and "0xff" in message


def test_unknown_flag_fails_fast(tmp_path):
    proc = run_cli("convert", "--bogus-flag", "x", "y", expect=2)
    assert "bogus-flag" in proc.stderr


@pytest.mark.parametrize(
    "command",
    ["convert", "build-vocab", "train", "compose", "nearest",
     "eval-phrase", "eval-completion", "export-features"],
)
def test_every_subcommand_has_help(command):
    proc = run_cli(command, "--help")
    assert "--seed" in proc.stdout
    assert "--config" in proc.stdout
    assert "--workers" in proc.stdout


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end run shared by the CLI behavior tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus.conllu"
    worldgen.generate_corpus(corpus, 800, seed=3)
    trees = root / "trees.txt"
    vocab = root / "vocab.txt"
    model = root / "model.bin"
    run_cli("convert", corpus, trees)
    run_cli("build-vocab", trees, vocab, "--word-min", 2, "--prep-min", 5)
    run_cli(
        "train", trees, vocab, model,
        "--dim", 12, "--epochs", 2, "--seed", 11, "--workers", 1,
    )
    return root, trees, vocab, model


def test_pipeline_train_output_exists(pipeline):
    _, _, _, model = pipeline
    assert model.stat().st_size > 0


def test_train_dump_paths(pipeline, tmp_path):
    root, trees, vocab, _ = pipeline
    dump = tmp_path / "paths.txt"
    run_cli(
        "train", trees, vocab, tmp_path / "m.bin",
        "--dim", 6, "--epochs", 1, "--seed", 3, "--dump-paths", dump,
    )
    lines = dump.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) > 100
    start, end, hops = lines[0].split("\t")
    assert "/" in start and "/" in end
    for hop in hops.split(","):
        near, far = hop.split(":")
        assert near and far
    # one epoch drawn from default_rng(seed), rendered by name
    rng = np.random.default_rng(3)
    voc = load_vocab(vocab)
    expected = [
        f"{a.render()}\t{b.render()}\t" + ",".join(f"{near}:{far}" for near, far in hop_names)
        for tree in load_trees(trees)
        for a, b, hop_names in name_sample_paths(tree, voc, rng)
    ]
    assert lines == expected


def one_error_line(proc):
    (line,) = proc.stderr.splitlines()
    kind, name, message = line.split("\t", 2)
    assert kind == "error"
    return name, message


@pytest.mark.parametrize(
    "entry",
    ["W\tkid\t1.0", "W\tkid/Q\t1.0", "W\tkid/N\t1.0", "F\tARG\t1.0", "W\tdog/N\tnan", "F\tto\t-1e9"],
)
def test_train_bad_or_repeated_vocab_entry_exits_2(pipeline, tmp_path, entry):
    _, trees, _, _ = pipeline
    bad = tmp_path / "vocab.txt"
    bad.write_text(f"VDCS-VOCAB 1\nW\tkid/N\t2.0\nF\tARG\t2.0\n{entry}\n", encoding="utf-8")
    proc = run_cli("train", trees, bad, tmp_path / "m.bin", "--dim", 4, "--epochs", 1, expect=2)
    name, message = one_error_line(proc)
    assert name == "MalformedLine" and message.startswith("line 4:")


def test_train_on_a_vocabulary_without_the_placeholder_exits_2(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(
        "VDCS-VOCAB 1\nW\tkid/N\t2.0\nW\tplay/V\t2.0\nF\tARG\t2.0\nF\tSUBJ\t2.0\n",
        encoding="utf-8",
    )
    trees = tmp_path / "trees.txt"
    kid, dog, play = Word("kid", "N"), Word("dog", "N"), Word("play", "V")
    trees.write_text(
        "".join(
            tree_to_line(DcsTree((play, noun), 0, (Edge(0, 1, "SUBJ", ARG),))) + "\n"
            for noun in (kid, dog)
        ),
        encoding="utf-8",
    )
    model = tmp_path / "m.bin"
    proc = run_cli("train", trees, vocab, model, "--dim", 4, "--epochs", 1, expect=2)
    name, message = one_error_line(proc)
    assert name == "MissingPlaceholder"
    assert "dog/N" in message and "*UNKNOWN*/N" in message
    assert proc.stdout == ""  # raised in the first epoch, before its log line
    assert not model.exists()


def test_train_on_word_counts_summing_to_inf_exits_2(tmp_path):
    # each count is finite; their sum overflowed the unigram draw, which
    # returned a row one past the end and crashed the step (exit 1)
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(
        "VDCS-VOCAB 1\nW\tkid/N\t1e308\nW\tplay/V\t1e308\nF\tARG\t2.0\nF\tSUBJ\t2.0\n",
        encoding="utf-8",
    )
    trees = tmp_path / "trees.txt"
    tree = DcsTree((Word("play", "V"), Word("kid", "N")), 0, (Edge(0, 1, "SUBJ", ARG),))
    trees.write_text(tree_to_line(tree) + "\n", encoding="utf-8")
    model = tmp_path / "m.bin"
    proc = run_cli("train", trees, vocab, model, "--dim", 4, "--epochs", 1, expect=2)
    name, message = one_error_line(proc)
    assert name == "InputError" and message == "word counts sum to inf, past the largest float"
    assert not model.exists()


def test_nearest_strict_oov_unknown_word_still_exits_1(pipeline):
    _, _, _, model = pipeline
    proc = run_cli(
        "nearest", model, "--tree", "zebra/N -ARG:COMP-> eat/V", "--strict-oov", expect=1
    )
    name, message = one_error_line(proc)
    assert name == "UnknownWord" and "zebra/N" in message


def test_nearest_on_a_model_listing_a_word_twice_exits_2(pipeline, tmp_path):
    _, _, _, model = pipeline
    head, sep, payload = model.read_bytes().partition(b"\n\n")
    lines = head.split(b"\n")
    lines[5] = lines[4]  # the second word line repeats the first
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\n".join(lines) + sep + payload)
    proc = run_cli("nearest", bad, "--tree", "food/N -ARG:COMP-> eat/V", expect=2)
    name, message = one_error_line(proc)
    assert name == "DimensionMismatch" and "listed twice" in message


@pytest.mark.parametrize("counts", [(b"nan",), (b"-1",), (b"inf",), (b"1e308", b"1e308")])
def test_nearest_on_a_model_with_bad_header_counts_exits_2(pipeline, tmp_path, counts):
    _, _, _, model = pipeline
    head, sep, payload = model.read_bytes().partition(b"\n\n")
    lines = head.split(b"\n")
    for i, count in enumerate(counts, start=4):  # the first word lines
        lines[i] = lines[i].partition(b"\t")[0] + b"\t" + count
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\n".join(lines) + sep + payload)
    proc = run_cli("nearest", bad, "--tree", "food/N -ARG:COMP-> eat/V", expect=2)
    name, message = one_error_line(proc)
    assert name == "DimensionMismatch" and "bad header entry" in message


def test_tree_file_query_matches_the_tree_literal(pipeline, tmp_path):
    _, _, _, model = pipeline
    tree_file = tmp_path / "q.trees"
    tree = parse_tree_literal("food/N -ARG:COMP-> eat/V")
    tree_file.write_text("\n" + tree_to_line(tree) + "\n", encoding="utf-8")
    from_file = run_cli("compose", model, "--tree-file", tree_file).stdout
    assert from_file == run_cli("compose", model, "--tree", "food/N -ARG:COMP-> eat/V").stdout


@pytest.mark.parametrize("command", ["compose", "nearest"])
def test_tree_file_bad_line_is_reported_with_its_number(pipeline, tmp_path, command):
    _, _, _, model = pipeline
    tree_file = tmp_path / "q.trees"
    tree_file.write_text("\n\n0\tfood/N\n", encoding="utf-8")
    proc = run_cli(command, model, "--tree-file", tree_file, expect=2)
    name, message = one_error_line(proc)
    assert name == "MalformedLine"
    assert message == "line 3: expected 3 tab-separated columns, got 2"


def test_empty_tree_file_exits_2(pipeline, tmp_path):
    _, _, _, model = pipeline
    tree_file = tmp_path / "q.trees"
    tree_file.write_text("\n  \n", encoding="utf-8")
    proc = run_cli("compose", model, "--tree-file", tree_file, expect=2)
    assert one_error_line(proc) == ("InputError", "tree file is empty")


def test_train_stats_lines(pipeline):
    root, trees, vocab, _ = pipeline
    proc = run_cli(
        "train", trees, vocab, root / "model2.bin",
        "--dim", 8, "--epochs", 2, "--seed", 1,
    )
    stat_lines = [l for l in proc.stdout.splitlines() if l and l[0].isdigit()]
    assert len(stat_lines) == 2
    for line in stat_lines:
        epoch, steps, loss, speed = line.split("\t")
        assert int(steps) > 0 and float(loss) > 0


@pytest.mark.parametrize(
    "flag, value",
    [("--gamma", -1), ("--dim", 1), ("--noise", 0), ("--workers", 0), ("--epochs", -1),
     ("--clip-vec", 0), ("--seed", -1), ("--gamma", "inf"), ("--kappa", "inf"),
     ("--lr-vec", "inf"), ("--lr-mat", "inf"), ("--gamma", 1e308)],
)
def test_train_bad_value_exits_2(pipeline, tmp_path, flag, value):
    _, trees, vocab, _ = pipeline
    proc = run_cli("train", trees, vocab, tmp_path / "m.bin", flag, value, expect=2)
    (line,) = proc.stderr.splitlines()
    kind, name, _ = line.split("\t", 2)
    assert kind == "error" and name == "InvalidConfig"


@pytest.mark.parametrize("flag", ["--word-min", "--prep-min"])
def test_build_vocab_threshold_below_one_exits_2(pipeline, tmp_path, flag):
    _, trees, _, _ = pipeline
    proc = run_cli("build-vocab", trees, tmp_path / "v.txt", flag, 0, expect=2)
    (line,) = proc.stderr.splitlines()
    kind, name, _ = line.split("\t", 2)
    assert kind == "error" and name == "InvalidConfig"


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize(
    "command, key, value",
    [("build-vocab", "word-min", "nan"), ("build-vocab", "prep-min", "nan"), ("nearest", "pos", "n")],
)
def test_bad_option_value_exits_2(pipeline, tmp_path, command, key, value, via_config):
    _, trees, _, model = pipeline
    if command == "build-vocab":
        args = [trees, tmp_path / "v.txt"]
    else:
        args = [model, "--tree", "food/N -ARG:COMP-> eat/V"]
    if via_config:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        args += ["--config", cfg]
    else:
        args += [f"--{key}", value]
    proc = run_cli(command, *args, expect=2)
    name, _ = one_error_line(proc)
    assert name == "InvalidConfig"


def test_nearest_k_below_one_exits_2(pipeline):
    _, _, _, model = pipeline
    proc = run_cli("nearest", model, "--tree", "food/N -ARG:COMP-> eat/V", "--k", 0, expect=2)
    (line,) = proc.stderr.splitlines()
    kind, name, _ = line.split("\t", 2)
    assert kind == "error" and name == "InvalidConfig"


def test_train_without_tuning_flags_uses_train_config_defaults(pipeline, tmp_path, monkeypatch):
    _, trees, vocab, _ = pipeline
    captured = []

    class Captured(Exception):
        pass

    def fake_train(corpus, voc, config, log=None):
        captured.append(config)
        raise Captured

    monkeypatch.setattr(cli, "train", fake_train)
    with pytest.raises(Captured):
        cli.main(["train", str(trees), str(vocab), str(tmp_path / "m.bin")])
    assert captured == [TrainConfig()]


def test_compose_prints_vector(pipeline):
    _, _, _, model = pipeline
    proc = run_cli("compose", model, "--tree", "food/N -ARG:COMP-> eat/V")
    values = proc.stdout.split()
    assert len(values) == 12
    [float(v) for v in values]


def test_compose_no_matrix_model_is_additive(tmp_path, pipeline):
    root, trees, vocab, _ = pipeline
    model = tmp_path / "nomat.bin"
    run_cli(
        "train", trees, vocab, model,
        "--dim", 10, "--epochs", 1, "--seed", 2, "--mode", "no_matrix",
    )
    lone = run_cli("compose", model, "--tree", "bread/N", "--raw-params").stdout.split()
    verb = run_cli("compose", model, "--tree", "eat/V", "--raw-params").stdout.split()
    both = run_cli(
        "compose", model, "--tree", "bread/N -ARG:COMP-> eat/V", "--raw-params"
    ).stdout.split()
    total = np.array([float(x) for x in lone]) + np.array([float(x) for x in verb])
    assert np.allclose(np.array([float(x) for x in both]), total, atol=1e-4)


def test_nearest_ranked_output(pipeline):
    _, _, _, model = pipeline
    proc = run_cli(
        "nearest", model, "--tree", "food/N -ARG:COMP-> eat/V", "--k", 5, "--pos", "N"
    )
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 5
    scores = []
    for rank, line in enumerate(lines, start=1):
        r, word, score = line.split("\t")
        assert int(r) == rank and word.endswith("/N")
        scores.append(float(score))
    assert scores == sorted(scores, reverse=True)


def test_seeded_runs_are_bit_reproducible(pipeline, tmp_path):
    # training runs on one thread, so the workers flag and key change nothing
    root, trees, vocab, _ = pipeline
    cfg = tmp_path / "train.cfg"
    cfg.write_text("workers = 2\n", encoding="utf-8")
    runs = {
        "a": ("--workers", 1),
        "b": ("--workers", 1),
        "flag-2": ("--workers", 2),
        "config-2": ("--config", cfg),
    }
    models = set()
    for name, extra in runs.items():
        out = tmp_path / f"{name}.bin"
        run_cli("train", trees, vocab, out, "--dim", 8, "--epochs", 1, "--seed", 77, *extra)
        models.add(out.read_bytes())
    assert len(models) == 1


def test_config_file_and_flag_precedence(pipeline, tmp_path):
    root, trees, vocab, _ = pipeline
    cfg = tmp_path / "train.cfg"
    cfg.write_text("dim = 6\nepochs = 1\nseed = 5\n# comment\nlr-vec = 0.05\n", encoding="utf-8")
    m1 = tmp_path / "m1.bin"
    run_cli("train", trees, vocab, m1, "--config", cfg)
    from dcsvec.model import load_model

    params, _ = load_model(m1)
    assert params.dim == 6
    # a flag overrides the file
    m2 = tmp_path / "m2.bin"
    run_cli("train", trees, vocab, m2, "--config", cfg, "--dim", 7)
    params2, _ = load_model(m2)
    assert params2.dim == 7


def test_bad_config_key_exits_2(pipeline, tmp_path):
    root, trees, vocab, _ = pipeline
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 4\n", encoding="utf-8")
    proc = run_cli("train", trees, vocab, tmp_path / "m.bin", "--config", cfg, expect=2)
    assert "MalformedLine" in proc.stderr


def test_eval_phrase_command(pipeline, tmp_path):
    _, _, _, model = pipeline
    ds = tmp_path / "phrases.tsv"
    ds.write_text(
        "VO\teat bread\teat cake\t6.0\n"
        "VO\teat bread\tdrive car\t2.0\n"
        "VO\tdrive truck\tdrive car\t6.5\n"
        "VO\teat soup\tpark bus\t1.0\n",
        encoding="utf-8",
    )
    proc = run_cli("eval-phrase", model, ds)
    tag, rho = proc.stdout.strip().split("\t")
    assert tag == "VO"
    assert -1.0 <= float(rho) <= 1.0


def test_eval_completion_command(pipeline, tmp_path):
    _, _, _, model = pipeline
    ds = tmp_path / "items.jsonl"
    worldgen.write_completion_items(ds, 10, seed=4)
    proc = run_cli("eval-completion", model, ds)
    fields = proc.stdout.strip().split("\t")
    assert fields[0] == "accuracy"
    assert 0.0 <= float(fields[1]) <= 1.0
    assert fields[2] == "scored" and int(fields[3]) == 10


def test_eval_completion_non_string_choices_exit_2(pipeline, tmp_path):
    _, _, _, model = pipeline
    ds = tmp_path / "items.jsonl"
    worldgen.write_completion_items(ds, 1, seed=4)
    item = json.loads(ds.read_text(encoding="utf-8"))
    item["choices"] = [1, 2, 3, 4, 5]
    ds.write_text(json.dumps(item) + "\n", encoding="utf-8")
    proc = run_cli("eval-completion", model, ds, expect=2)
    name, message = one_error_line(proc)
    assert name == "MalformedLine" and message.startswith("line 1:")


def test_eval_phrase_non_finite_gold_exits_2(pipeline, tmp_path):
    _, _, _, model = pipeline
    ds = tmp_path / "phrases.tsv"
    ds.write_text("VO\teat bread\teat cake\t6.0\nVO\teat bread\tdrive car\tnan\n", encoding="utf-8")
    proc = run_cli("eval-phrase", model, ds, expect=2)
    name, message = one_error_line(proc)
    assert name == "MalformedLine" and message.startswith("line 2: gold score must be finite")


# {token id: field updates} to a worldgen sentence (ids 1-5: the, noun,
# verb, the, noun) after which its tokens form no tree; before JSON sentences
# got the CoNLL-U head check, the DET cycle above a noun made conversion
# loop forever
BAD_TOKENS = {
    "det-cycle": ({1: {"head": 4}, 4: {"head": 1}, 2: {"head": 1}}, "cycle through token"),
    "missing-head": ({2: {"head": 9}}, "head 9 missing"),
    "content-cycle": ({3: {"head": 5}}, "cycle through token"),
    "repeated-id": ({2: {"id": 5}, 1: {"head": 5}}, "repeated token id"),
}


@pytest.mark.parametrize("case", sorted(BAD_TOKENS))
@pytest.mark.parametrize("command", ["eval-completion", "export-features"])
def test_json_dataset_bad_tokens_exit_2(pipeline, tmp_path, command, case):
    _, _, _, model = pipeline
    if command == "eval-completion":
        rows, outputs = worldgen.completion_items(2, seed=4), []
    else:
        rows, outputs = worldgen.relation_instances(2, seed=8), [tmp_path / "features.txt"]
    updates, expected = BAD_TOKENS[case]
    for token in rows[1]["tokens"]:
        token.update(updates.get(token["id"], {}))
    ds = tmp_path / "rows.jsonl"
    ds.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    proc = run_cli(command, model, ds, *outputs, expect=2, timeout=20)
    name, message = one_error_line(proc)
    assert name == "MalformedLine" and message.startswith("line 2:") and expected in message


def test_export_features_command(pipeline, tmp_path):
    _, _, _, model = pipeline
    inst = tmp_path / "rel.jsonl"
    worldgen.write_relation_instances(inst, 6, seed=8)
    out = tmp_path / "features.txt"
    proc = run_cli("export-features", model, inst, out)
    assert "instances\t6" in proc.stdout
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 6
    label, first_pair = lines[0].split(" ")[0], lines[0].split(" ")[1]
    assert label in ("agent-first", "theme-first")
    index, value = first_pair.split(":")
    assert int(index) >= 1
    float(value)
