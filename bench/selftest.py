"""Toy-size self-test of the benchmark harness.

    python3 bench/selftest.py

Shrinks every workload, then checks that each run emits exactly the
metrics ``BENCHMARK.json`` names (with their units), that traced runs
measure the layers each workload exercises, and that every correctness
check rejects a deliberately corrupted output.
"""

import io
import json
import os
import shutil
import sys
import tempfile
import unittest

import numpy as np

import run  # sets the BLAS threads and the import path first
import workloads
from charcap import decoder
from workloads import Chain, CheckFailed, Crowded, Video

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))

# workload -> metrics it prints besides the end-to-end ones and wall_s
REPORTED = {
    "chain": {"train_pairs_per_s", "decode_ms_p50", "track_dets_per_s",
              "shot_frames_per_s", "shot_f1", "track_f1"},
    "video": {"track_dets_per_s", "shot_frames_per_s", "shot_f1", "track_f1"},
    "crowded": {"train_pairs_per_s", "decode_ms_p50", "word_acc", "grounding_acc",
                "coref_acc"},
}
# workload -> layers whose per-layer metrics must be measured (non-zero)
LAYERS = {
    "chain": ("corpus.", "shots.", "multicut.", "track_features.", "linker.",
              "decoder.train", "decoder.sentence", "decoder.attention", "decoder.grid",
              "decoder.decode", "numerics."),
    "video": ("shots.", "multicut."),
    "crowded": ("corpus.generate", "track_features.", "linker.", "decoder.", "numerics."),
}
MAY_BE_ZERO = {"decoder.skipped_targets", "linker.supervised_instances",
               "multicut.level2_s", "multicut.level2_nodes_max"}


def shrink():
    Chain.CONFIG = dict(Chain.CONFIG, n_pairs=3)
    Chain.TRAIN = 2
    Chain.LINKER = dict(epochs=5)
    Chain.DECODER = dict(epochs=4, hidden=16, d_att=8, d_emb=8)
    Video.SHOT_LENGTHS = (6, 7)
    Video.TRAIN_SHOT_LENGTHS = (5, 6)
    Video.CHARACTERS = 2
    Video.FRAME_PX = (12, 16)
    Crowded.CONFIG = dict(Crowded.CONFIG, n_pairs=4, max_distractors=55)
    Crowded.TRAIN = 3
    Crowded.LINKER = dict(epochs=3)
    Crowded.DECODER = dict(epochs=3, hidden=16, d_att=8, d_emb=8)


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shrink()
        cls.workdir = tempfile.mkdtemp(prefix=".selftest-", dir=run.HERE)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def run_quiet(self, name, trace):
        out = io.StringIO()
        result = run.run(name, 3, 0.0, trace, self.workdir, out=out)
        return result, out.getvalue()

    def test_metrics_match_spec(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(REPORTED))
        for name in REPORTED:
            with self.subTest(workload=name):
                result, text = self.run_quiet(name, trace=0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, e2e)
                for k in e2e.keys() | REPORTED[name] | {"wall_s"}:
                    self.assertRegex(text, rf"\n  {k} +\S+")
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

                result, _ = self.run_quiet(name, trace=1)
                self.assertTrue(result["correct"])
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, layer)
                for k, v in result["metrics"].items():
                    if k.startswith(LAYERS[name]) and k not in MAY_BE_ZERO:
                        self.assertGreater(v["value"], 0, k)

    def round_of(self, cls):
        wl = cls()
        wl.setup(5, self.workdir)
        return wl, wl.run_round(workloads.Ops())

    def assertRejects(self, wl, out):
        with self.assertRaises(CheckFailed):
            wl.check(out)

    def test_video_checks(self):
        wl, out = self.round_of(Video)
        wl.check(out)
        a, b = out["tracks"][0], out["tracks"][1]
        a.detections[0], b.detections[0] = b.detections[0], a.detections[0]
        self.assertRejects(wl, out)  # two identities swapped
        a.detections[0], b.detections[0] = b.detections[0], a.detections[0]
        cuts = out["boundaries"]
        out["boundaries"] = cuts[:-1]
        self.assertRejects(wl, out)  # a missed cut
        out["boundaries"] = cuts
        wl.check(out)

    def test_chain_checks(self):
        wl, out = self.round_of(Chain)
        wl.check(out)
        preds = out["decoded"][0].predictions
        preds.append(decoder.GroundingPrediction(tau=0, word="MaleName", c_track=999,
                                                 p_track=0, cell=(0, 1)))
        self.assertRejects(wl, out)  # names a track the pair does not have
        preds.pop()
        track = out["corpus"].clips[0].tracks[0]
        v_head = track.v_head
        track.v_head = v_head + 1e-12
        self.assertRejects(wl, out)  # ingest lost a bit
        track.v_head = v_head
        mention = out["tracked"].pairs[0].cur.mentions[0]
        gt, mention.gt_track_ids = mention.gt_track_ids, []
        self.assertRejects(wl, out)  # a planted track not built
        mention.gt_track_ids = gt
        hist = out["trained"].history
        out["trained"].history = hist[::-1]
        self.assertRejects(wl, out)  # loss rose
        out["trained"].history = hist
        wl.check(out)

    def test_crowded_checks(self):
        wl, out = self.round_of(Crowded)
        wl.check(out)
        w = out["loaded"].params["W_pred"]
        out["loaded"].params["W_pred"] = w.copy()
        out["loaded"].params["W_pred"][0, 0] += 1e-9
        self.assertRejects(wl, out)  # checkpoint not bit-equal
        out["loaded"].params["W_pred"] = w
        pair, dec = out["held"].pairs[0], out["decoded"][0]
        feats = decoder.pair_features(pair, out["sup"][pair.id].prev_grounding,
                                      out["loaded"].norm, out["loaded"].config)
        alpha, _, _ = decoder.attention_step(out["loaded"].params,
                                             np.zeros(out["loaded"].config.hidden), feats)
        dec.alphas.append(alpha * 0.5)
        self.assertRejects(wl, out)  # attention does not sum to 1
        dec.alphas.pop()
        wl.check(out)

    def test_padding_check(self):
        wl, out = self.round_of(Crowded)
        pair = out["held"].pairs[0]
        feats = decoder.pair_features(pair, out["sup"][pair.id].prev_grounding,
                                      out["loaded"].norm, out["loaded"].config)
        workloads.check_padding(out["loaded"].params, feats, 0)
        alpha, _, _ = decoder.attention_step(out["loaded"].params,
                                             np.zeros(out["loaded"].config.hidden),
                                             workloads.padded(feats))
        leak = alpha.copy()
        leak[0, -1] = 1e-300
        with self.assertRaises(CheckFailed):
            workloads.check_attention(leak, workloads.padded(feats))


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + sys.argv[1:])
