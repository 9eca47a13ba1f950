"""Run-time wrappers around the public functions of ``charcap``.

``Tracer.install`` replaces every public function of every ``charcap``
module, in every module namespace that holds it (so a name that one module
imports from another, such as ``decoder.attention_step`` or
``multicut.solve_multicut``, is wrapped where it is called), plus the
public methods of the classes the modules define. Each wrapper counts
calls and inclusive wall time per function; a few hooks read arguments
and results to derive the per-layer counts. ``uninstall`` restores the
originals. Nothing under ``src/`` is changed.
"""

import functools
import inspect
import os
import time
from collections import defaultdict

SMALL_GRAPH_NODES = 24  # solve_multicut's deep-escape limit


def _shot_count(detections, boundaries):
    # same rule as multicut.build_tracks: shot index = cuts at or before t
    cuts = sorted(boundaries)
    return len({sum(t >= b for b in cuts) for t in (d.t for d in detections)})


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.values = {}
        self.stack = []
        self._solves = []      # solve_multicut calls inside the open build_tracks
        self._instances = 0    # from the last build_link_instances call
        self._restore = []
        self.paused = False    # set while the harness checks outputs
        self._hooks = {
            "charcap.corpus.ingest_jsonl": self._on_ingest,
            "charcap.shots.pair_features": self._on_shot_pairs,
            "charcap.multicut.solve_multicut": self._on_solve,
            "charcap.multicut.build_tracks": self._on_build_tracks,
            "charcap.linker.build_link_instances": self._on_instances,
            "charcap.linker.train_linker": self._on_train_linker,
            "charcap.linker.linking_accuracy": self._on_link_acc,
            "charcap.decoder.attention_step": self._on_attention,
            "charcap.decoder.sentence_loss": self._on_sentence_loss,
            "charcap.decoder.save_checkpoint": self._on_save,
        }

    # -- installation -----------------------------------------------------

    def install(self, modules):
        wrapped = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("charcap."):
                    key = f"{obj.__module__}.{obj.__qualname__}"
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(key, obj)
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__):
                    for attr, fn in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(fn):
                            continue
                        key = f"{obj.__module__}.{obj.__qualname__}.{attr}"
                        self._restore.append((obj, attr, fn))
                        setattr(obj, attr, self._wrap(key, fn))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, key, fn):
        hook = self._hooks.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.stack.append(key)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                self.calls[key] += 1
                self.seconds[key] += dt
            if hook is not None:
                hook(dt, args, kwargs, result)
            return result
        return wrapper

    # -- hooks --------------------------------------------------------------

    def _on_ingest(self, dt, args, kwargs, result):
        self.counts["clips_ingested"] += len(result.clips)

    def _on_shot_pairs(self, dt, args, kwargs, result):
        self.counts["frame_pairs"] += len(args[0]) - 1

    def _on_solve(self, dt, args, kwargs, result):
        n = args[0]
        edges = args[1]
        if n <= SMALL_GRAPH_NODES:
            self.counts["small_graph_s"] += dt
        if "charcap.multicut.build_tracks" in self.stack:
            self._solves.append((n, len(edges), dt, float(result.objective)))

    def _on_build_tracks(self, dt, args, kwargs, result):
        detections, boundaries = args[0], args[1]
        solves, self._solves = self._solves, []
        self.counts["tracks_built"] += len(result)
        if not detections:
            return
        n_shots = _shot_count(detections, boundaries)
        for n, n_edges, sdt, obj in solves[:n_shots]:
            self.counts["level1_graphs"] += 1
            self.counts["level1_s"] += sdt
            self.counts["level1_edges"] += n_edges
            self.counts["level1_objective"] += obj
            self.maxima["level1_nodes_max"] = max(self.maxima["level1_nodes_max"], n)
        for n, _, sdt, _ in solves[n_shots:]:
            self.counts["level2_s"] += sdt
            self.maxima["level2_nodes_max"] = max(self.maxima["level2_nodes_max"], n)

    def _on_instances(self, dt, args, kwargs, result):
        self._instances = len(result)
        self.counts["instances"] += len(result)
        self.counts["supervised_instances"] += sum(1 for i in result if i.supervised)

    def _on_train_linker(self, dt, args, kwargs, result):
        self.counts["instance_presentations"] += self._instances * result.config.epochs

    def _on_link_acc(self, dt, args, kwargs, result):
        self.values["link_acc"] = float(result)

    def _on_attention(self, dt, args, kwargs, result):
        feats = args[2]
        self.counts["grid_cells"] += (int(feats.prev_valid.sum()) + 1) * int(feats.cur_valid.sum())
        if "charcap.decoder.decode_pair" in self.stack:
            self.counts["decode_steps"] += 1

    def _on_sentence_loss(self, dt, args, kwargs, result):
        self.counts["skipped_targets"] += result[4]

    def _on_save(self, dt, args, kwargs, result):
        self.counts["checkpoint_bytes"] += os.path.getsize(args[0])

    # -- report -------------------------------------------------------------

    def per_layer(self, rounds, setups):
        """Per-layer metrics: set-up figures per set-up, the rest per round."""
        s, n, c = self.seconds, self.calls, self.counts

        def per_round(v):
            return v / rounds

        def ms_per(total_s, count):
            return 1000.0 * total_s / count if count else 0.0

        def rate(count, secs):
            return count / secs if secs else 0.0

        optimizer = [k for k in s if k.startswith("charcap.numerics.") and k.endswith(".step")]
        opt_s = sum(s[k] for k in optimizer)
        opt_n = sum(n[k] for k in optimizer)
        pf = "charcap.shots.pair_features"
        sl = "charcap.decoder.sentence_loss"
        tl = "charcap.linker.train_linker"
        return {
            "corpus.generate_s": (s["charcap.corpus.generate_corpus"] / setups, "s"),
            "corpus.export_s": (s["charcap.corpus.export_jsonl"] / setups, "s"),
            "corpus.ingest_s": (per_round(s["charcap.corpus.ingest_jsonl"]), "s"),
            "corpus.clips_ingested": (per_round(c["clips_ingested"]), "count"),
            "shots.fit_thresholds_s": (per_round(s["charcap.shots.fit_thresholds"]), "s"),
            "shots.detect_boundaries_s": (per_round(s["charcap.shots.detect_boundaries"]), "s"),
            "shots.frame_pairs": (per_round(c["frame_pairs"]), "count"),
            "shots.pair_features_ms": (ms_per(s[pf], c["frame_pairs"]), "ms"),
            "shots.frame_signature_s": (per_round(s["charcap.shots.frame_signature"]), "s"),
            "shots.survival_ratio_s": (per_round(s["charcap.shots.survival_ratio"]), "s"),
            "multicut.fit_pairwise_s": (per_round(s["charcap.multicut.fit_pairwise_model"]), "s"),
            "multicut.build_tracks_s": (per_round(s["charcap.multicut.build_tracks"]), "s"),
            "multicut.level1_s": (per_round(c["level1_s"]), "s"),
            "multicut.level2_s": (per_round(c["level2_s"]), "s"),
            "multicut.level1_graphs": (per_round(c["level1_graphs"]), "count"),
            "multicut.level1_nodes_max": (self.maxima["level1_nodes_max"], "count"),
            "multicut.level1_edges": (per_round(c["level1_edges"]), "count"),
            "multicut.level2_nodes_max": (self.maxima["level2_nodes_max"], "count"),
            "multicut.small_graph_s": (per_round(c["small_graph_s"]), "s"),
            "multicut.tracks_built": (per_round(c["tracks_built"]), "count"),
            "multicut.level1_objective": (per_round(c["level1_objective"]), "cost"),
            "track_features.fit_norm_s": (per_round(s["charcap.track_features.fit_norm_stats"]), "s"),
            "track_features.apply_norm_calls": (per_round(n["charcap.track_features.apply_norm"]), "count"),
            "track_features.apply_norm_s": (per_round(s["charcap.track_features.apply_norm"]), "s"),
            "linker.train_s": (per_round(s[tl]), "s"),
            "linker.instances": (per_round(c["instances"]), "count"),
            "linker.supervised_instances": (per_round(c["supervised_instances"]), "count"),
            "linker.instances_per_s": (rate(c["instance_presentations"], s[tl]), "1/s"),
            "linker.attention_gt_s": (per_round(s["charcap.linker.build_attention_gt"]), "s"),
            "linker.link_clip_calls": (per_round(n["charcap.linker.Linker.link_clip"]), "count"),
            "linker.link_acc": (self.values.get("link_acc", 0.0), "fraction"),
            "decoder.train_s": (per_round(s["charcap.decoder.train_decoder"]), "s"),
            "decoder.sentence_loss_calls": (per_round(n[sl]), "count"),
            "decoder.sentence_loss_ms": (ms_per(s[sl], n[sl]), "ms"),
            "decoder.attention_step_calls": (per_round(n["charcap.decoder.attention_step"]), "count"),
            "decoder.attention_step_s": (per_round(s["charcap.decoder.attention_step"]), "s"),
            "decoder.attention_backward_s": (per_round(s["charcap.decoder.attention_backward"]), "s"),
            "decoder.grid_cells": (per_round(c["grid_cells"]), "count"),
            "decoder.skipped_targets": (per_round(c["skipped_targets"]), "count"),
            "decoder.decode_s": (per_round(s["charcap.decoder.decode_pair"]), "s"),
            "decoder.decode_steps": (per_round(c["decode_steps"]), "count"),
            "decoder.checkpoint_save_s": (per_round(s["charcap.decoder.save_checkpoint"]), "s"),
            "decoder.checkpoint_load_s": (per_round(s["charcap.decoder.load_checkpoint"]), "s"),
            "decoder.checkpoint_bytes": (per_round(c["checkpoint_bytes"]), "bytes"),
            "numerics.lstm_forward_calls": (per_round(n["charcap.numerics.lstm_step_forward"]), "count"),
            "numerics.lstm_forward_s": (per_round(s["charcap.numerics.lstm_step_forward"]), "s"),
            "numerics.lstm_backward_s": (per_round(s["charcap.numerics.lstm_step_backward"]), "s"),
            "numerics.optimizer_steps": (per_round(opt_n), "count"),
            "numerics.optimizer_step_s": (per_round(opt_s), "s"),
        }
