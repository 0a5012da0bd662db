#include "train/trainer.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/checkpoint.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace kucnet {

namespace {

/// Captures the full training state after `epoch` into an encoded snapshot
/// blob (the in-memory rollback target and the bytes written to disk).
std::string CaptureSnapshot(int epoch, double train_seconds, int rollbacks,
                            const Rng& rng,
                            const std::vector<EpochRecord>& curve,
                            const std::vector<Parameter*>& params,
                            const Adam* adam) {
  TrainSnapshotMeta meta;
  meta.epoch = epoch;
  meta.train_seconds = train_seconds;
  meta.learning_rate = adam != nullptr ? adam->options().learning_rate : 0.0;
  meta.rollbacks = rollbacks;
  meta.rng = rng.ExportState();
  meta.curve = curve;
  return EncodeTrainSnapshot(meta, params, adam);
}

}  // namespace

TrainResult TrainModel(RankModel& model, const Dataset& dataset,
                       const TrainOptions& options) {
  Rng rng(options.seed);
  TrainResult result;
  EvalOptions eval_opts;
  eval_opts.top_n = options.top_n;
  double train_seconds = 0.0;

  if (options.epochs <= 0) {
    // Heuristic model: nothing to train, just evaluate.
    result.final_eval = EvaluateRanking(model, dataset, eval_opts);
    return result;
  }

  const std::vector<Parameter*> params = model.TrainableParams();
  Adam* adam = model.MutableOptimizer();
  // Snapshots capture parameters + optimizer + RNG; without exposed
  // parameters there is no state to save or roll back to.
  const bool can_snapshot = !params.empty();
  const bool to_disk = !options.checkpoint_dir.empty() && can_snapshot;
  const bool guard = options.max_rollbacks > 0 && can_snapshot;
  FileSystem& fs = FsOrDefault(options.fs);
  if (!options.checkpoint_dir.empty() && !can_snapshot) {
    KUC_LOG(Warning) << model.name()
                     << " does not expose trainable parameters; "
                        "checkpointing disabled";
  }

  int start_epoch = 0;
  if (options.resume && to_disk) {
    std::string path;
    const int found = FindLatestTrainSnapshot(options.checkpoint_dir, &path,
                                              options.fs);
    if (found >= 0) {
      TrainSnapshotMeta meta;
      // FindLatestTrainSnapshot only returns checksum-verified files, so a
      // read failure here means a model/snapshot mismatch — not recoverable.
      KUC_CHECK_OK(ReadTrainSnapshot(path, &meta, params, adam, options.fs))
          << "(cannot resume from " << path << ")";
      start_epoch = meta.epoch;
      train_seconds = meta.train_seconds;
      rng.RestoreState(meta.rng);
      result.curve = meta.curve;
      result.resumed_from_epoch = meta.epoch;
      result.rollbacks = meta.rollbacks;
      if (adam != nullptr && meta.learning_rate > 0.0) {
        adam->set_learning_rate(meta.learning_rate);
      }
      KUC_LOG(Info) << "resumed " << model.name() << " from " << path
                    << " (epoch " << meta.epoch << ")";
    }
  }

  if (options.verbose) {
    KUC_LOG(Info) << "training " << model.name() << " with "
                  << EffectiveParallelism() << " compute thread"
                  << (EffectiveParallelism() == 1 ? "" : "s");
  }

  if (to_disk) {
    const Status st = fs.MakeDirs(options.checkpoint_dir);
    if (!st.ok()) KUC_LOG(Warning) << st.message();
  }

  // The divergence guard's rollback target. Refreshed after every good
  // epoch, so a non-finite loss only ever costs the epoch that produced it.
  std::string last_good;
  if (guard) {
    last_good = CaptureSnapshot(start_epoch, train_seconds, result.rollbacks,
                                rng, result.curve, params, adam);
  }

  bool have_final_eval = false;
  int epoch = start_epoch + 1;
  while (epoch <= options.epochs) {
    Stopwatch epoch_timer;
    double loss;
    {
      KUC_TRACE_SPAN("train.epoch");
      loss = model.TrainEpoch(rng);
    }
    KUC_OBS_COUNT("train.epochs", 1);
    train_seconds += epoch_timer.Seconds();
    KUC_OBS_HISTOGRAM("train.epoch_micros", epoch_timer.ElapsedMicros());

    if (!std::isfinite(loss)) {
      KUC_CHECK(guard) << "non-finite loss (" << loss << ") at epoch "
                       << epoch << " and no rollback state available ("
                       << (can_snapshot
                               ? "divergence guard disabled"
                               : "model does not expose TrainableParams")
                       << ")";
      KUC_CHECK(result.rollbacks < options.max_rollbacks)
          << "non-finite loss at epoch " << epoch << " persists after "
          << result.rollbacks
          << " rollback(s) with learning-rate backoff; giving up. Check the "
             "data and hyper-parameters (learning rate, depth).";
      ++result.rollbacks;
      KUC_OBS_COUNT("train.rollbacks", 1);
      TrainSnapshotMeta meta;
      KUC_CHECK_OK(DecodeTrainSnapshot(last_good, &meta, params, adam))
          << "(rollback failed)";
      rng.RestoreState(meta.rng);
      if (adam != nullptr) {
        const real_t lr =
            adam->options().learning_rate * options.rollback_lr_backoff;
        adam->set_learning_rate(lr);
        KUC_LOG(Warning) << model.name() << ": non-finite loss at epoch "
                         << epoch << "; rolled back to epoch " << meta.epoch
                         << ", learning rate lowered to " << lr << " (retry "
                         << result.rollbacks << "/" << options.max_rollbacks
                         << ")";
      }
      // Re-arm the rollback target with the backed-off learning rate so a
      // second divergence backs off further instead of restoring the old lr.
      last_good = CaptureSnapshot(meta.epoch, train_seconds, result.rollbacks,
                                  rng, result.curve, params, adam);
      continue;  // retry the same epoch
    }

    EpochRecord record;
    record.epoch = epoch;
    record.loss = loss;
    record.seconds_elapsed = train_seconds;
    const bool is_last = epoch == options.epochs;
    if (is_last ||
        (options.eval_every > 0 && epoch % options.eval_every == 0)) {
      KUC_TRACE_SPAN("train.eval");
      const EvalResult eval = EvaluateRanking(model, dataset, eval_opts);
      record.recall = eval.recall;
      record.ndcg = eval.ndcg;
      if (is_last) {
        result.final_eval = eval;
        have_final_eval = true;
      }
    }
    if (options.verbose) {
      KUC_LOG(Info) << model.name() << " epoch " << epoch << " loss=" << loss
                    << (record.recall >= 0
                            ? " recall@" + std::to_string(options.top_n) +
                                  "=" + std::to_string(record.recall)
                            : "");
    }
    result.curve.push_back(record);

    if (guard || to_disk) {
      KUC_TRACE_SPAN("train.snapshot");
      const std::string snapshot =
          CaptureSnapshot(epoch, train_seconds, result.rollbacks, rng,
                          result.curve, params, adam);
      if (guard) last_good = snapshot;
      const bool due =
          is_last || (options.checkpoint_every > 0 &&
                      epoch % options.checkpoint_every == 0);
      if (to_disk && due) {
        const std::string path =
            TrainSnapshotPath(options.checkpoint_dir, epoch);
        const Status st = AtomicWriteFile(fs, path, snapshot);
        if (st.ok()) {
          KUC_OBS_COUNT("train.snapshots_written", 1);
          PruneTrainSnapshots(options.checkpoint_dir, options.keep_snapshots,
                              options.fs);
        } else {
          // IO trouble must not kill a long training run: the previous
          // snapshot is still intact (atomic write), so just keep going.
          KUC_LOG(Warning) << "snapshot failed (training continues): "
                           << st.message();
        }
      }
    }
    if (options.post_snapshot_hook) options.post_snapshot_hook(epoch, model);
    ++epoch;
  }

  if (!have_final_eval) {
    // Resumed at (or past) the final epoch: the loop never ran, but the
    // contract still promises one final evaluation.
    result.final_eval = EvaluateRanking(model, dataset, eval_opts);
  }
  result.train_seconds = train_seconds;
  return result;
}

}  // namespace kucnet
